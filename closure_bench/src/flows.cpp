#include "flows.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "coverage/repository.hpp"
#include "duv/registry.hpp"
#include "flow/runner.hpp"
#include "neighbors/neighbors.hpp"
#include "tgen/test_template.hpp"
#include "util/rng.hpp"

namespace closure_bench {

namespace {

using ascdg::exec::BackendConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over the phase hit counts and the harvested template text.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(value >> (8 * i)));
  }
  void add(std::string_view text) {
    add(text.size());
    for (const char c : text) byte(static_cast<unsigned char>(c));
  }
  void add(const ascdg::coverage::SimStats& stats) {
    add(stats.sims());
    add(stats.hit_counts().size());
    for (const auto hits : stats.hit_counts()) add(hits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t result_digest(const ascdg::flow::FlowResult& result) {
  Digest d;
  d.add(result.seed_template);
  for (const auto* phase : {&result.before, &result.sampling_phase,
                            &result.optimization_phase, &result.harvest_phase}) {
    d.add(phase->name);
    d.add(phase->stats);
  }
  d.add(ascdg::tgen::to_text(result.best_template));
  return d.value();
}

std::uintmax_t tree_bytes(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Budgets keep each workload's shape from `ascdg run` (sims per job
  // and stage mix) and are sized so a run measures several flows.
  static const std::vector<Workload> kWorkloads = {
      {"l3-coarse", "l3_cache", "byp_reqs", BackendConfig::Kind::kThread,
       /*before_sims=*/10000, /*samples=*/100, /*sample_sims=*/100,
       /*iterations=*/12, /*directions=*/19, /*point_sims=*/800,
       /*harvest=*/25000, /*session=*/false,
       /*golden_digest=*/0xb99f583ad73a816bULL,
       "kernel-bound: few 100- and 800-sim jobs, so duv and stimgen draws "
       "dominate and per-job costs and IPC are bypassed"},
      {"ifu-fine", "ifu", "ifu", BackendConfig::Kind::kThread,
       /*before_sims=*/5000, /*samples=*/5000, /*sample_sims=*/4,
       /*iterations=*/200, /*directions=*/60, /*point_sims=*/4,
       /*harvest=*/10000, /*session=*/true,
       /*golden_digest=*/0x74237b86a2368495ULL,
       "per-job-bound: tens of thousands of 4-sim jobs, so compile, farm "
       "dispatch, cdg bookkeeping and checkpoint writes dominate"},
      {"ifu-fine-process", "ifu", "ifu", BackendConfig::Kind::kProcess,
       /*before_sims=*/5000, /*samples=*/5000, /*sample_sims=*/4,
       /*iterations=*/200, /*directions=*/60, /*point_sims=*/4,
       /*harvest=*/10000, /*session=*/true,
       /*golden_digest=*/0xaec895aead59228bULL,
       "ifu-fine on the process backend: the gap to ifu-fine is pipe IPC "
       "and the per-worker template re-parse"},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t flow_seed(std::uint64_t run_seed, std::size_t k) {
  if (k == 0) return run_seed;
  std::uint64_t state = run_seed ^ (0xA5A5A5A5ULL * k);
  return ascdg::util::splitmix64_next(state);
}

FlowSample run_flow(const Workload& workload, std::uint64_t seed, SpanLog* log,
                    const std::filesystem::path& scratch) {
  FlowSample s;
  s.seed = seed;
  s.traced = log != nullptr;
  std::filesystem::path session_dir;
  try {
    // --- set-up: unit, backend, before-CDG repository -----------------
    const auto setup_start = Clock::now();
    std::optional<SpanLog::Scope> setup_span;
    setup_span.emplace(log, SpanKind::kSetup);
    const auto unit = ascdg::duv::make_unit(workload.unit);
    if (unit == nullptr) {
      throw std::runtime_error("unknown unit " + std::string(workload.unit));
    }
    const BackendConfig backend_config{workload.backend, kWorkers};
    std::unique_ptr<ascdg::exec::Backend> plain_backend;
    {
      const SpanLog::Scope span(log, SpanKind::kExecStartup);
      plain_backend = ascdg::exec::make_backend(backend_config);
    }
    std::optional<TracedDuv> traced_duv;
    std::optional<TracedBackend> traced_backend;
    if (log != nullptr) {
      traced_duv.emplace(*unit, *log);
      traced_backend.emplace(*plain_backend, *log);
    }
    const ascdg::duv::Duv& duv =
        traced_duv ? static_cast<const ascdg::duv::Duv&>(*traced_duv) : *unit;
    ascdg::exec::Backend& farm =
        traced_backend ? static_cast<ascdg::exec::Backend&>(*traced_backend)
                       : *plain_backend;

    const auto suite = unit->suite();
    ascdg::coverage::CoverageRepository before(unit->space().size());
    {
      const SpanLog::Scope span(log, SpanKind::kCoverageBefore);
      // Exactly `ascdg run`'s before-CDG repository (same seed roots), so
      // every flow of a workload closes the same target set and only the
      // flow seed varies: on ifu, before-CDG noise alone moves the target
      // count between 36 and 43, most of them unhittable.
      std::vector<ascdg::exec::Job> jobs;
      for (std::size_t j = 0; j < suite.size(); ++j) {
        jobs.push_back({&suite[j], workload.before_sims, 0xC11 + j});
      }
      const auto stats = farm.run_all(duv, jobs);
      for (std::size_t j = 0; j < suite.size(); ++j) {
        before.record(suite[j].name(), stats[j]);
      }
    }
    s.before_sims = before.total_sims();
    const auto target = ascdg::neighbors::family_target(
        unit->space(), workload.family, before.total());
    s.targets = target.targets().size();
    setup_span.reset();
    s.setup_s = seconds_since(setup_start);

    // --- the flow -----------------------------------------------------
    ascdg::flow::FlowConfig config;
    config.sample_templates = workload.samples;
    config.sample_sims = workload.sample_sims;
    config.opt_max_iterations = workload.iterations;
    config.opt_directions = workload.directions;
    config.opt_sims_per_point = workload.point_sims;
    config.harvest_sims = workload.harvest;
    config.seed = seed;
    config.backend = backend_config;
    if (workload.session) {
      session_dir = scratch / ("session-" + std::to_string(seed));
      std::filesystem::remove_all(session_dir);
      config.session_dir = session_dir.string();
    }
    const std::size_t sims_before_flow = farm.total_simulations();
    ascdg::flow::CdgRunner runner(duv, farm, config);
    const auto flow_start = Clock::now();
    std::optional<SpanLog::Scope> flow_span;
    flow_span.emplace(log, SpanKind::kFlow);
    const auto result = runner.run(target, before, suite);
    flow_span.reset();
    s.flow_wall_s = seconds_since(flow_start);

    // --- results and checks -------------------------------------------
    s.flow_sims = result.flow_sims();
    for (const auto& hit : result.first_hits) {
      if (hit.phase != "never" && hit.phase != "before") ++s.targets_hit;
    }
    s.best_target_rate = target.real_value(result.harvest_phase.stats);
    s.cache_hits = result.eval_cache_hits;
    s.cache_misses = result.eval_cache_misses;
    s.sampling_s = result.sampling_phase.wall_ms * 1e-3;
    s.optimization_s = result.optimization_phase.wall_ms * 1e-3;
    s.harvest_s = result.harvest_phase.wall_ms * 1e-3;
    s.digest = result_digest(result);
    if (!session_dir.empty()) s.session_bytes = tree_bytes(session_dir);

    const std::size_t farm_sims = farm.total_simulations();
    if (sims_before_flow != s.before_sims ||
        farm_sims != s.before_sims + s.flow_sims) {
      s.error = "simulation count mismatch: backend ran " +
                std::to_string(farm_sims) + ", before " +
                std::to_string(s.before_sims) + " + phases " +
                std::to_string(s.flow_sims);
    } else if (result.first_hits.size() != s.targets) {
      s.error = "first-hit table covers " +
                std::to_string(result.first_hits.size()) + " of " +
                std::to_string(s.targets) + " targets";
    } else if (s.targets_hit == 0) {
      s.error = "the flow hit no target event";
    }
  } catch (const std::exception& err) {
    s.error = err.what();
  }
  if (!session_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(session_dir, ignored);
  }
  return s;
}

}  // namespace closure_bench
