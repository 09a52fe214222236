// Microbenchmarks (google-benchmark): throughput of every substrate the
// flow leans on — DUV simulation, template parsing/instantiation,
// sampler draws, TAC queries, coverage accumulation, and farm scaling.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <sstream>

#include "exec/process_farm.hpp"
#include "exec/thread_farm.hpp"
#include "cdg/random_sample.hpp"
#include "cdg/skeletonizer.hpp"
#include "coverage/repository.hpp"
#include "flow/artifacts.hpp"
#include "flow/session.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/run_state.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "duv/registry.hpp"
#include "neighbors/neighbors.hpp"
#include "stimgen/compiled.hpp"
#include "stimgen/sampler.hpp"
#include "tac/tac.hpp"
#include "tgen/parser.hpp"
#include "util/failure.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace ascdg;

void BM_IoUnitSimulate(benchmark::State& state) {
  const duv::IoUnit io;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(io.simulate(io.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IoUnitSimulate);

void BM_L3CacheSimulate(benchmark::State& state) {
  const duv::L3Cache l3;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l3.simulate(l3.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L3CacheSimulate);

void BM_IfuSimulate(benchmark::State& state) {
  const duv::Ifu ifu;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ifu.simulate(ifu.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IfuSimulate);

void BM_TemplateParse(benchmark::State& state) {
  const std::string text = tgen::to_text(duv::IoUnit().defaults());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tgen::parse_template(text));
  }
  state.SetBytesProcessed(
      state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TemplateParse);

void BM_SkeletonInstantiate(benchmark::State& state) {
  const duv::IoUnit io;
  const auto skel = cdg::Skeletonizer().skeletonize(io.defaults());
  util::Xoshiro256 rng(1);
  std::vector<double> weights(skel.mark_count());
  for (auto _ : state) {
    for (double& w : weights) w = rng.uniform();
    benchmark::DoNotOptimize(skel.instantiate("probe", weights));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkeletonInstantiate);

void BM_SamplerWeightedDraw(benchmark::State& state) {
  const duv::IoUnit io;
  util::Xoshiro256 rng(1);
  const stimgen::CompiledTemplate table(nullptr, io.defaults());
  stimgen::ParameterSampler sampler(table, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.draw("Cmd"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerWeightedDraw);

void BM_SamplerRangeDraw(benchmark::State& state) {
  const duv::IoUnit io;
  util::Xoshiro256 rng(1);
  const stimgen::CompiledTemplate table(nullptr, io.defaults());
  stimgen::ParameterSampler sampler(table, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.draw_range("GapDelay"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerRangeDraw);

void BM_CoverageRecord(benchmark::State& state) {
  const duv::Ifu ifu;  // largest space (260+ events)
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  coverage::SimStats stats(ifu.space().size());
  for (auto _ : state) {
    stats.record(vec);
  }
  benchmark::DoNotOptimize(stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageRecord);

// Word-level union of one simulation's bitmap into an accumulator — the
// merge the farm's partials and the repository lean on.
void BM_CoverageOrInto(benchmark::State& state) {
  const duv::Ifu ifu;  // largest space (260+ events)
  coverage::CoverageVector acc(ifu.space().size());
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  for (auto _ : state) {
    acc.merge(vec);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageOrInto);

void BM_CoveragePopcount(benchmark::State& state) {
  const duv::Ifu ifu;
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoveragePopcount);

// One kernel step per unit: a farm-chunk-wide simulate_batch call with
// precompiled tables — the farm's unit of work minus scheduling. The
// template is the unit's skeletonized defaults instantiated at a fixed
// random point, i.e. the fine-grained flow's weight and subrange draw
// mix. items/sec here is per-simulation kernel throughput.
void BM_DuvStep(benchmark::State& state, const char* unit_name) {
  const auto unit = duv::make_unit(unit_name);
  const auto skel = cdg::Skeletonizer().skeletonize(unit->defaults());
  util::Xoshiro256 rng(0x7E57);
  std::vector<double> point(skel.mark_count());
  for (double& weight : point) weight = rng.uniform();
  const tgen::TestTemplate tmpl = skel.instantiate("point", point);
  const auto compiled = unit->compile(tmpl);
  constexpr std::size_t kWidth = 64;
  std::vector<std::uint64_t> seeds(kWidth);
  std::vector<coverage::CoverageVector> out(kWidth);
  std::uint64_t next = 1;
  for (auto _ : state) {
    for (auto& s : seeds) s = next++;
    unit->simulate_batch(tmpl, compiled.get(), seeds, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWidth));
}
BENCHMARK_CAPTURE(BM_DuvStep, ifu, "ifu")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, io_unit, "io_unit")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, l3_cache, "l3_cache")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, lsu, "lsu")->UseRealTime();

// One Compiled::reweight of a unit's tables, compiled from its
// skeletonized defaults' base, to the weights of a random point (the
// per-tuned-point cost on a worker, cut points included). Cycles
// through a few precomputed points so no iteration repeats the last.
void BM_CompiledReweight(benchmark::State& state, const char* unit_name) {
  const auto unit = duv::make_unit(unit_name);
  const auto skel = cdg::Skeletonizer().skeletonize(unit->defaults());
  const tgen::TestTemplate base = skel.base("base");
  const auto compiled = unit->compile(base);
  util::Xoshiro256 rng(0x7E58);
  std::vector<std::vector<double>> weights(16);
  for (auto& w : weights) {
    std::vector<double> point(skel.mark_count());
    for (double& x : point) x = rng.uniform();
    w = skel.weights(point);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->reweight(weights[next]));
    next = (next + 1) % weights.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_CompiledReweight, ifu, "ifu");
BENCHMARK_CAPTURE(BM_CompiledReweight, l3_cache, "l3_cache");

void BM_TacBestTemplates(benchmark::State& state) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  coverage::CoverageRepository repo(io.space().size());
  for (const auto& tmpl : io.suite()) {
    repo.record(tmpl.name(), farm.run(io, tmpl, 50, 1));
  }
  const tac::Tac tac_view(repo);
  const auto family = io.crc_family();
  const std::vector<coverage::EventId> events(family.begin(), family.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tac_view.best_templates(events, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TacBestTemplates);

// `job_n` jobs of `sims_per_job` simulations of `tmpl`, one run_all
// call per iteration. Real time, so items/sec is the backend's
// wall-clock sims/sec rather than the CPU time of a caller blocked in
// run_all.
void run_jobs_loop(benchmark::State& state, exec::Backend& farm,
                   const duv::Duv& unit, const tgen::TestTemplate& tmpl,
                   std::size_t job_n, std::size_t sims_per_job) {
  std::vector<exec::Job> jobs(job_n, exec::Job{&tmpl, sims_per_job, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(unit, jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(job_n * sims_per_job));
}

// The flow's hot shape: many independent jobs (one per sampled
// template) fanned across the backend's workers in one run_all call.
void run_all_loop(benchmark::State& state, exec::Backend& farm) {
  const duv::IoUnit io;
  run_jobs_loop(state, farm, io, io.defaults(), 32, 64);
}

// The in-process thread farm: the repo's throughput headline
// (tools/bench_summary.py).
void BM_ThreadFarmRunAll(benchmark::State& state) {
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  run_all_loop(state, farm);
}
BENCHMARK(BM_ThreadFarmRunAll)->Arg(1)->Arg(8)->UseRealTime();

// The fine-grained flow's sampling shape: 5000 one-chunk jobs of 4 ifu
// sims at a skeletonized point. Per-job work (compile, partials, merge)
// outweighs the kernel here, so iteration time is the farm's per-run
// cost at that shape.
void BM_ThreadFarmRunAllFine(benchmark::State& state) {
  const duv::Ifu ifu;
  const auto skel = cdg::Skeletonizer().skeletonize(ifu.defaults());
  util::Xoshiro256 rng(0x7E57);
  std::vector<double> point(skel.mark_count());
  for (double& weight : point) weight = rng.uniform();
  const tgen::TestTemplate tmpl = skel.instantiate("point", point);
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  run_jobs_loop(state, farm, ifu, tmpl, 5000, 4);
}
BENCHMARK(BM_ThreadFarmRunAllFine)->Arg(1)->Arg(8)->UseRealTime();

// ifu-fine's sampling phase: 5000 templates x 4 ifu sims scored against
// the ifu family target on 4 workers. The phase dispatches a slice of
// templates at a time; this is what that costs against one dispatch.
void BM_RandomSampleFine(benchmark::State& state) {
  const duv::Ifu ifu;
  const auto skel = cdg::Skeletonizer().skeletonize(ifu.defaults());
  const auto target = neighbors::family_target(
      ifu.space(), "ifu", coverage::SimStats(ifu.space().size()));
  exec::ThreadFarm farm(4);
  cdg::RandomSampleOptions options;
  options.templates = 5000;
  options.sims_per_template = 4;
  for (auto _ : state) {
    const auto result =
        cdg::random_sample(ifu, farm, skel, {&target, 1}, options);
    benchmark::DoNotOptimize(result.simulations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          5000 * 4);
}
BENCHMARK(BM_RandomSampleFine)->Unit(benchmark::kMillisecond)->UseRealTime();

// BM_ThreadFarmRunAll with the metrics registry mutators short-circuited,
// for the instrumentation-overhead comparison (acceptance: enabled
// regresses < 5% vs this).
void BM_FarmRunAllMetricsOff(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  run_all_loop(state, farm);
  obs::set_metrics_enabled(true);
}
BENCHMARK(BM_FarmRunAllMetricsOff)->Arg(1)->Arg(8)->UseRealTime();

// The fork-based process backend on the identical workload: what the
// pipe protocol + per-worker recompilation cost relative to the thread
// farm above. Reported by tools/bench_summary.py as process sims/sec
// (informational — no regression gate; the IPC overhead is the price
// of crash isolation, see docs/backends.md).
void BM_ProcessFarmRunAll(benchmark::State& state) {
  exec::ProcessFarm farm(static_cast<std::size_t>(state.range(0)));
  run_all_loop(state, farm);
}
BENCHMARK(BM_ProcessFarmRunAll)->Arg(1)->Arg(8)->UseRealTime();

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::registry().counter("bench_counter_total", {{"bench", "micro"}});
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram& hist =
      obs::registry().histogram("bench_hist_us", {{"bench", "micro"}});
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.observe(v++);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_TracerSpan(benchmark::State& state) {
  // /dev/null keeps memory flat however many iterations benchmark picks.
  obs::Tracer tracer(std::filesystem::path("/dev/null"));
  for (auto _ : state) {
    obs::Span span = tracer.span("bench");
    benchmark::DoNotOptimize(span.id());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerSpan);

// --- live-introspection overhead guards (acceptance: the *ServeOn
// variant regresses < 5% vs its baseline above; the CI bench artifact
// archives both sides of the pair).

// One full /metrics scrape against a registry shaped like a real run
// (a few dozen series) — bounds what a 1 Hz Prometheus poller costs.
void BM_HttpMetricsScrape(benchmark::State& state) {
  obs::Registry reg;
  for (int i = 0; i < 24; ++i) {
    reg.counter("bench_scrape_total", {{"series", std::to_string(i)}})
        .add(static_cast<std::uint64_t>(i));
    reg.histogram("bench_scrape_us", {{"series", std::to_string(i)}})
        .observe(static_cast<std::uint64_t>(i) * 17);
  }
  obs::HttpServerConfig config;
  config.registry = &reg;
  obs::HttpServer server(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle("GET", "/metrics"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HttpMetricsScrape);

// BM_ThreadFarmRunAll with the introspection service live: HTTP server
// accepting scrapes on its own thread while the farm saturates the
// workers. The delta vs BM_ThreadFarmRunAll is the serve-mode overhead.
void BM_FarmRunAllServeOn(benchmark::State& state) {
  obs::HttpServerConfig http_config;
  obs::HttpServer server(http_config);
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  run_all_loop(state, farm);
}
BENCHMARK(BM_FarmRunAllServeOn)->Arg(1)->Arg(8)->UseRealTime();

// One optimizer-iteration checkpoint record of a dim-wide stage: a
// center and best point, one trace entry and 260-event stats, the size
// of an ifu stage's.
flow::OptStageCheckpoint bench_checkpoint(std::size_t dim) {
  constexpr std::size_t kEvents = 260;
  flow::OptStageCheckpoint ckpt;
  ckpt.ifc.next_iteration = 10;
  ckpt.ifc.center.assign(dim, 0.333333333333);
  ckpt.ifc.center_value = 0.125;
  ckpt.ifc.step = 0.05;
  ckpt.ifc.evaluations = 10 * (dim + 1);
  ckpt.ifc.best_point.assign(dim, 0.666666666666);
  ckpt.ifc.best_value = 0.25;
  ckpt.ifc.rng_state = {0xDEADBEEFCAFEBABEULL, 0x123456789ABCDEF0ULL, 42ULL,
                        7ULL};
  ckpt.ifc.eval_seed_counter = 1234;
  opt::IterationRecord record;
  record.iteration = 9;
  record.center_value = 0.09;
  record.evaluations = 10 * (dim + 1);
  ckpt.ifc.trace.push_back(record);
  // Hit counts of every magnitude up to the stage's sims, as a flow's
  // accumulated stats hold.
  constexpr std::size_t kSims = 40000;
  std::vector<std::size_t> hits(kEvents);
  for (std::size_t e = 0; e < kEvents; ++e) hits[e] = (e * 7919) % kSims;
  ckpt.stats = coverage::SimStats::from_counts(kSims, std::move(hits));
  ckpt.sims = kSims;
  return ckpt;
}

/// A fresh scratch directory for one journal bench.
std::filesystem::path bench_journal_dir() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ascdg_bench_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// What an optimizer iteration pays for its checkpoint: serialize one
// journal record and append it. The journal thread writes and syncs it
// behind the caller. A fixed 256 iterations, about one ifu flow's
// records, bound the queue the thread has not synced yet; the close
// that drains it is outside the timing. Real time.
void BM_CheckpointJournalAppendCaller(benchmark::State& state) {
  const flow::OptStageCheckpoint ckpt =
      bench_checkpoint(static_cast<std::size_t>(state.range(0)));
  const std::filesystem::path dir = bench_journal_dir();
  {
    flow::JournalWriter journal(dir / "optimization.ckpt.jsonl", 0);
    for (auto _ : state) journal.append(flow::to_json(ckpt));
    journal.close();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointJournalAppendCaller)
    ->Name("BM_CheckpointJournalAppend/caller")
    ->Arg(20)
    ->Arg(100)
    ->Iterations(256)
    ->UseRealTime();

// What one record costs until it is durable: open the journal where the
// last record ended, append the serialized record and close, which
// waits for its write and fdatasync on the journal thread (and starts
// and joins that thread). Real time, since the sync blocks.
void BM_CheckpointJournalAppendDurable(benchmark::State& state) {
  const std::string record = flow::to_json(
      bench_checkpoint(static_cast<std::size_t>(state.range(0))));
  const std::filesystem::path dir = bench_journal_dir();
  const std::filesystem::path file = dir / "optimization.ckpt.jsonl";
  std::uintmax_t bytes = 0;
  for (auto _ : state) {
    flow::JournalWriter journal(file, bytes);
    journal.append(record);
    journal.close();
    bytes += record.size() + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointJournalAppendDurable)
    ->Name("BM_CheckpointJournalAppend/durable")
    ->Arg(20)
    ->Arg(100)
    ->UseRealTime();

// The disarmed fast path of a failure point: one relaxed atomic load.
// Injection sites sit on every write/fsync/rename and inside the HTTP
// serve loop, so this must stay indistinguishable from free — the CI
// overhead guard watches it.
void BM_FailurePointCheckOff(benchmark::State& state) {
  util::FailurePoint::disarm_all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::FailurePoint::check(util::FailurePoint::Id::kAtomicWriteFsync));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FailurePointCheckOff);

// One telemetry sample: registry snapshot + line render + ring slot
// (memory-only; the file append is the session's problem, not the
// sampler's). This is what --timeline costs the run per interval, so
// it must stay far below any sane sampling period.
void BM_TimeSeriesSample(benchmark::State& state) {
  obs::Registry reg;
  // A realistic registry shape: per-farm counters, busy gauges,
  // latency histograms, optimizer counters.
  for (int farm = 0; farm < 4; ++farm) {
    const std::string id = std::to_string(farm);
    reg.counter("ascdg_farm_simulations_total", {{"farm", id}}).add(100'000);
    reg.gauge("ascdg_farm_worker_busy_fraction", {{"farm", id}}).set(900'000);
    auto& hist = reg.histogram("ascdg_farm_chunk_latency_us", {{"farm", id}});
    for (std::uint64_t v = 1; v < 4096; v *= 2) hist.observe(v);
  }
  reg.counter("ascdg_opt_iterations_total").add(25);
  reg.histogram("ascdg_eval_batch_size").observe(20);
  obs::RunState run;
  run.start_flow("bench");
  run.enter_phase("optimization");
  obs::TimeSeriesConfig config;
  config.start_thread = false;
  config.registry = &reg;
  config.run_state = &run;
  obs::TimeSeriesRecorder recorder(config);
  for (auto _ : state) {
    recorder.sample_now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesSample);

void BM_XoshiroU64(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_XoshiroU64);

}  // namespace

int main(int argc, char** argv) {
  ascdg::util::set_log_level(ascdg::util::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
