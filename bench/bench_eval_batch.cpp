// Benchmarks for the batched-evaluation protocol (google-benchmark):
// farm saturation as a function of dispatched batch size and worker
// count, the cost of one fine-grained optimizer iteration on each
// backend, plus the headline comparison — implicit filtering driving the
// CDG objective through scalar vs batched dispatch. With sims_per_point
// equal to one farm chunk, a scalar evaluation occupies a single worker
// no matter how many exist; batching a whole stencil is what lets the
// pool parallelize across the optimizer's candidates.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cdg/cdg_objective.hpp"
#include "cdg/skeletonizer.hpp"
#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "exec/process_farm.hpp"
#include "exec/thread_farm.hpp"
#include "neighbors/neighbors.hpp"
#include "opt/implicit_filtering.hpp"
#include "opt/synthetic.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace ascdg;

constexpr std::size_t kStencil = 8;
// Few sims per point (well under one farm chunk): a scalar evaluation
// is a single chunk on a single worker no matter how many exist, so any
// parallelism must come from batching whole stencils.
constexpr std::size_t kSimsPerPoint = 8;
// Per-simulation latency of the wrapped DUV. The paper's simulations
// are heavy external simulator runs whose latency dwarfs the dispatch
// path; modelling them as a sleep makes the benchmark measure *farm
// saturation* rather than the synthetic DUV's arithmetic, and keeps the
// comparison meaningful on single-core CI runners (sleeps overlap,
// compute does not).
constexpr auto kSimLatency = std::chrono::microseconds(100);

/// IoUnit with simulator-shaped latency added to every simulation.
class SlowIoUnit final : public duv::Duv {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "slow_io_unit";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_.space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_.defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    std::this_thread::sleep_for(kSimLatency);
    return inner_.simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_.suite();
  }

  [[nodiscard]] const duv::IoUnit& inner() const noexcept { return inner_; }

 private:
  duv::IoUnit inner_;
};

struct Problem {
  SlowIoUnit io;
  tgen::Skeleton skeleton;
  neighbors::ApproximatedTarget target;

  Problem()
      : skeleton(cdg::Skeletonizer().skeletonize(io.defaults())),
        target(neighbors::family_target(
            io.space(), "crc", coverage::SimStats(io.space().size()))) {}
};

const Problem& problem() {
  static const Problem instance;
  return instance;
}

// One evaluate_batch call of `batch` points: items/sec is simulation
// throughput, so the table reads directly as farm saturation.
void BM_EvalBatchDispatch(benchmark::State& state) {
  const auto& p = problem();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(1)));
  cdg::CdgObjective objective(p.io, farm, p.skeleton, p.target,
                              kSimsPerPoint);

  const std::size_t dim = objective.dimension();
  std::vector<opt::Point> xs;
  for (std::size_t i = 0; i < batch; ++i) {
    xs.emplace_back(dim, static_cast<double>(i + 1) /
                             static_cast<double>(batch + 1));
  }
  std::vector<std::uint64_t> seeds(batch);
  std::uint64_t next_seed = 1;
  for (auto _ : state) {
    for (auto& seed : seeds) seed = next_seed++;
    benchmark::DoNotOptimize(objective.evaluate_batch(xs, seeds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * kSimsPerPoint));
}
BENCHMARK(BM_EvalBatchDispatch)
    ->ArgNames({"batch", "workers"})
    ->ArgsProduct({{1, kStencil, 4 * kStencil}, {1, 2, 4, 8}})
    ->UseRealTime();

void run_implicit_filtering(opt::Objective& objective, std::size_t dim) {
  opt::ImplicitFilteringOptions options;
  options.directions = kStencil;
  options.max_iterations = 6;
  options.initial_step = 0.2;
  options.min_step = 1e-9;
  options.seed = 11;
  (void)opt::implicit_filtering(objective, std::vector<double>(dim, 0.5),
                                options);
}

// Whole optimization runs, wall-clock: the acceptance comparison is
// Batched vs Scalar at workers=8.
void BM_ImplicitFilteringScalarDispatch(benchmark::State& state) {
  const auto& p = problem();
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    cdg::CdgObjective inner(p.io, farm, p.skeleton, p.target, kSimsPerPoint);
    opt::ScalarizedObjective scalar(inner);
    run_implicit_filtering(scalar, inner.dimension());
  }
}
BENCHMARK(BM_ImplicitFilteringScalarDispatch)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ImplicitFilteringBatchedDispatch(benchmark::State& state) {
  const auto& p = problem();
  exec::ThreadFarm farm(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    cdg::CdgObjective objective(p.io, farm, p.skeleton, p.target,
                                kSimsPerPoint);
    run_implicit_filtering(objective, objective.dimension());
  }
}
BENCHMARK(BM_ImplicitFilteringBatchedDispatch)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One ifu-fine optimizer iteration: one evaluate_batch of 61 points
// (60 stencil directions and the center) x 4 ifu sims on 4 workers, in
// real time. Every point is a (base, weights) job, so this times the
// per-point path end to end: weight vectors on the caller, a compile
// per base and a reweight per point on the workers, and on the process
// backend the frame with the base's text and each point's weights.
void BM_EvalBatchFine(benchmark::State& state, bool process) {
  constexpr std::size_t kPoints = 61;
  constexpr std::size_t kSims = 4;
  constexpr std::size_t kWorkers = 4;
  const duv::Ifu ifu;
  const tgen::Skeleton skeleton =
      cdg::Skeletonizer().skeletonize(ifu.defaults());
  const auto target = neighbors::family_target(
      ifu.space(), "ifu", coverage::SimStats(ifu.space().size()));
  const std::unique_ptr<exec::Backend> farm =
      process ? std::unique_ptr<exec::Backend>(
                    std::make_unique<exec::ProcessFarm>(kWorkers))
              : std::make_unique<exec::ThreadFarm>(kWorkers);
  cdg::CdgObjective objective(ifu, *farm, skeleton, target, kSims);
  util::Xoshiro256 rng(0xF1E);
  std::vector<opt::Point> xs(kPoints, opt::Point(objective.dimension()));
  for (auto& x : xs) {
    for (double& w : x) w = rng.uniform();
  }
  std::vector<std::uint64_t> seeds(kPoints);
  std::uint64_t next_seed = 1;
  for (auto _ : state) {
    for (auto& seed : seeds) seed = next_seed++;
    benchmark::DoNotOptimize(objective.evaluate_batch(xs, seeds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPoints * kSims));
}
BENCHMARK_CAPTURE(BM_EvalBatchFine, thread, false)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_EvalBatchFine, process, true)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  ascdg::util::set_log_level(ascdg::util::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
