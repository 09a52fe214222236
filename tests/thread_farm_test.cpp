// Tests for the in-process thread farm: determinism across worker
// counts, job batching, accounting, edge cases (zero counts), exception
// propagation (from simulations and from compiles on a worker),
// compiles per job, concurrent callers, drain-on-destruct, and the
// caller as worker 0 (thread count, its failures, a spinning pool). The
// suite names SimFarm and SimFarmV2 predate the farm's current class
// name and are kept so the test ids stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/thread_farm.hpp"

#include "cdg/cdg_objective.hpp"
#include "cdg/skeletonizer.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "neighbors/neighbors.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::exec {
namespace {

/// Forwards to an inner unit but throws after `fail_after` simulations —
/// models a crashing RTL simulator inside the farm.
class ThrowingDuv final : public duv::Duv {
 public:
  explicit ThrowingDuv(const duv::Duv& inner, std::size_t fail_after = 0)
      : inner_(&inner), fail_after_(fail_after) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "throwing";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) >= fail_after_) {
      throw util::Error("injected DUV failure");
    }
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
  std::size_t fail_after_;
  mutable std::atomic<std::size_t> calls_{0};
};

/// Forwards to an inner unit with an artificial per-simulation delay,
/// so tests can observe the farm with a run still in flight.
class SlowDuv final : public duv::Duv {
 public:
  explicit SlowDuv(const duv::Duv& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "slow";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    started_.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

  /// True once any simulation has begun.
  [[nodiscard]] bool started() const noexcept {
    return started_.load(std::memory_order_acquire);
  }

 private:
  const duv::Duv* inner_;
  mutable std::atomic<bool> started_{false};
};

/// Forwards everything, batch path included, to an inner unit.
/// Subclasses intercept compile().
class ForwardingDuv : public duv::Duv {
 public:
  explicit ForwardingDuv(const duv::Duv& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override {
    return inner_->compile(tmpl);
  }
  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const override {
    inner_->simulate_batch(tmpl, compiled, seeds, out);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
};

/// compile() throws for one template — a template the unit rejects,
/// found on whichever worker first claims a chunk of its job.
class CompileThrowingDuv final : public ForwardingDuv {
 public:
  CompileThrowingDuv(const duv::Duv& inner, const tgen::TestTemplate& poison)
      : ForwardingDuv(inner), poison_(&poison) {}

  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override {
    if (&tmpl == poison_) throw util::Error("injected compile failure");
    return ForwardingDuv::compile(tmpl);
  }

 private:
  const tgen::TestTemplate* poison_;
};

/// Counts compile() calls per template object.
class CompileCountingDuv final : public ForwardingDuv {
 public:
  using ForwardingDuv::ForwardingDuv;

  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override {
    {
      const std::scoped_lock lock(mutex_);
      ++compiles_[&tmpl];
    }
    return ForwardingDuv::compile(tmpl);
  }

  [[nodiscard]] std::size_t compiles(const tgen::TestTemplate& tmpl) const {
    const std::scoped_lock lock(mutex_);
    const auto it = compiles_.find(&tmpl);
    return it == compiles_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::map<const tgen::TestTemplate*, std::size_t> compiles_;
};

/// `count` scalar simulations of `tmpl` over SeedStream(seed_root).
coverage::SimStats serial_reference(const duv::Duv& unit,
                                    const tgen::TestTemplate& tmpl,
                                    std::size_t count,
                                    std::uint64_t seed_root) {
  coverage::SimStats direct(unit.space().size());
  const util::SeedStream seeds(seed_root);
  for (std::size_t i = 0; i < count; ++i) {
    direct.record(unit.simulate(tmpl, seeds.at(i)));
  }
  return direct;
}

/// Simulations per farm chunk (the farm's internal kChunk).
constexpr std::size_t kChunkSims = 64;

TEST(SimFarm, ResultIndependentOfWorkerCount) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  coverage::SimStats reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadFarm farm(workers);
    const auto stats = farm.run(io, tmpl, 500, 42);
    if (workers == 1) {
      reference = stats;
    } else {
      EXPECT_EQ(stats, reference) << "workers=" << workers;
    }
  }
}

TEST(SimFarm, RunAllIndependentOfWorkerCount) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 2u);
  std::vector<Job> jobs{{&suite[0], 150, 7}, {&suite[1], 90, 8}};
  std::vector<coverage::SimStats> reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadFarm farm(workers);
    auto batch = farm.run_all(l3, jobs);
    if (workers == 1) {
      reference = std::move(batch);
    } else {
      EXPECT_EQ(batch, reference) << "workers=" << workers;
    }
  }
}

TEST(SimFarm, MatchesDirectSerialSimulation) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  ThreadFarm farm(3);
  const auto farm_stats = farm.run(io, tmpl, 200, 7);

  coverage::SimStats direct(io.space().size());
  const util::SeedStream seeds(7);
  for (std::size_t i = 0; i < 200; ++i) {
    direct.record(io.simulate(tmpl, seeds.at(i)));
  }
  EXPECT_EQ(farm_stats, direct);
}

TEST(SimFarm, RunAllPreservesJobOrderAndSeeds) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 3u);
  ThreadFarm farm(2);
  std::vector<Job> jobs;
  for (std::size_t j = 0; j < 3; ++j) {
    jobs.push_back({&suite[j], 100, 1000 + j});
  }
  const auto batch = farm.run_all(l3, jobs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto solo = farm.run(l3, suite[j], 100, 1000 + j);
    EXPECT_EQ(batch[j], solo) << "job " << j;
  }
}

TEST(SimFarm, DifferentSeedsGiveDifferentStats) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  const auto a = farm.run(io, io.defaults(), 300, 1);
  const auto b = farm.run(io, io.defaults(), 300, 2);
  EXPECT_FALSE(a == b);
}

TEST(SimFarm, CountsSimulations) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  EXPECT_EQ(farm.total_simulations(), 0u);
  (void)farm.run(io, io.defaults(), 130, 5);
  EXPECT_EQ(farm.total_simulations(), 130u);
  (void)farm.run(io, io.defaults(), 70, 5);
  EXPECT_EQ(farm.total_simulations(), 200u);
}

TEST(SimFarm, ZeroCountJobReturnsEmptyStats) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  const auto stats = farm.run(io, io.defaults(), 0, 5);
  EXPECT_EQ(stats.sims(), 0u);
}

TEST(SimFarm, RunAllWithEmptyJobList) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  const auto results = farm.run_all(io, {});
  EXPECT_TRUE(results.empty());
}

TEST(SimFarm, StatsSimsMatchRequestedCount) {
  const duv::IoUnit io;
  ThreadFarm farm(4);
  // Non-multiple of the internal chunk size.
  const auto stats = farm.run(io, io.defaults(), 257, 3);
  EXPECT_EQ(stats.sims(), 257u);
}

TEST(SimFarm, DefaultWorkerCountIsPositive) {
  ThreadFarm farm;
  EXPECT_GE(farm.worker_count(), 1u);
}

TEST(SimFarm, ManySmallJobsComplete) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  ThreadFarm farm(2);
  std::vector<Job> jobs(40, Job{&tmpl, 5, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 40u);
  for (const auto& stats : results) EXPECT_EQ(stats.sims(), 5u);
}

// Chunk-boundary property: the farm's result must be independent of how
// the internal chunking slices the work.
class ChunkBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkBoundary, CountsAroundChunkSizeAreExact) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  const std::size_t count = GetParam();
  const auto stats = farm.run(io, io.defaults(), count, 11);
  EXPECT_EQ(stats.sims(), count);

  // And identical to a serial reference.
  coverage::SimStats direct(io.space().size());
  const util::SeedStream seeds(11);
  for (std::size_t i = 0; i < count; ++i) {
    direct.record(io.simulate(io.defaults(), seeds.at(i)));
  }
  EXPECT_EQ(stats, direct);
}

INSTANTIATE_TEST_SUITE_P(Batch, ChunkBoundary,
                         ::testing::Values(1u, 63u, 64u, 65u, 127u, 128u, 200u));

TEST(SimFarm, ConcurrentCallersShareThePool) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  coverage::SimStats a, b;
  std::thread caller([&] { a = farm.run(io, io.defaults(), 100, 21); });
  b = farm.run(io, io.defaults(), 100, 22);
  caller.join();
  EXPECT_EQ(a.sims(), 100u);
  EXPECT_EQ(b.sims(), 100u);
  EXPECT_FALSE(a == b);  // different seeds
  // Each equals its serial reference.
  const auto check = [&](const coverage::SimStats& got, std::uint64_t seed) {
    coverage::SimStats direct(io.space().size());
    const util::SeedStream seeds(seed);
    for (std::size_t i = 0; i < 100; ++i) {
      direct.record(io.simulate(io.defaults(), seeds.at(i)));
    }
    EXPECT_EQ(got, direct);
  };
  check(a, 21);
  check(b, 22);
}

// ------------------------------------------------------- v2 guarantees --

TEST(SimFarmV2, ThrowingSimulationPropagatesInsteadOfHanging) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io, /*fail_after=*/0);
  ThreadFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 200, 1), util::Error);
}

TEST(SimFarmV2, ThrowMidRunStillPropagates) {
  const duv::IoUnit io;
  // Several chunks complete before the failure hits.
  const ThrowingDuv bad(io, /*fail_after=*/150);
  ThreadFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 512, 1), util::Error);
  EXPECT_GE(farm.telemetry().exceptions, 1u);
}

TEST(SimFarmV2, ExceptionMessageSurvives) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io);
  ThreadFarm farm(2);
  try {
    (void)farm.run(bad, io.defaults(), 64, 1);
    FAIL() << "run() must rethrow the DUV exception";
  } catch (const util::Error& e) {
    EXPECT_STREQ(e.what(), "injected DUV failure");
  }
}

TEST(SimFarmV2, FarmUsableAfterException) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io);
  ThreadFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 128, 1), util::Error);
  const auto stats = farm.run(io, io.defaults(), 100, 5);
  EXPECT_EQ(stats.sims(), 100u);
}

TEST(SimFarmV2, RunAllWithZeroCountJobsMixedIn) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  ThreadFarm farm(2);
  std::vector<Job> jobs{
      {&tmpl, 100, 1}, {&tmpl, 0, 2}, {&tmpl, 70, 3}, {&tmpl, 0, 4}};
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].sims(), 100u);
  EXPECT_EQ(results[1].sims(), 0u);
  EXPECT_EQ(results[2].sims(), 70u);
  EXPECT_EQ(results[3].sims(), 0u);
  EXPECT_EQ(results[0], farm.run(io, tmpl, 100, 1));
  EXPECT_EQ(results[2], farm.run(io, tmpl, 70, 3));
}

TEST(SimFarmV2, JobsFarExceedWorkers) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  ThreadFarm farm(2);
  std::vector<Job> jobs(300, Job{&tmpl, 3, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 300u);
  for (const auto& stats : results) EXPECT_EQ(stats.sims(), 3u);
  // Spot-check against serial references.
  for (const std::size_t j : {0u, 150u, 299u}) {
    coverage::SimStats direct(io.space().size());
    const util::SeedStream seeds(j);
    for (std::size_t i = 0; i < 3; ++i) {
      direct.record(io.simulate(tmpl, seeds.at(i)));
    }
    EXPECT_EQ(results[j], direct) << "job " << j;
  }
}

TEST(SimFarmV2, TelemetryCountersAreConsistent) {
  const duv::IoUnit io;
  ThreadFarm farm(2);
  (void)farm.run(io, io.defaults(), 130, 5);  // 3 chunks (64+64+2)
  const auto& tmpl = io.defaults();
  std::vector<Job> jobs{{&tmpl, 64, 1}, {&tmpl, 64, 2}};
  (void)farm.run_all(io, jobs);  // 2 chunks

  const TelemetrySnapshot snap = farm.telemetry();
  EXPECT_EQ(snap.simulations, 258u);
  EXPECT_EQ(snap.simulations, farm.total_simulations());
  EXPECT_EQ(snap.chunks, 5u);
  EXPECT_EQ(snap.runs, 2u);
  EXPECT_EQ(snap.exceptions, 0u);
  EXPECT_GT(snap.busy_ns, 0u);
  std::size_t histogram_total = 0;
  for (const std::size_t count : snap.chunk_latency) histogram_total += count;
  EXPECT_EQ(histogram_total, snap.chunks);
  EXPECT_GT(snap.mean_chunk_us(), 0.0);
}

TEST(SimFarmV2, DestructorDrainsInFlightRun) {
  const duv::IoUnit io;
  const SlowDuv slow(io);
  auto farm = std::make_unique<ThreadFarm>(2);
  // The helper thread must not touch the unique_ptr itself — reset()
  // below writes it concurrently; only the pointee is synchronized.
  ThreadFarm* const raw = farm.get();
  coverage::SimStats stats;
  std::thread caller(
      [&stats, raw, &slow, &io] { stats = raw->run(slow, io.defaults(), 256, 3); });
  // Wait until the run is simulating, then tear the farm down while it
  // is still in flight: the destructor waits for it instead of dropping
  // its chunks.
  while (!slow.started()) std::this_thread::yield();
  farm.reset();
  caller.join();
  EXPECT_EQ(stats.sims(), 256u);
}

// Batched objective evaluation through the shared farm, under TSan in
// CI: several optimizer threads, each with its own CdgObjective,
// dispatch whole stencils as single run_all calls against one pool.
// The farm is the only shared state; results must match a lone caller.
TEST(SimFarmV2, ConcurrentBatchedEvaluationsAreRaceFreeAndDeterministic) {
  const duv::IoUnit io;
  tgen::TestTemplate seed_tmpl;
  for (const auto& tmpl : io.suite()) {
    if (tmpl.name() == "io_crc_smoke") seed_tmpl = tmpl;
  }
  ASSERT_FALSE(seed_tmpl.name().empty());
  const tgen::Skeleton skeleton =
      cdg::Skeletonizer().skeletonize(seed_tmpl);
  const coverage::SimStats none(io.space().size());
  const neighbors::ApproximatedTarget target =
      neighbors::family_target(io.space(), "crc", none);

  const std::size_t dim = skeleton.mark_count();
  std::vector<opt::Point> xs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 12; ++i) {
    xs.emplace_back(dim, 0.05 * static_cast<double>(i + 1));
    seeds.push_back(5000 + i);
  }

  ThreadFarm farm(4);
  // Reference: a single caller evaluating the same batch.
  cdg::CdgObjective reference(io, farm, skeleton, target, 20);
  const std::vector<double> expected = reference.evaluate_batch(xs, seeds);

  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<double>> got(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      cdg::CdgObjective objective(io, farm, skeleton, target, 20);
      for (int round = 0; round < 3; ++round) {
        got[t] = objective.evaluate_batch(xs, seeds);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(got[t], expected) << "caller " << t;
  }
}

TEST(SimFarmV2, ExceptionInOneJobOfManyRetiresTheWholeCall) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io, /*fail_after=*/40);
  const auto& tmpl = io.defaults();
  ThreadFarm farm(4);
  std::vector<Job> jobs(10, Job{&tmpl, 64, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  EXPECT_THROW((void)farm.run_all(bad, jobs), util::Error);
  // The failed run retired: an immediate clean run works and the
  // counters balance.
  const auto stats = farm.run(io, tmpl, 64, 9);
  EXPECT_EQ(stats.sims(), 64u);
  const TelemetrySnapshot snap = farm.telemetry();
  EXPECT_EQ(snap.runs, 2u);
  EXPECT_GE(snap.exceptions, 1u);
}

// Back-to-back one-chunk runs on more workers than chunks: most workers
// find the cursor already past the end and check out at once. Under TSan
// (CI) this checks that no worker ever touches a finished run — a stale
// claim would race the caller's stack-allocated run or steal a chunk of
// the next one, and the results would stop matching.
TEST(ThreadFarm, BackToBackOneChunkRunsMatchSerialReference) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  constexpr std::size_t kRuns = 2000;
  constexpr std::size_t kSims = 4;
  ThreadFarm farm(8);
  for (std::size_t r = 0; r < kRuns; ++r) {
    const Job job{&tmpl, kSims, r};
    const auto results = farm.run_all(io, std::span<const Job>(&job, 1));
    coverage::SimStats direct(io.space().size());
    const util::SeedStream seeds(r);
    for (std::size_t i = 0; i < kSims; ++i) {
      direct.record(io.simulate(tmpl, seeds.at(i)));
    }
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0], direct) << "run " << r;
  }
  const TelemetrySnapshot snap = farm.telemetry();
  EXPECT_EQ(snap.runs, kRuns);
  EXPECT_EQ(snap.chunks, kRuns);
  EXPECT_EQ(snap.simulations, kRuns * kSims);
}

// A compile failure happens on the worker that first claims the job:
// it is rethrown once every worker checked out, counted as an
// exception, and the farm runs the next batch normally.
TEST(ThreadFarm, CompileFailureOnAWorkerPropagatesAndFarmRecovers) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 3u);
  const CompileThrowingDuv bad(l3, suite[1]);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadFarm farm(workers);
    const std::vector<Job> jobs{
        {&suite[0], 300, 1}, {&suite[1], 130, 2}, {&suite[2], 4, 3}};
    try {
      (void)farm.run_all(bad, jobs);
      FAIL() << "run_all must rethrow the compile failure, workers="
             << workers;
    } catch (const util::Error& e) {
      EXPECT_STREQ(e.what(), "injected compile failure");
    }
    EXPECT_GE(farm.telemetry().exceptions, 1u) << "workers=" << workers;
    const auto results = farm.run_all(l3, jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(results[j], serial_reference(l3, *jobs[j].tmpl, jobs[j].count,
                                             jobs[j].seed_root))
          << "workers=" << workers << " job " << j;
    }
    EXPECT_EQ(farm.telemetry().runs, 2u);
  }
}

// Workers compile a job when they first claim one of its chunks and
// keep the tables for its later chunks: one compile per non-empty job
// at one worker, at most one per worker that visits the job otherwise,
// and none for a zero-count job.
TEST(ThreadFarm, CompilesEachJobOncePerVisitingWorker) {
  const duv::IoUnit io;
  const std::vector<std::size_t> counts{1, 64, 65, 1000, 0, 300, 4};
  // One template object per job, so compiles are counted per job.
  const std::vector<tgen::TestTemplate> tmpls(counts.size(), io.defaults());
  std::vector<Job> jobs;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    jobs.push_back({&tmpls[j], counts[j], 40 + j});
  }
  for (const std::size_t workers : {1u, 8u}) {
    const CompileCountingDuv counting(io);
    ThreadFarm farm(workers);
    const auto results = farm.run_all(counting, jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t chunks = (counts[j] + kChunkSims - 1) / kChunkSims;
      const std::size_t compiles = counting.compiles(tmpls[j]);
      if (workers == 1 || chunks == 0) {
        EXPECT_EQ(compiles, chunks == 0 ? 0u : 1u)
            << "workers=" << workers << " job " << j;
      } else {
        EXPECT_GE(compiles, 1u) << "workers=" << workers << " job " << j;
        EXPECT_LE(compiles, std::min(chunks, workers))
            << "workers=" << workers << " job " << j;
      }
      EXPECT_EQ(results[j],
                serial_reference(io, tmpls[j], counts[j], jobs[j].seed_root))
          << "workers=" << workers << " job " << j;
    }
  }
}

// Single-chunk, many-chunk and zero-count jobs interleaved: each result
// matches its serial SeedStream reference at every worker count, and a
// zero-count job still returns stats sized to the coverage space.
TEST(ThreadFarm, MixedJobShapesMatchSerialReference) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 3u);
  const std::vector<Job> jobs{
      {&suite[0], 4, 100},   {&suite[1], 1000, 101}, {&suite[2], 0, 102},
      {&suite[0], 64, 103},  {&suite[1], 0, 104},    {&suite[2], 1000, 105},
      {&suite[0], 1, 106},   {&suite[1], 65, 107},   {&suite[2], 4, 108}};
  std::vector<coverage::SimStats> expected;
  for (const Job& job : jobs) {
    expected.push_back(
        serial_reference(l3, *job.tmpl, job.count, job.seed_root));
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadFarm farm(workers);
    const auto results = farm.run_all(l3, jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(results[j], expected[j])
          << "workers=" << workers << " job " << j;
      EXPECT_EQ(results[j].sims(), jobs[j].count);
      EXPECT_EQ(results[j].event_count(), l3.space().size())
          << "workers=" << workers << " job " << j;
    }
  }
}

/// Forwards only the scalar entry points: compile() returns the
/// default nullptr and simulate_batch() is the default scalar loop, as
/// for a wrapper around an external simulator (docs/porting.md).
class ScalarOnlyDuv final : public duv::Duv {
 public:
  explicit ScalarOnlyDuv(const duv::Duv& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
};

// Tuned points travel as (base, weights) jobs. One run mixing weighted
// and concrete jobs of two bases, plus a concrete job of an unrelated
// template, must match the serial simulation of each job's instantiated
// (or plain) template: workers reweight one base's tables job after
// job, switch bases, and recompile a base for a concrete job after
// reweighting it. Once over the unit's compiled tables, once over a
// unit without compile(), whose workers simulate a materialized copy.
TEST(ThreadFarm, WeightedAndConcreteJobsOfTwoBasesMatchSerialReference) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  const cdg::Skeletonizer skeletonizer;
  const tgen::Skeleton skel_a = skeletonizer.skeletonize(l3.defaults());
  const tgen::Skeleton skel_b = skeletonizer.skeletonize(suite[0]);
  const tgen::TestTemplate base_a = skel_a.base("a");
  const tgen::TestTemplate base_b = skel_b.base("b");

  util::Xoshiro256 rng(0xBA5E);
  const auto random_point = [&](const tgen::Skeleton& skel) {
    std::vector<double> point(skel.mark_count());
    for (double& x : point) x = rng.uniform() * 1.2 - 0.1;  // some < 0
    return point;
  };
  struct Spec {
    const tgen::Skeleton* skel;  // nullptr: a concrete job
    const tgen::TestTemplate* tmpl;
    std::size_t count;
  };
  const std::vector<Spec> specs{
      {&skel_a, &base_a, 70}, {&skel_a, &base_a, 4},  {nullptr, &base_a, 65},
      {&skel_b, &base_b, 3},  {&skel_a, &base_a, 64}, {nullptr, &suite[1], 9},
      {&skel_b, &base_b, 130}, {nullptr, &base_b, 1}, {&skel_b, &base_b, 0},
      {&skel_a, &base_a, 1},  {&skel_b, &base_b, 17}};
  std::vector<std::vector<double>> weights;
  weights.reserve(specs.size());
  std::vector<Job> jobs;
  std::vector<coverage::SimStats> expected;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const Spec& spec = specs[j];
    if (spec.skel == nullptr) {
      weights.emplace_back();
      expected.push_back(
          serial_reference(l3, *spec.tmpl, spec.count, 300 + j));
    } else {
      const std::vector<double> point = random_point(*spec.skel);
      weights.push_back(spec.skel->weights(point));
      expected.push_back(serial_reference(
          l3, spec.skel->instantiate("concrete", point), spec.count, 300 + j));
    }
    jobs.emplace_back(spec.tmpl, spec.count, 300 + j, weights.back());
  }

  const ScalarOnlyDuv scalar_only(l3);
  for (const duv::Duv* unit : {static_cast<const duv::Duv*>(&l3),
                               static_cast<const duv::Duv*>(&scalar_only)}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      ThreadFarm farm(workers);
      const auto results = farm.run_all(*unit, jobs);
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(results[j], expected[j])
            << (unit == &l3 ? "compiled" : "scalar-only")
            << " workers=" << workers << " job " << j;
      }
    }
  }
}

// Weighted jobs of one base cost each visiting worker one compile of
// the base per run, not one per job.
TEST(ThreadFarm, WeightedJobsCompileTheirBaseOncePerWorker) {
  const duv::L3Cache l3;
  const CompileCountingDuv counting(l3);
  const tgen::Skeleton skel = cdg::Skeletonizer().skeletonize(l3.defaults());
  const tgen::TestTemplate base = skel.base("base");
  std::vector<std::vector<double>> weights;
  std::vector<Job> jobs;
  weights.reserve(60);
  for (std::size_t j = 0; j < 60; ++j) {
    weights.push_back(skel.weights(std::vector<double>(
        skel.mark_count(), static_cast<double>(j + 1) / 61.0)));
    jobs.emplace_back(&base, 4, j, weights.back());
  }
  constexpr std::size_t kWorkers = 3;
  ThreadFarm farm(kWorkers);
  for (std::size_t run = 1; run <= 2; ++run) {
    (void)farm.run_all(counting, jobs);
    EXPECT_GE(counting.compiles(base), 1u);
    EXPECT_LE(counting.compiles(base), run * kWorkers) << "run " << run;
  }
}

// ------------------------------------------- the caller as worker 0 --

/// Threads of this process, from /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// thread_count() once it fell to `n`, or after 10 s: a joined thread
/// can stay listed for a moment while the kernel reaps it.
std::size_t thread_count_after_joins(std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t count = thread_count();
  while (count > n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = thread_count();
  }
  return count;
}

/// Forwards to an inner unit but throws on the thread that built it —
/// in a farm, the thread calling run_all.
class CallerThrowingDuv final : public ForwardingDuv {
 public:
  explicit CallerThrowingDuv(const duv::Duv& inner) : ForwardingDuv(inner) {}

  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const override {
    if (std::this_thread::get_id() == owner_) {
      throw util::Error("injected failure on the caller");
    }
    ForwardingDuv::simulate_batch(tmpl, compiled, seeds, out);
  }

 private:
  std::thread::id owner_ = std::this_thread::get_id();
};

// ThreadFarm(N) starts N - 1 threads: the caller of run_all is worker
// 0, so a one-worker farm simulates on the calling thread alone.
TEST(ThreadFarm, OneWorkerStartsNoThreadAndMatchesSerialReference) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  // Earlier tests' joined threads may still be listed for a moment.
  const std::size_t before = thread_count_after_joins(1);
  {
    ThreadFarm farm(1);
    EXPECT_EQ(thread_count(), before);
    const std::vector<Job> jobs{{&tmpl, 130, 1}, {&tmpl, 0, 2}, {&tmpl, 7, 3}};
    const auto results = farm.run_all(io, jobs);
    EXPECT_EQ(thread_count(), before);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(results[j],
                serial_reference(io, tmpl, jobs[j].count, jobs[j].seed_root))
          << "job " << j;
    }
  }
  {
    ThreadFarm farm(3);
    EXPECT_EQ(thread_count(), before + 2);
  }
  EXPECT_EQ(thread_count_after_joins(before), before);
}

// A chunk the caller claims fails like one a pool thread claims: the
// error is rethrown after the pool checked out, and the farm recovers.
TEST(ThreadFarm, ExceptionInAChunkTheCallerClaimsPropagates) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  const CallerThrowingDuv bad(io);
  for (const std::size_t workers : {1u, 4u}) {
    ThreadFarm farm(workers);
    // Enough chunks that the caller, which starts claiming at once,
    // claims some.
    std::vector<Job> jobs(100, Job{&tmpl, 64, 0});
    for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
    try {
      (void)farm.run_all(bad, jobs);
      FAIL() << "run_all must rethrow the caller's failure, workers="
             << workers;
    } catch (const util::Error& e) {
      EXPECT_STREQ(e.what(), "injected failure on the caller");
    }
    EXPECT_GE(farm.telemetry().exceptions, 1u) << "workers=" << workers;
    const auto results = farm.run_all(io, std::span<const Job>(jobs).first(3));
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(results[j], serial_reference(io, tmpl, 64, j))
          << "workers=" << workers << " job " << j;
    }
  }
}

// Two threads calling run_all at once take turns: each run's results
// equal its serial reference.
TEST(ThreadFarm, ConcurrentRunAllCallersEachGetTheirOwnResults) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 2u);
  ThreadFarm farm(4);
  std::vector<std::vector<Job>> batches(2);
  std::vector<std::vector<coverage::SimStats>> expected(2);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t j = 0; j < 6; ++j) {
      const std::size_t count = 1 + 37 * j;
      const std::uint64_t seed = 100 * t + j;
      batches[t].push_back({&suite[t], count, seed});
      expected[t].push_back(serial_reference(l3, suite[t], count, seed));
    }
  }
  std::vector<std::size_t> mismatches(2, 0);
  const auto caller = [&](std::size_t t) {
    for (int round = 0; round < 50; ++round) {
      if (farm.run_all(l3, batches[t]) != expected[t]) ++mismatches[t];
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  EXPECT_EQ(mismatches, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(farm.telemetry().runs, 100u);
}

// Right after a run the pool spins for the next one; destroying the
// farm then must stop the spinners and join them, not wait for them to
// fall asleep first or hang.
TEST(ThreadFarm, DestroyingAFarmWhileItsPoolSpinsJoinsIt) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  // Earlier tests' joined threads may still be listed for a moment.
  const std::size_t before = thread_count_after_joins(1);
  for (std::uint64_t r = 0; r < 50; ++r) {
    ThreadFarm farm(4);
    const Job job{&tmpl, 4, r};
    const auto results = farm.run_all(io, std::span<const Job>(&job, 1));
    ASSERT_EQ(results[0], serial_reference(io, tmpl, 4, r)) << "run " << r;
  }
  EXPECT_EQ(thread_count_after_joins(before), before);
}

}  // namespace
}  // namespace ascdg::exec
