// The in-process thread backend — the batch simulation environment of
// the paper's Fig. 2 ("Batch env"): a persistent worker pool that
// simulates N test-instances of each job's template and accumulates the
// per-event hit counts. It is the default backend.
//
// Scheduling: the caller is worker 0. ThreadFarm(N) starts N - 1 pool
// threads; run_all lays the run out as one job-major list of
// (job, begin, end) chunks of at most kChunk seeds, publishes it under a
// new generation, and then claims chunks itself, beside the pool, from
// the same atomic cursor. A worker loads a job's tables (JobTables) the
// first time it claims one of that job's chunks and keeps them while it
// claims further chunks of the same job: it compiles a base template
// (Duv::compile) once per run and, for each tuned point of that base (a
// job with weights), only reweights the compiled tables
// (Duv::Compiled::reweight), so an optimizer stencil of 61 points costs
// each worker one compile. It hands each chunk to Duv::simulate_batch
// over per-worker seed and coverage arenas and accumulates into one
// running partial per job it visits. The cursor only moves forward, so
// a worker visits jobs in increasing order, each at most once: partial
// storage is bounded by min(chunks, workers x jobs), and the simulation
// loop takes no lock. A pool thread checks out once the cursor runs
// past the end; the caller, out of chunks, waits until every pool
// thread has checked out, then builds each job's result from its first
// partial and merges the rest in worker order. ThreadFarm(1) starts no
// thread: the caller simulates every chunk.
//
// Waiting: an optimizer iteration is one run_all of a few hundred
// microseconds, and the next follows after a little serial work, so a
// thread that just finished a run spins for a fixed budget (kSpin in
// thread_farm.cpp, one pause instruction per poll and a yield every 16
// polls) before it sleeps: a
// pool thread on the next generation, then on start_cv_; the caller on
// the pool's checkout, then on done_cv_. Back-to-back runs so skip the
// futex wake-ups; an idle farm sleeps.
//
// Determinism: the seed of instance i of a job is a pure function of
// (seed_root, i) via a SeedStream, simulate_batch's out[i] is
// bit-identical to scalar simulate(seeds[i]), and hit-count
// accumulation is commutative, so results are bit-identical for any
// worker count and any claim order.
//
// Failure semantics: if a compile, a reweight, a simulation or stats
// accumulation throws on any worker, the caller included, the first
// exception is captured, workers stop claiming the run's remaining
// chunks, and run_all rethrows once every pool thread has checked out —
// the farm never hangs and stays usable afterwards.
//
// Concurrency: one run at a time. Concurrent run_all callers queue on
// a run mutex, which also guards the caller's workspace; the destructor
// takes the same mutex, so a run in flight on another thread finishes
// before the pool is joined.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "obs/metrics.hpp"

namespace ascdg::exec {

class ThreadFarm final : public Backend {
 public:
  /// `num_workers` == 0 selects the hardware concurrency. The caller of
  /// run_all is one of the workers: this starts num_workers - 1 threads.
  explicit ThreadFarm(std::size_t num_workers = 0);

  /// Waits out a run in flight on another thread, then joins the pool.
  ~ThreadFarm() override;

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "thread";
  }
  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return worker_n_;
  }

  /// Runs all jobs; results are returned in job order. Thread-safe:
  /// concurrent callers run one after another. Rethrows the first
  /// exception any compile or simulation raised, after every pool
  /// thread checked out.
  [[nodiscard]] std::vector<coverage::SimStats> run_all(
      const duv::Duv& duv, std::span<const Job> jobs) override;

  /// Chunks aborted by an exception are not counted.
  [[nodiscard]] std::size_t total_simulations() const noexcept override {
    return metrics_.simulations->value();
  }

  /// Read back from the registry series this farm owns.
  [[nodiscard]] TelemetrySnapshot telemetry() const override;

  /// Summed chunk wall time over the pool's elapsed capacity (0..1).
  [[nodiscard]] double worker_busy_fraction() const noexcept override;

 private:
  /// Shared state of one run_all() call, on the caller's stack.
  struct Run;
  /// One worker's arenas and loaded tables, kept across runs.
  struct Workspace;

  /// Claims chunks of `run` as worker `index` until the cursor runs past
  /// the end or a chunk failed, then unloads `ws`'s tables.
  void work(Run& run, std::size_t index, Workspace& ws);
  void pool_loop(std::size_t index);
  /// The run of the next generation after `seen` (which it updates), or
  /// nullptr once the farm stops: spins, then sleeps on start_cv_.
  Run* await_run(std::uint64_t& seen);
  /// Sets the stop flag, wakes the pool and joins it.
  void stop_pool() noexcept;

  std::size_t worker_n_;

  /// Held for a whole run_all (and by the destructor): one run at a time.
  std::mutex run_mutex_;
  /// Worker 0's workspace; guarded by run_mutex_.
  std::unique_ptr<Workspace> caller_ws_;

  // The published run and its generation (pool threads spin, then wait
  // on start_cv_, for a new one), the checkout count (the caller spins,
  // then waits on done_cv_, for all of them) and the stop flag. Writers
  // hold mutex_, so a sleeper cannot miss a change; the atomics let a
  // spinner see one without it. run_ is read only after a new
  // generation is seen, and rewritten only once every pool thread has
  // checked out of it.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Run* run_ = nullptr;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> checked_out_{0};
  std::atomic<bool> stopping_{false};

  /// This farm's registry series, labeled {backend="thread",farm="<id>"}
  /// so concurrent farms in one process keep separate books. Mutators
  /// are wait-free on the worker hot path.
  struct FarmMetrics {
    obs::Counter* simulations = nullptr;
    obs::Counter* chunks = nullptr;
    obs::Counter* exceptions = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* busy_ns = nullptr;
    /// Pool utilization in parts-per-million (gauges are integral);
    /// refreshed at every run_all() completion.
    obs::Gauge* busy_fraction_ppm = nullptr;
    obs::Histogram* chunk_latency_us = nullptr;
  };
  FarmMetrics metrics_;
  /// util::monotonic_ns() at construction — busy-fraction denominator.
  std::uint64_t created_ns_ = 0;

  std::vector<std::thread> pool_;  ///< last: after all they use
};

}  // namespace ascdg::exec
