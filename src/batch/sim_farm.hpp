// The batch simulation environment (paper Fig. 2: "Batch env"), v3.
//
// The CDG-Runner "sends the templates to the batch environment for
// simulation [and] collects the coverage data". SimFarm is that
// environment: a persistent worker pool that simulates N test-instances
// of a template and accumulates the per-event hit counts.
//
// v3 scheduling: a chunk is a contiguous seed range [begin, end) of one
// job, described by a POD ChunkRef on a grow-only ring buffer — no
// per-chunk std::function, no per-chunk heap allocation once the rings
// have grown to a run's high-water mark. A worker hands its whole chunk
// to Duv::simulate_batch as one batch-of-seeds kernel call over
// per-worker arena storage (seeds + coverage vectors, reused across
// chunks); the per-template distribution tables are compiled once per
// job (Duv::compile) and shared read-only by every chunk of that job.
// Submission round-robins across the per-worker deques and an idle
// worker steals from its peers before sleeping, so one slow chunk never
// serializes the pool behind a global queue lock. Hit counts accumulate
// into per-(worker, job) partials that the caller merges once at join
// time — the hot simulation loop takes no lock at all.
//
// Determinism: the seed of instance i of a run is a pure function of
// (seed_root, i) via a SeedStream, each simulation draws from its own
// seed's RNG stream (simulate_batch's out[i] is bit-identical to scalar
// simulate(seeds[i])), and hit-count accumulation is commutative, so
// results are bit-identical for any worker count, any batch width, and
// any steal schedule.
//
// Failure semantics: if a simulation (or stats accumulation) throws,
// the first exception is captured, the remaining chunks of that call
// are skipped (their countdown still runs), and run/run_all rethrows
// to the caller once every chunk has retired — the farm never hangs
// and stays usable for subsequent calls. Destruction drains: queued
// chunks finish before the workers exit, so an in-flight run_all on
// another thread completes rather than deadlocking on dropped tasks.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "obs/metrics.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::batch {

/// Point-in-time copy of one farm's run counters, safe to pass around.
/// Backed by the process metrics registry: every series below also
/// exists there as `ascdg_farm_*{backend="thread",farm="<id>"}` (see
/// docs/observability.md for the naming scheme; the process backend
/// labels its series backend="process"), so Prometheus/JSON exports see
/// the same numbers this struct reports.
struct TelemetrySnapshot {
  /// Log2-of-microseconds histogram buckets: bucket i counts chunks
  /// whose wall time t satisfies 2^i us <= t < 2^(i+1) us (bucket 0
  /// also absorbs sub-microsecond chunks, the last bucket the tail).
  static constexpr std::size_t kLatencyBuckets = obs::Histogram::kBuckets;

  std::size_t simulations = 0;      ///< simulate() calls completed
  std::size_t chunks = 0;           ///< work chunks executed
  std::size_t steals = 0;           ///< chunks taken from another worker's deque
  std::size_t enqueued = 0;         ///< chunks pushed onto worker deques
  std::size_t queue_depth = 0;      ///< currently queued-but-not-taken chunks
  std::size_t max_queue_depth = 0;  ///< peak queued-but-not-taken chunks
  std::size_t exceptions = 0;       ///< chunks that ended in a captured exception
  std::size_t runs = 0;             ///< run_all() calls completed
  std::size_t active_runs = 0;      ///< run_all() calls currently in flight
  std::uint64_t busy_ns = 0;        ///< summed wall time inside chunks
  /// Fraction of the pool's wall-clock capacity spent inside chunks
  /// since construction (0..1): busy_ns / (workers x farm lifetime).
  /// The report and /timeseries read the same number from the
  /// `ascdg_farm_worker_busy_fraction` gauge (stored in ppm).
  double busy_fraction = 0.0;
  std::array<std::size_t, kLatencyBuckets> chunk_latency{};

  /// Mean chunk wall time in microseconds (0 when no chunk ran).
  [[nodiscard]] double mean_chunk_us() const noexcept {
    return chunks == 0 ? 0.0
                       : static_cast<double>(busy_ns) / 1000.0 /
                             static_cast<double>(chunks);
  }
};

class SimFarm {
 public:
  /// `num_threads` == 0 selects std::thread::hardware_concurrency().
  explicit SimFarm(std::size_t num_threads = 0);

  /// Drains every queued chunk, then joins the workers. Submitting new
  /// work during / after destruction is a caller bug and fails fast
  /// (util::LogicError) instead of hanging.
  ~SimFarm();

  SimFarm(const SimFarm&) = delete;
  SimFarm& operator=(const SimFarm&) = delete;

  /// Simulates `count` instances of `tmpl` on `duv` with instance seeds
  /// derived from `seed_root`; returns the accumulated statistics.
  /// Blocks until complete. Thread-safe for concurrent callers.
  /// Rethrows the first exception any simulation raised.
  [[nodiscard]] coverage::SimStats run(const duv::Duv& duv,
                                       const tgen::TestTemplate& tmpl,
                                       std::size_t count,
                                       std::uint64_t seed_root);

  /// A batch job: one template simulated `count` times; results come
  /// back in job order.
  struct Job {
    const tgen::TestTemplate* tmpl = nullptr;
    std::size_t count = 0;
    std::uint64_t seed_root = 0;
  };

  /// Runs all jobs (interleaved across the pool); results are returned
  /// in job order. Each job's template is compiled once (Duv::compile)
  /// before scheduling and the tables are shared by all of its chunks.
  /// Rethrows the first exception any simulation raised, after every
  /// chunk of this call has retired.
  [[nodiscard]] std::vector<coverage::SimStats> run_all(
      const duv::Duv& duv, std::span<const Job> jobs);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return worker_n_;
  }

  /// Total simulations executed by this farm since construction — the
  /// paper's cost metric ("number of simulations"). Chunks aborted by
  /// an exception are not counted.
  [[nodiscard]] std::size_t total_simulations() const noexcept {
    return metrics_.simulations->value();
  }

  /// Point-in-time copy of the farm's run telemetry (read back from the
  /// registry series this farm owns).
  [[nodiscard]] TelemetrySnapshot telemetry() const;

  /// Mean worker utilization since construction (0..1): summed chunk
  /// wall time over the pool's elapsed capacity.
  [[nodiscard]] double worker_busy_fraction() const noexcept;

 private:
  /// Shared state of one run_all() call; lives on the caller's stack
  /// for the duration of the call (sim_farm.cpp).
  struct RunContext;

  /// One batch chunk: instances [begin, end) of job `job` in run `ctx`.
  /// POD — queued by value, so scheduling allocates nothing per chunk.
  struct ChunkRef {
    RunContext* ctx = nullptr;
    std::size_t job = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Grow-only power-of-two ring buffer of chunk descriptors. Replaces
  /// the v2 std::deque<std::function>: capacity is retained across
  /// runs, so the steady state pushes and pops without touching the
  /// heap. Callers must not pop from an empty ring.
  class ChunkRing {
   public:
    /// Grows capacity to at least `capacity` (rounded up to a power of
    /// two); never shrinks.
    void reserve(std::size_t capacity);
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void push_back(const ChunkRef& chunk);
    ChunkRef pop_back() noexcept;
    ChunkRef pop_front() noexcept;

   private:
    void grow(std::size_t capacity);

    std::vector<ChunkRef> buf_;  ///< size is the capacity (power of two)
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// One worker's deque. Padded to its own cache line so per-worker
  /// push/pop never false-shares with a neighbor.
  struct alignas(64) WorkerQueue {
    std::mutex mutex;
    ChunkRing tasks;
  };

  void worker_loop(std::size_t index);
  void enqueue(const ChunkRef& chunk);
  /// Pops from `index`'s own deque, else steals from a peer (scanning
  /// from index+1). Returns false when every deque is empty.
  bool take_task(std::size_t index, ChunkRef& chunk);
  /// Runs one chunk (seed fill, simulate_batch, partial accumulation)
  /// and retires it against its run's countdown.
  void execute_chunk(const ChunkRef& chunk);

  /// Fixed before any worker starts (workers_ itself is still being
  /// populated while early workers run, so they must not size() it).
  std::size_t worker_n_;
  std::unique_ptr<WorkerQueue[]> queues_;
  std::vector<std::thread> workers_;

  // Idle workers park on sleep_cv_; tasks_pending_ counts chunks that
  // are queued but not yet taken (enqueue increments, take decrements
  // under the owning deque's lock).
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  /// Signalled when the last in-flight run_all retires; the destructor
  /// waits on it so a concurrent caller finishes using the farm before
  /// the workers are reaped.
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> tasks_pending_{0};
  std::atomic<std::size_t> active_runs_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stopping_{false};

  /// This farm's registry series, labeled {farm="<instance id>"} so
  /// concurrent farms in one process keep separate books. Handles are
  /// stable for the registry's (static) lifetime; mutators are
  /// wait-free on the worker hot path.
  struct FarmMetrics {
    obs::Counter* simulations = nullptr;
    obs::Counter* chunks = nullptr;
    obs::Counter* steals = nullptr;
    obs::Counter* enqueued = nullptr;
    obs::Counter* exceptions = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* busy_ns = nullptr;
    /// Queued-but-not-taken chunks. Incremented in enqueue() before the
    /// task becomes stealable and decremented inside the owning deque's
    /// lock in take_task(), so it can never dip negative and its peak
    /// watermark is exact (the old ad-hoc gauge raced enqueue/steal).
    obs::Gauge* queue_depth = nullptr;
    /// run_all() calls currently inside the farm, exported by /metrics
    /// (a wedged worker keeps this positive while every progress counter
    /// flatlines).
    obs::Gauge* active_runs = nullptr;
    /// Pool utilization in parts-per-million (gauges are integral);
    /// refreshed at every run_all() completion.
    obs::Gauge* busy_fraction_ppm = nullptr;
    obs::Histogram* chunk_latency_us = nullptr;
  };
  FarmMetrics metrics_;
  /// util::monotonic_ns() at construction — busy-fraction denominator.
  std::uint64_t created_ns_ = 0;
};

}  // namespace ascdg::batch
