#include "exec/thread_farm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ascdg::exec {

namespace {
/// Simulations per work chunk: large enough to amortize the per-chunk
/// kernel call and bookkeeping, small enough to balance across workers.
constexpr std::size_t kChunk = 64;

/// How long a thread that just finished a run polls for the next step
/// before it sleeps: long enough to bridge an optimizer's serial work
/// between two evaluate_batch calls, short enough that an idle farm
/// stops burning cores at once.
constexpr std::chrono::microseconds kSpin{100};

/// Tells the core this is a spin-wait (frees the sibling hyperthread).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` for up to kSpin; true as soon as it holds. Every 16
/// polls it yields the core, so on a core with more runnable threads
/// than it can run (a farm wider than the machine) the spinner gives
/// way to a thread that still has chunks to simulate.
template <class Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  do {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  return ready();
}

/// Instances [begin, end) of job `job`.
struct Chunk {
  std::size_t job = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One worker's hit counts for one job of a run.
struct JobPartial {
  std::size_t job = 0;
  coverage::SimStats stats;
};

}  // namespace

/// Per-worker batch arena: seed and coverage-vector storage reused
/// across chunks, so the steady-state hot path performs no heap
/// allocation (simulate_batch overwrites the vectors in place), plus
/// the compiled tables of the job the worker is on.
struct ThreadFarm::Workspace {
  std::vector<std::uint64_t> seeds;
  std::vector<coverage::CoverageVector> vectors;
  /// The tables of the job in `job`, kept across the run's jobs of one
  /// base template. Cleared before the worker checks out.
  JobTables tables;
  /// The template `tables` simulates.
  const tgen::TestTemplate* tmpl = nullptr;
  /// Index of the job `tables` is loaded with; kNoJob between runs.
  std::size_t job = kNoJob;

  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
};

struct ThreadFarm::Run {
  const duv::Duv* duv = nullptr;
  std::span<const Job> jobs;
  std::size_t event_count = 0;
  /// Job-major: all chunks of job j precede those of job j + 1.
  std::vector<Chunk> chunks;
  /// Next unclaimed chunk; each worker overshoots the end at most once.
  std::atomic<std::size_t> cursor{0};
  /// partials[w]: worker w's partials in increasing job order, one per
  /// job it visited (written by worker w alone until it checks out;
  /// worker 0 is the caller).
  std::vector<std::vector<JobPartial>> partials;
  std::atomic<bool> failed{false};
  /// First captured exception; written under the farm's mutex_.
  std::exception_ptr error;
};

ThreadFarm::ThreadFarm(std::size_t num_workers)
    : worker_n_(num_workers != 0
                    ? num_workers
                    : std::max<std::size_t>(
                          1, std::thread::hardware_concurrency())) {
  // Register this farm's labeled series before any worker can touch
  // them. Instance ids keep concurrent farms' books separate.
  static std::atomic<std::uint64_t> next_farm_id{0};
  const std::string id =
      std::to_string(next_farm_id.fetch_add(1, std::memory_order_relaxed));
  const std::initializer_list<obs::Label> labels{{"backend", "thread"},
                                                 {"farm", id}};
  obs::Registry& reg = obs::registry();
  metrics_.simulations = &reg.counter("ascdg_farm_simulations_total", labels);
  metrics_.chunks = &reg.counter("ascdg_farm_chunks_total", labels);
  metrics_.exceptions = &reg.counter("ascdg_farm_exceptions_total", labels);
  metrics_.runs = &reg.counter("ascdg_farm_runs_total", labels);
  metrics_.busy_ns = &reg.counter("ascdg_farm_busy_ns_total", labels);
  metrics_.busy_fraction_ppm =
      &reg.gauge("ascdg_farm_worker_busy_fraction", labels);
  metrics_.chunk_latency_us =
      &reg.histogram("ascdg_farm_chunk_latency_us", labels);
  created_ns_ = util::monotonic_ns();

  caller_ws_ = std::make_unique<Workspace>();

  pool_.reserve(worker_n_ - 1);
  try {
    for (std::size_t i = 1; i < worker_n_; ++i) {
      pool_.emplace_back([this, i] { pool_loop(i); });
    }
  } catch (...) {
    stop_pool();  // the threads already started
    throw;
  }
}

ThreadFarm::~ThreadFarm() {
  const std::scoped_lock run_lock(run_mutex_);
  stop_pool();
}

void ThreadFarm::stop_pool() noexcept {
  {
    const std::scoped_lock lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& thread : pool_) thread.join();
}

ThreadFarm::Run* ThreadFarm::await_run(std::uint64_t& seen) {
  const auto ready = [&] {
    return stopping_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen;
  };
  if (!spin_until(ready)) {
    std::unique_lock lock(mutex_);
    start_cv_.wait(lock, ready);
  }
  if (stopping_.load(std::memory_order_acquire)) return nullptr;
  // The caller publishes no further generation before this thread
  // checks out of this one, so run_ is this generation's run.
  seen = generation_.load(std::memory_order_acquire);
  return run_;
}

void ThreadFarm::pool_loop(std::size_t index) {
  Workspace ws;
  std::uint64_t seen = 0;
  while (Run* run = await_run(seen)) {
    work(*run, index, ws);
    // Checkout is this thread's last touch of *run: once the count is
    // complete the caller may return and destroy it.
    if (checked_out_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        worker_n_ - 1) {
      const std::scoped_lock lock(mutex_);
      done_cv_.notify_one();
    }
  }
}

void ThreadFarm::work(Run& run, std::size_t index, Workspace& ws) {
  std::vector<JobPartial>& mine = run.partials[index];
  // Fail fast: once one chunk failed, the rest of the run is skipped.
  while (!run.failed.load(std::memory_order_relaxed)) {
    const std::size_t c = run.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= run.chunks.size()) break;
    const Chunk& chunk = run.chunks[c];
    try {
      const auto start = std::chrono::steady_clock::now();
      const Job& job = run.jobs[chunk.job];
      if (chunk.job != ws.job) {
        // The cursor only moves forward over job-major chunks, so this
        // worker never sees ws.job again: load the next job's tables
        // and open its partial.
        ws.tmpl = &ws.tables.load(*run.duv, *job.tmpl, job.weights);
        ws.job = chunk.job;
        mine.push_back({chunk.job, coverage::SimStats(run.event_count)});
      }
      const std::size_t n = chunk.end - chunk.begin;
      ws.seeds.resize(n);
      const util::SeedStream stream(job.seed_root);
      for (std::size_t i = 0; i < n; ++i) {
        ws.seeds[i] = stream.at(chunk.begin + i);
      }
      if (ws.vectors.size() < n) {
        ws.vectors.resize(n, coverage::CoverageVector(0));
      }
      run.duv->simulate_batch(
          *ws.tmpl, ws.tables.compiled(),
          std::span<const std::uint64_t>(ws.seeds.data(), n),
          std::span<coverage::CoverageVector>(ws.vectors.data(), n));
      coverage::SimStats& acc = mine.back().stats;
      for (std::size_t i = 0; i < n; ++i) acc.record(ws.vectors[i]);
      const auto wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      metrics_.simulations->add(n);
      metrics_.chunks->inc();
      metrics_.busy_ns->add(wall_ns);
      metrics_.chunk_latency_us->observe(wall_ns / 1000);
    } catch (...) {
      metrics_.exceptions->inc();
      const std::scoped_lock lock(mutex_);
      if (run.error == nullptr) run.error = std::current_exception();
      run.failed.store(true, std::memory_order_relaxed);
    }
  }
  // The tables borrow the run's templates, which die with the run.
  ws.tables.clear();
  ws.tmpl = nullptr;
  ws.job = Workspace::kNoJob;
}

std::vector<coverage::SimStats> ThreadFarm::run_all(const duv::Duv& duv,
                                                    std::span<const Job> jobs) {
  const std::scoped_lock run_lock(run_mutex_);
  const std::size_t event_count = duv.space().size();
  const std::size_t job_n = jobs.size();

  Run run;
  run.duv = &duv;
  run.jobs = jobs;
  run.event_count = event_count;
  for (std::size_t j = 0; j < job_n; ++j) {
    ASCDG_ASSERT(jobs[j].tmpl != nullptr, "job with null template");
    for (std::size_t begin = 0; begin < jobs[j].count; begin += kChunk) {
      run.chunks.push_back({j, begin, std::min(begin + kChunk, jobs[j].count)});
    }
  }
  if (!run.chunks.empty()) {
    run.partials.resize(worker_n_);
    const std::size_t pool_n = worker_n_ - 1;
    if (pool_n > 0) {
      {
        const std::scoped_lock lock(mutex_);
        run_ = &run;
        checked_out_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
      }
      start_cv_.notify_all();
    }
    work(run, 0, *caller_ws_);
    const auto all_out = [&] {
      return checked_out_.load(std::memory_order_acquire) == pool_n;
    };
    if (pool_n > 0 && !spin_until(all_out)) {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, all_out);
    }
  }
  metrics_.runs->inc();
  // Refreshed at every run, so a live scrape sees a current number
  // without a sampler thread.
  metrics_.busy_fraction_ppm->set(
      static_cast<std::int64_t>(worker_busy_fraction() * 1e6));
  if (run.error != nullptr) std::rethrow_exception(run.error);

  // In worker order: a job's first partial is moved in, later ones are
  // added; a job no partial reached gets empty stats.
  std::vector<coverage::SimStats> out(job_n);
  for (std::vector<JobPartial>& list : run.partials) {
    for (JobPartial& partial : list) {
      out[partial.job].merge(std::move(partial.stats));
    }
  }
  for (coverage::SimStats& stats : out) {
    if (stats.event_count() == 0) stats = coverage::SimStats(event_count);
  }
  return out;
}

TelemetrySnapshot ThreadFarm::telemetry() const {
  TelemetrySnapshot snap;
  snap.simulations = metrics_.simulations->value();
  snap.chunks = metrics_.chunks->value();
  snap.exceptions = metrics_.exceptions->value();
  snap.runs = metrics_.runs->value();
  snap.busy_ns = metrics_.busy_ns->value();
  snap.busy_fraction = worker_busy_fraction();
  for (std::size_t i = 0; i < TelemetrySnapshot::kLatencyBuckets; ++i) {
    snap.chunk_latency[i] = metrics_.chunk_latency_us->bucket(i);
  }
  return snap;
}

double ThreadFarm::worker_busy_fraction() const noexcept {
  const std::uint64_t elapsed = util::monotonic_ns() - created_ns_;
  if (elapsed == 0) return 0.0;
  const double capacity =
      static_cast<double>(elapsed) * static_cast<double>(worker_n_);
  return std::min(1.0, static_cast<double>(metrics_.busy_ns->value()) /
                           capacity);
}

}  // namespace ascdg::exec
