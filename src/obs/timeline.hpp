// Historical layer of the observability stack: a periodic sampler that
// turns the instantaneous metrics registry into a durable per-session
// time series, so convergence (coverage vs. simulations) and resource
// trajectories survive the run that produced them.
//
// Each sample is rendered ONCE into a JSONL line and that same string
// is (a) pushed into a bounded in-memory ring served at /timeseries,
// and (b) appended + flushed to `telemetry.jsonl` in the session
// directory. Because ring and file share the rendered bytes, the live
// endpoint and the on-disk history are bit-identical over the retained
// window — `ascdg inspect` replays the file and sees exactly what a
// live scrape saw.
//
// Durability split follows the session layer's convention: samples are
// plain appends (losing the last partial line in a crash is fine), the
// small `telemetry.index.json` summary is written atomically. Index
// writes go through util::atomic_write_file directly — NOT the flow
// layer's crash-hook wrapper — so telemetry never shifts
// ASCDG_CRASH_AFTER_WRITES kill counts in durability tests.
//
// The sampler thread samples once as it starts, then waits on a
// condition variable with a stopping flag between samples, so every
// process that runs one leaves at least one line; `start_thread = false`
// leaves it off for tests that drive sample_now() manually. All file
// IO is best-effort and never throws into the flow (a throw from the
// sampler thread would terminate the process): a failed sample append
// degrades the recorder to memory-only, and a failed index write warns
// once and is rewritten whole by the next sample and by stop().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_state.hpp"

namespace ascdg::obs {

struct TimeSeriesConfig {
  /// Wall-clock spacing between samples.
  std::chrono::milliseconds sample_interval{1000};
  /// Samples retained in memory (and served at /timeseries).
  std::size_t ring_capacity = 512;
  /// false = no sampler thread; tests call sample_now() themselves.
  bool start_thread = true;
  /// true = continue an existing telemetry.jsonl (session resume):
  /// seq picks up after the last line already in the file.
  bool append = false;
  /// Registry to sample; nullptr = the process-wide obs::registry().
  Registry* registry = nullptr;
  /// Run state for optimizer/coverage fields; nullptr = obs::run_state().
  RunState* run_state = nullptr;
  /// Append-only sample sink; empty = memory-only recorder.
  std::filesystem::path jsonl_path;
  /// Atomically rewritten summary; empty = no index file.
  std::filesystem::path index_path;
  /// Extra registry series sampled verbatim into each line's "extras"
  /// object, keyed by full series name (`name` or `name{labels}`).
  std::vector<std::string> extra_metrics;
  /// Sample getrusage / /proc/self/statm into each line.
  bool sample_resources = true;
};

/// Schema identifier stamped into the index file and /timeseries body.
inline constexpr const char* kTimeSeriesSchema = "ascdg-timeseries-v1";

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(TimeSeriesConfig config);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;
  /// Stops the sampler, takes a final sample, and writes the final
  /// index (`"final": true`).
  ~TimeSeriesRecorder();

  /// Takes one sample immediately (thread-safe; the sampler thread and
  /// manual callers serialize on one mutex).
  void sample_now();

  /// Idempotent shutdown: joins the sampler thread, takes one last
  /// sample (so even a sub-interval run records its end state), and
  /// finalizes the index.
  void stop();

  /// Oldest -> newest copy of the retained rendered lines.
  [[nodiscard]] std::vector<std::string> ring() const;

  /// Total samples taken over the recorder's lifetime (>= ring().size()
  /// once the ring wrapped); includes lines inherited via append mode.
  [[nodiscard]] std::uint64_t samples_taken() const;

  /// Whether file output is (still) active — false for memory-only
  /// configs and after an IO error demoted the recorder.
  [[nodiscard]] bool writing_file() const;

  /// The /timeseries response body: schema envelope + the ring verbatim.
  [[nodiscard]] std::string to_json() const;

 private:
  void run();                      // sampler-thread loop
  void sample_locked();            // one sample; mutex_ held
  [[nodiscard]] std::string render_sample_locked();
  void write_index_locked(bool final);
  void open_sink();                // ctor-time file / seq setup

  TimeSeriesConfig config_;
  Registry* registry_;             // never null after ctor
  RunState* run_state_;            // never null after ctor

  mutable std::mutex mutex_;
  std::vector<std::string> ring_;  // ring_[seq % capacity]
  std::uint64_t seq_ = 0;          // next sample's sequence number
  std::ofstream sink_;
  bool sink_failed_ = false;
  bool index_warned_ = false;     // an index write failed (warn once)
  std::uint64_t start_ns_ = 0;     // monotonic epoch for t_ms
  // previous sample's (t_ms, sims) for the derived sims/sec.
  std::uint64_t prev_t_ms_ = 0;
  std::uint64_t prev_sims_ = 0;
  bool have_prev_ = false;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace ascdg::obs
