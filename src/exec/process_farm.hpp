// The fork-based multi-process backend (docs/backends.md).
//
// ProcessFarm forks N worker processes at construction and ships work
// over per-worker pipe pairs using length-prefixed binary frames
// (exec/frame.hpp). A request carries the DSL text of each base
// template its jobs use once, and each job as a base index plus its raw
// weights. Each worker re-executes the jobs locally —
// duv::make_unit(name) to rebuild the unit, tgen::parse_template once
// per base, Duv::compile once per base and a reweight per weighted job
// (exec::JobTables), then simulate_batch over each assigned chunk's
// seeds — and replies with per-job raw hit-count partials. Shipped
// weights pass through frame::text_rounded_weight first, so a tuned
// point draws what its template text would have carried. The parent
// checks that each response answers its request
// (frame::check_answers) and merges the partials with SimStats::merge,
// which is commutative, so results are bit-identical to the thread
// backend for any worker count and any chunk assignment.
//
// Requirements this backend adds over ThreadFarm:
//   * the unit must be registry-resolvable: duv.name() must round-trip
//     through duv::make_unit (workers rebuild it by name). run_all
//     throws util::ConfigError otherwise, before any work is shipped.
//   * templates must round-trip through tgen::to_text/parse_template
//     (every template the flow builds does).
//
// Failure semantics: a worker that dies mid-batch (SIGKILL, crash),
// desynchronizes its stream (short read/write, EPIPE — injectable via
// the exec.pipe_read / exec.pipe_write failure points) or sends a frame
// that fails to decode or does not answer its request surfaces as a
// clean util::Error from run_all after every live worker's response has
// been collected; the dead worker is reaped immediately and respawned
// at the next run_all, so the farm stays usable and never hangs.
//
// Fork caveat: construct the farm before starting unrelated threads
// (HTTP server, timeline sampler) — fork() in a multi-threaded
// process clones only the calling thread, and a lock held by another
// thread at fork time would deadlock the child. The CLI constructs its
// backend first for exactly this reason. The constructor ignores
// SIGPIPE process-wide (writes to a dead worker must fail with EPIPE,
// not kill the parent).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "obs/metrics.hpp"

namespace ascdg::exec {

class ProcessFarm final : public Backend {
 public:
  /// Forks `num_workers` worker processes (0 selects the hardware
  /// concurrency). Throws util::Error when fork/pipe fails.
  explicit ProcessFarm(std::size_t num_workers = 0);

  /// Closes every worker's request pipe (workers exit on EOF) and reaps
  /// them, after waiting out a run_all in flight on another thread.
  ~ProcessFarm() override;

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "process";
  }
  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return workers_.size();
  }

  [[nodiscard]] std::vector<coverage::SimStats> run_all(
      const duv::Duv& duv, std::span<const Job> jobs) override;

  [[nodiscard]] std::size_t total_simulations() const noexcept override {
    return metrics_.simulations->value();
  }
  [[nodiscard]] TelemetrySnapshot telemetry() const override;
  [[nodiscard]] double worker_busy_fraction() const noexcept override;

  /// Live worker pids, in slot order (dead slots excluded) — for tests
  /// that kill a worker mid-run.
  [[nodiscard]] std::vector<pid_t> worker_pids() const;

  /// Workers respawned after a death (test / telemetry hook; also
  /// exported as ascdg_farm_worker_respawns_total).
  [[nodiscard]] std::size_t respawns() const noexcept {
    return metrics_.respawns->value();
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int to_child = -1;    ///< parent write end (worker requests)
    int from_child = -1;  ///< parent read end (worker responses)
    bool alive = false;
  };

  void spawn_worker(std::size_t slot);
  /// Reaps exited workers (waitpid WNOHANG) and respawns every dead
  /// slot, so a worker killed between runs heals silently.
  void ensure_workers();
  /// Kills (if still running), reaps, and closes `slot`. Idempotent.
  void retire_worker(std::size_t slot);

  /// frame::write_frame / frame::read_frame behind the exec.pipe_write /
  /// exec.pipe_read failure points; both return false on EOF / error /
  /// injected failure (the caller retires the worker).
  [[nodiscard]] bool write_frame(Worker& worker, const std::string& payload);
  [[nodiscard]] bool read_frame(Worker& worker, std::string& payload);

  /// The forked child's request loop; never returns (calls _exit).
  [[noreturn]] static void worker_main(int request_fd, int response_fd);

  std::vector<Worker> workers_;
  /// Serializes run_all callers: the pipe protocol is one outstanding
  /// batch at a time (concurrent callers queue here, as on ThreadFarm).
  std::mutex run_mutex_;

  /// Unit names already validated registry-resolvable.
  std::vector<std::string> validated_units_;

  struct FarmMetrics {
    obs::Counter* simulations = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* exceptions = nullptr;
    obs::Counter* respawns = nullptr;
    /// Live worker processes — the liveness gauge an operator alarms on.
    obs::Gauge* workers_alive = nullptr;
  };
  FarmMetrics metrics_;
  std::uint64_t created_ns_ = 0;
};

}  // namespace ascdg::exec
