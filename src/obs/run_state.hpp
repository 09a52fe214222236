// Live run state for the introspection service's /runz endpoint: the
// flow's obs::PhaseScopes publish the stage stack and the optimizer
// its per-iteration heartbeat here, so an operator can ask a running
// process "where are you and is the objective still improving?"
// without waiting for the post-run report.
//
// Updates are per-phase / per-iteration — cold next to the simulate()
// hot path — so a single mutex is plenty; readers take a consistent
// Snapshot copy.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ascdg::obs {

class RunState {
 public:
  /// Consistent point-in-time copy for rendering.
  struct Snapshot {
    std::string seed_template;            ///< empty before a flow starts
    std::vector<std::string> phase_stack; ///< outermost first
    std::uint64_t opt_iteration = 0;      ///< last completed iteration (1-based)
    double opt_best_value = 0.0;
    bool opt_started = false;
    std::uint64_t targets_hit = 0;
    std::uint64_t targets_remaining = 0;
    bool coverage_known = false;
    std::uint64_t updates = 0;            ///< total mutations (progress signal)
    /// Last completed stage when this run resumed a durable session
    /// ("" = not a resumed run; "none" = resumed before any stage
    /// completed). Surfaces at /runz so an operator can tell a resumed
    /// run from a fresh one.
    std::string resumed_from;

    /// Execution backend of the current run ("thread", "process:8";
    /// "" before the driver announces one). Sticky across start_flow,
    /// like resumed_from — the backend is chosen before the flow runs.
    std::string backend;

    /// Innermost phase, or "idle" when no flow is running.
    [[nodiscard]] std::string current_phase() const {
      return phase_stack.empty() ? "idle" : phase_stack.back();
    }
  };

  void start_flow(std::string_view seed_template);
  void enter_phase(std::string_view name);
  /// Pops the innermost phase (no-op on an empty stack).
  void exit_phase();
  /// Optimizer heartbeat: last completed iteration (1-based) and the
  /// best objective value so far.
  void set_optimizer(std::uint64_t iteration, double best_value);
  void set_coverage(std::uint64_t targets_hit, std::uint64_t targets_remaining);
  /// See Snapshot::resumed_from. Sticky across start_flow (the resume
  /// is announced before the flow starts).
  void set_resumed_from(std::string_view stage);
  /// See Snapshot::backend. Sticky across start_flow.
  void set_backend(std::string_view backend);
  /// Clears everything back to idle (flow end, or test isolation).
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  Snapshot state_;
};

/// The process-wide run state the runner/optimizer publish into and the
/// HTTP server reads from.
[[nodiscard]] RunState& run_state();

}  // namespace ascdg::obs
