// Multi-target CDG campaign — the paper's §VI future-work direction:
//
//   "the number of simulations required to hit each uncovered event ...
//    may be too high when many uncovered events are involved. We are
//    currently investigating methods that ... reduce the number of
//    simulations per event by using the same simulations for several
//    target events."
//
// The key observation: the targets are known before the random-sampling
// phase runs, so one sampling pass can serve any number of them — it
// scores each sample's statistics against every target as they return
// and keeps each target's best sample, its optimizer's start. Only the
// (cheaper, focused) optimization and harvest phases are per-target.
//
// Since the stage-pipeline refactor this is a session-backed campaign
// driver: with FlowConfig::session_dir set, the campaign directory
// holds a "ascdg-campaign-v1" manifest, one shared session (skeletonize
// + sampling, paid once) and one session per target (optimization /
// refinement / harvest), each independently resumable. A SIGKILL while
// optimizing target 7 of 40 resumes at target 7's last optimizer
// iteration; targets 0-6 replay from their artifacts.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "flow/runner.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"

namespace ascdg::flow {

struct MultiTargetResult {
  /// The shared sampling phase (paid once), with one best sample per
  /// target in target order.
  cdg::RandomSampleResult sampling;
  /// One flow result per target. The `sampling` member of each result
  /// holds only that target's best sample; sampling_phase.sims is
  /// attributed only to the first target so that summing flow_sims()
  /// over results gives the true total cost.
  std::vector<FlowResult> per_target;
  /// Simulations the shared sampling phase saved versus running the
  /// full flow independently per target.
  std::size_t sims_saved = 0;
  /// Campaign session root ("" for an ephemeral run).
  std::string session_dir;
  /// Manifest snapshots: the shared session first, then one per target.
  std::vector<SessionSummary> sessions;

  [[nodiscard]] std::size_t total_sims() const noexcept {
    std::size_t total = 0;
    for (const auto& result : per_target) total += result.flow_sims();
    return total;
  }
};

/// Runs the shared-sampling multi-target campaign: one sampling phase
/// of the skeletonized `seed_template`, then per-target optimization
/// and harvest with `config`'s budgets. With `config.session_dir` set,
/// checkpoints the whole campaign under that directory (see above);
/// with `config.resume` also set, restarts from the last completed
/// checkpoint. Throws util::ConfigError when `targets` is empty, or the
/// resumed campaign manifest does not match this configuration, or its
/// shared sampling scored other targets.
[[nodiscard]] MultiTargetResult run_multi_target(
    const duv::Duv& duv, exec::Backend& farm, const FlowConfig& config,
    std::span<const neighbors::ApproximatedTarget> targets,
    const tgen::TestTemplate& seed_template);

}  // namespace ascdg::flow
