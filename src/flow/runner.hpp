// The CDG-Runner (paper Fig. 2): drives the AS-CDG flow through the
// stage pipeline.
//
//   coarse search (TAC)  ->  Skeletonizer  ->  random sample
//        ->  implicit-filtering optimization  ->  harvest best template
//
// The runner "creates test-templates that fit the skeleton according to
// the specific task it executes (e.g., random sample, optimize), sends
// the templates to the batch environment for simulation, collects the
// coverage data, analyzes the results, and decides on the next step."
//
// Since the stage-pipeline refactor the runner is a thin driver: it
// assembles a flow::Pipeline of stages, optionally attaches a durable
// flow::Session (FlowConfig::session_dir / resume), and keeps the
// flow-level bookkeeping the stages share (the "flow" obs::PhaseScope
// around every stage of the entry point, first-hit telemetry, the final
// trace epilogue).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/phase_scope.hpp"
#include "tac/tac.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::flow {

/// Rejects a config no flow can run: a zero sampling or optimization
/// budget, or `resume` without a session directory. Throws
/// util::ConfigError. Drivers call it before simulating anything.
void validate(const FlowConfig& config);

class CdgRunner {
 public:
  /// `duv` and `farm` must outlive the runner. Throws util::ConfigError
  /// when validate(config) does.
  CdgRunner(const duv::Duv& duv, exec::Backend& farm, FlowConfig config);

  /// Full flow. `before` is the unit's existing coverage repository (the
  /// "Before CDG" data); the coarse search mines it through TAC for the
  /// seed template, which must be one of the repository's template names
  /// resolvable in `suite_templates`. Throws util::NotFoundError when no
  /// template in the repository hits any neighbor of the target.
  [[nodiscard]] FlowResult run(const neighbors::ApproximatedTarget& target,
                               const coverage::CoverageRepository& before,
                               std::span<const tgen::TestTemplate> suite_templates);

  /// Flow from an explicit seed template, skipping the coarse search.
  /// `before_stats` (optional) only fills the report's Before column.
  [[nodiscard]] FlowResult run_from_template(
      const neighbors::ApproximatedTarget& target,
      const tgen::TestTemplate& seed_template,
      const coverage::SimStats* before_stats = nullptr,
      std::size_t before_sims = 0);

  [[nodiscard]] const FlowConfig& config() const noexcept { return config_; }

  /// Manifest snapshot of the durable session the last run used;
  /// nullopt for an ephemeral (un-sessioned) run.
  [[nodiscard]] const std::optional<SessionSummary>& session_summary()
      const noexcept {
    return session_summary_;
  }

 private:
  /// The flow proper: skeletonize -> sample -> optimize -> refine ->
  /// harvest, plus the flow-level telemetry epilogue, which ends
  /// `flow_scope` (the entry point's "flow" marker).
  [[nodiscard]] FlowResult execute(const neighbors::ApproximatedTarget& target,
                                   const tgen::TestTemplate& seed_template,
                                   const coverage::SimStats* before_stats,
                                   std::size_t before_sims, Session* session,
                                   obs::PhaseScope& flow_scope);

  /// Creates or re-opens the configured session (nullopt when
  /// FlowConfig::session_dir is empty).
  [[nodiscard]] std::optional<Session> prepare_session(
      std::span<const std::string> stage_names, std::string_view context_key);

  const duv::Duv* duv_;
  exec::Backend* farm_;
  FlowConfig config_;
  std::optional<SessionSummary> session_summary_;
};

/// The coarse-grained search in isolation: ranks the repository's
/// templates by their TAC score on the approximated target and returns
/// the best `n` names. Throws util::NotFoundError when nothing scores.
[[nodiscard]] std::vector<tac::TemplateScore> coarse_search(
    const neighbors::ApproximatedTarget& target,
    const coverage::CoverageRepository& before, std::size_t n);

}  // namespace ascdg::flow
