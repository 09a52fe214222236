// The Stage interface of the flow engine.
//
// The paper's flow is a fixed sequence of stages (coarse search,
// skeletonize, sample, optimize, refine, harvest), each owning three
// responsibilities:
//
//   run()  — do the work: simulate, mutate the shared StageContext, and
//            set the stage's PhaseOutcome::wall_ms from
//            ctx.scope->elapsed_ms(). flow::Pipeline marks the stage:
//            it opens the one obs::PhaseScope (trace span, /runz phase,
//            ascdg_phase_* gauges) around run() and save(), and puts
//            the stage's farm sims on the span; run() only adds the
//            stage's details to ctx.scope->fields().
//   save() — persist the stage's output as a session artifact
//            (atomic write; only called when a session is attached).
//   load() — reconstruct the stage's output from its artifact instead
//            of re-simulating (resume path; loaded stages are silent —
//            they cost zero simulations and emit no telemetry).
#pragma once

#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/phase_scope.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::flow {

/// Everything a stage can read or produce. One context instance lives
/// for the duration of a pipeline execution; stages communicate only
/// through it (and through the FlowResult it points at).
struct StageContext {
  const duv::Duv* duv = nullptr;
  exec::Backend* farm = nullptr;
  const FlowConfig* config = nullptr;
  const neighbors::ApproximatedTarget* target = nullptr;
  /// nullptr for an ephemeral (un-sessioned) run.
  Session* session = nullptr;
  FlowResult* result = nullptr;

  // Coarse-search inputs (only set by CdgRunner::run).
  const coverage::CoverageRepository* before = nullptr;
  std::span<const tgen::TestTemplate> suite_templates{};

  /// The seed template the flow skeletonizes — produced by the coarse
  /// stage or supplied by run_from_template.
  tgen::TestTemplate seed_template;

  /// Hand-off from optimize through refine to harvest: the point the
  /// best template is instantiated from.
  std::vector<double> best_point;

  /// The marker of the stage being run; set by Pipeline::execute for
  /// the duration of the stage's run() and save().
  obs::PhaseScope* scope = nullptr;
};

class Stage {
 public:
  virtual ~Stage() = default;

  /// Stable stage name: the manifest key, the artifact-file prefix, and
  /// the stage's span name, /runz phase and ascdg_phase_* label.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  virtual void run(StageContext& ctx) = 0;
  virtual void save(StageContext& ctx) const = 0;
  virtual void load(StageContext& ctx) const = 0;
};

}  // namespace ascdg::flow
