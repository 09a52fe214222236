// Pipeline: executes stages in order against one StageContext.
//
// Each stage it runs is marked once, here: one obs::PhaseScope named
// after the stage covers its run() and save() and is the stage's trace
// span, /runz phase and ascdg_phase_* gauges. The span carries the
// stage's simulations, measured as the farm's counter delta.
//
// With a session attached, every stage boundary is a durable
// checkpoint: the stage is marked "running" in the manifest, run, its
// artifact written atomically, then marked "done" with the scope's
// simulations and wall time (so the manifest reconciles with the
// paper's cost metric). A stage already recorded "done" is restored
// from its artifact via load() instead — restored stages cost zero
// simulations and open no scope.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flow/stage.hpp"

namespace ascdg::flow {

class Pipeline {
 public:
  Pipeline& add(std::unique_ptr<Stage> stage);

  /// Manifest stage list, in execution order.
  [[nodiscard]] std::vector<std::string> stage_names() const;

  /// Runs (or restores) every stage in order. Exceptions from a stage
  /// propagate; the session then still records the stage as "running",
  /// which a later resume treats as interrupted.
  void execute(StageContext& ctx);

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
};

}  // namespace ascdg::flow
