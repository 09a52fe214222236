#include "flow/pipeline.hpp"

#include "util/log.hpp"

namespace ascdg::flow {

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  return names;
}

void Pipeline::execute(StageContext& ctx) {
  const auto farm_sims = [&ctx] {
    return ctx.farm != nullptr ? ctx.farm->total_simulations() : 0;
  };
  for (const auto& stage : stages_) {
    const std::string name(stage->name());
    if (ctx.session != nullptr && ctx.session->stage_done(name)) {
      stage->load(ctx);
      util::log_info("session: stage '", name,
                     "' restored from checkpoint (0 simulations)");
      continue;
    }
    if (ctx.session != nullptr) ctx.session->mark_running(name);
    const std::size_t sims_before = farm_sims();
    obs::PhaseScope scope(ctx.config->trace, name);
    ctx.scope = &scope;
    try {
      stage->run(ctx);
      if (ctx.session != nullptr) stage->save(ctx);
    } catch (...) {
      ctx.scope = nullptr;  // the scope ends with this frame
      throw;
    }
    ctx.scope = nullptr;
    const std::size_t sims = farm_sims() - sims_before;
    const double wall_ms = scope.elapsed_ms();
    scope.fields().add("sims", sims);
    scope.end();
    if (ctx.session != nullptr) ctx.session->mark_done(name, sims, wall_ms);
  }
}

}  // namespace ascdg::flow
