#include "flow/runner.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "flow/pipeline.hpp"
#include "flow/stages.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_scope.hpp"
#include "obs/resource.hpp"
#include "obs/run_state.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"

namespace ascdg::flow {

namespace {

/// Per-target-event closure telemetry: the first flow phase whose
/// cumulative coverage hit each real target event.
std::vector<FirstHit> compute_first_hits(
    const neighbors::ApproximatedTarget& target, const FlowResult& result) {
  std::vector<FirstHit> out;
  out.reserve(target.targets().size());
  const std::array<std::pair<const char*, const coverage::SimStats*>, 4>
      phases{{{"before", &result.before.stats},
              {"sampling", &result.sampling_phase.stats},
              {"optimization", &result.optimization_phase.stats},
              {"harvest", &result.harvest_phase.stats}}};
  for (const auto event : target.targets()) {
    const char* first = "never";
    for (const auto& [name, stats] : phases) {
      if (stats->sims() != 0 && event.value < stats->event_count() &&
          stats->hits(event) > 0) {
        first = name;
        break;
      }
    }
    out.push_back({event, first});
  }
  return out;
}

/// The session stage lists of the two entry points. The manifest
/// records the full list so a resume can verify it is replaying the
/// same pipeline shape it left behind.
const std::vector<std::string> kRunStages = {
    "coarse",       "skeletonize", "sampling",
    "optimization", "refinement",  "harvest"};
const std::vector<std::string> kTemplateStages = {
    "skeletonize", "sampling", "optimization", "refinement", "harvest"};

}  // namespace

void validate(const FlowConfig& config) {
  if (config.sample_templates == 0 || config.sample_sims == 0) {
    throw util::ConfigError("flow config: sampling budget must be non-zero");
  }
  if (config.opt_directions == 0 || config.opt_sims_per_point == 0) {
    throw util::ConfigError("flow config: optimization budget must be non-zero");
  }
  if (config.resume && config.session_dir.empty()) {
    throw util::ConfigError("flow config: resume requires a session directory");
  }
}

CdgRunner::CdgRunner(const duv::Duv& duv, exec::Backend& farm,
                     FlowConfig config)
    : duv_(&duv), farm_(&farm), config_(std::move(config)) {
  validate(config_);
}

std::vector<tac::TemplateScore> coarse_search(
    const neighbors::ApproximatedTarget& target,
    const coverage::CoverageRepository& before, std::size_t n) {
  const tac::Tac tac_view(before);
  auto ranked = tac_view.best_templates(target.events(), n);
  if (ranked.empty()) {
    throw util::NotFoundError(
        "coarse search: no existing template hits any neighbor of the target");
  }
  return ranked;
}

std::optional<Session> CdgRunner::prepare_session(
    std::span<const std::string> stage_names, std::string_view context_key) {
  if (config_.session_dir.empty()) return std::nullopt;
  const std::uint64_t fingerprint =
      config_fingerprint(config_, context_key);
  if (config_.resume) {
    Session session =
        Session::open(config_.session_dir, fingerprint, stage_names);
    obs::run_state().set_resumed_from(session.resumed_from());
    util::log_info("session: resumed '", config_.session_dir, "' from '",
                   session.resumed_from(), "' (resume #", session.resumes(),
                   ")");
    return session;
  }
  return Session::create(config_.session_dir, fingerprint, config_.seed,
                         stage_names);
}

FlowResult CdgRunner::run(const neighbors::ApproximatedTarget& target,
                          const coverage::CoverageRepository& before,
                          std::span<const tgen::TestTemplate> suite_templates) {
  std::optional<Session> session = prepare_session(kRunStages, "run");
  obs::PhaseScope flow_scope(config_.trace, "flow");

  // Coarse selection runs through the pipeline too, so a session
  // checkpoints (and a resume skips) the template-merging work.
  FlowResult scratch;
  StageContext selection_ctx;
  selection_ctx.duv = duv_;
  selection_ctx.farm = farm_;
  selection_ctx.config = &config_;
  selection_ctx.target = &target;
  selection_ctx.session = session.has_value() ? &*session : nullptr;
  selection_ctx.result = &scratch;
  selection_ctx.before = &before;
  selection_ctx.suite_templates = suite_templates;
  Pipeline selection;
  selection.add(std::make_unique<CoarseSearchStage>());
  selection.execute(selection_ctx);

  const coverage::SimStats before_total = before.total();
  if (config_.expand_target_by_correlation) {
    // Deterministic given the repository and config, so a resumed run
    // recomputes the same expansion the interrupted run used.
    const neighbors::CorrelationExpansion expansion(
        before, config_.correlation_min_similarity);
    const auto expanded = expansion.expand(target);
    util::log_info("correlation expansion: ", target.events().size(), " -> ",
                   expanded.events().size(), " objective events");
    return execute(expanded, selection_ctx.seed_template, &before_total,
                   before.total_sims(),
                   session.has_value() ? &*session : nullptr, flow_scope);
  }
  return execute(target, selection_ctx.seed_template, &before_total,
                 before.total_sims(),
                 session.has_value() ? &*session : nullptr, flow_scope);
}

FlowResult CdgRunner::run_from_template(
    const neighbors::ApproximatedTarget& target,
    const tgen::TestTemplate& seed_template,
    const coverage::SimStats* before_stats, std::size_t before_sims) {
  std::optional<Session> session = prepare_session(
      kTemplateStages, "template:" + std::string(seed_template.name()));
  obs::PhaseScope flow_scope(config_.trace, "flow");
  return execute(target, seed_template, before_stats, before_sims,
                 session.has_value() ? &*session : nullptr, flow_scope);
}

FlowResult CdgRunner::execute(const neighbors::ApproximatedTarget& target,
                              const tgen::TestTemplate& seed_template,
                              const coverage::SimStats* before_stats,
                              std::size_t before_sims, Session* session,
                              obs::PhaseScope& flow_scope) {
  FlowResult result;
  result.seed_template = seed_template.name();

  result.before.name = "Before CDG";
  if (before_stats != nullptr) {
    result.before.stats = *before_stats;
    result.before.sims = before_sims != 0 ? before_sims : before_stats->sims();
  } else {
    result.before.stats = coverage::SimStats(duv_->space().size());
  }

  obs::run_state().start_flow(seed_template.name());
  flow_scope.fields().add("seed_template", seed_template.name());

  StageContext ctx;
  ctx.duv = duv_;
  ctx.farm = farm_;
  ctx.config = &config_;
  ctx.target = &target;
  ctx.session = session;
  ctx.result = &result;
  ctx.seed_template = seed_template;

  Pipeline flow;
  flow.add(std::make_unique<SkeletonizeStage>())
      .add(std::make_unique<SampleStage>(std::span(&target, 1)))
      .add(std::make_unique<OptimizeStage>())
      .add(std::make_unique<RefineStage>())
      .add(std::make_unique<HarvestStage>());
  flow.execute(ctx);

  // --- Per-event closure telemetry -----------------------------------------
  result.first_hits = compute_first_hits(target, result);
  std::size_t events_hit = 0;
  for (const auto& hit : result.first_hits) {
    if (hit.phase != "never") ++events_hit;
    if (config_.trace != nullptr) {
      config_.trace->emit(util::JsonObject{}
                              .add("event", "first_hit")
                              .add("event_id", hit.event.value)
                              .add("phase", hit.phase));
    }
  }
  if (!result.first_hits.empty()) {
    obs::Registry& reg = obs::registry();
    reg.gauge("ascdg_flow_target_events_hit").set(
        static_cast<std::int64_t>(events_hit));
    reg.gauge("ascdg_flow_target_events_remaining")
        .set(static_cast<std::int64_t>(result.first_hits.size() - events_hit));
    obs::run_state().set_coverage(events_hit,
                                  result.first_hits.size() - events_hit);
  }
  obs::update_resource_gauges(obs::registry());

  const double flow_wall_ms = flow_scope.elapsed_ms();
  flow_scope.fields()
      .add("flow_sims", result.flow_sims())
      .add("target_events", result.first_hits.size())
      .add("target_events_hit", events_hit);
  flow_scope.end();

  if (config_.trace != nullptr) {
    const exec::TelemetrySnapshot farm_stats = farm_->telemetry();
    config_.trace->emit(
        util::JsonObject{}
            .add("event", "flow_end")
            .add("flow_sims", result.flow_sims())
            .add("wall_ms", flow_wall_ms)
            .add("target_events", result.first_hits.size())
            .add("target_events_hit", events_hit)
            .add("farm_total_sims", farm_stats.simulations)
            .add("farm_chunks", farm_stats.chunks)
            .add("farm_mean_chunk_us", farm_stats.mean_chunk_us()));
  }

  if (session != nullptr) {
    session_summary_ = session->summary();
  } else {
    session_summary_.reset();
  }
  return result;
}

}  // namespace ascdg::flow
