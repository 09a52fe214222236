#include "flow/stages.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "cdg/cdg_objective.hpp"
#include "cdg/random_sample.hpp"
#include "cdg/skeletonizer.hpp"
#include "flow/artifacts.hpp"
#include "flow/runner.hpp"
#include "tgen/file_io.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ascdg::flow {

namespace {

/// Builds the implicit-filtering options the flow config asks for; the
/// optimize and refine stages share everything but budget/seed/label.
opt::ImplicitFilteringOptions base_if_options(const FlowConfig& config) {
  opt::ImplicitFilteringOptions options;
  options.directions = config.opt_directions;
  options.initial_step = config.opt_initial_step;
  options.min_step = config.opt_min_step;
  options.max_iterations = config.opt_max_iterations;
  options.resample_center = config.opt_resample_center;
  options.direction_mode = config.opt_direction_mode;
  options.halve_patience = config.opt_halve_patience;
  options.target_value = config.opt_target_value;
  options.trace = config.trace;
  return options;
}

/// A stage journal record of `ifc`: its state with only the iteration
/// just completed as the trace, so checkpoint cost does not grow with
/// the iteration count.
OptStageCheckpoint stage_record(const opt::IfCheckpoint& ifc) {
  OptStageCheckpoint ckpt;
  ckpt.ifc.next_iteration = ifc.next_iteration;
  ckpt.ifc.center = ifc.center;
  ckpt.ifc.center_value = ifc.center_value;
  ckpt.ifc.step = ifc.step;
  ckpt.ifc.stale_rounds = ifc.stale_rounds;
  ckpt.ifc.evaluations = ifc.evaluations;
  ckpt.ifc.best_point = ifc.best_point;
  ckpt.ifc.best_value = ifc.best_value;
  ASCDG_ASSERT(!ifc.trace.empty(), "checkpoint before any iteration");
  ckpt.ifc.trace.push_back(ifc.trace.back());
  ckpt.ifc.rng_state = ifc.rng_state;
  ckpt.ifc.eval_seed_counter = ifc.eval_seed_counter;
  return ckpt;
}

coverage::SimStats merged(const coverage::SimStats& prefix,
                          const coverage::SimStats& suffix) {
  coverage::SimStats out = prefix;
  out.merge(suffix);
  return out;
}

void remove_if_exists(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// Throws util::Error naming `file` unless each of `loaded` counts hits
/// over exactly the unit's `events`: statistics read back from a
/// session must fit the unit before anything indexes them.
void check_event_counts(
    std::initializer_list<const coverage::SimStats*> loaded,
    std::size_t events, const std::filesystem::path& file) {
  for (const coverage::SimStats* stats : loaded) {
    if (stats->event_count() != events) {
      throw util::Error("artifact '" + file.string() + "' holds hit counts of " +
                        std::to_string(stats->event_count()) +
                        " events; the unit has " + std::to_string(events));
    }
  }
}

/// An optimizer stage's checkpoint journal in the session
/// (`<stage>.ckpt.jsonl`, one OptStageCheckpoint record per completed
/// iteration). Each record carries a "digest" key, the FNV-1a of the
/// record's own serialization without it: a record altered on disk that
/// still parses (one flipped digit) is an error, not a resume into a
/// different trajectory. The writer opens on the first append, after
/// the resume state has been read.
class StageJournal {
 public:
  /// Reads the journal left by an interrupted earlier attempt at
  /// `stage`. A checkpoint from before the journal (`<stage>.ckpt.json`)
  /// or a journal from before record digests is deleted instead of
  /// read, so its stage restarts from iteration 0; that is
  /// deterministic, so the result is the same.
  StageJournal(const Session& session, std::string_view stage,
               std::size_t events)
      : path_(session.artifact_path(checkpoint_journal_name(stage))) {
    const std::filesystem::path old =
        session.artifact_path(std::string(stage) + ".ckpt.json");
    if (std::filesystem::exists(old)) {
      util::log_info(stage, ": deleting pre-journal checkpoint '",
                     old.string(), "'; the stage restarts from iteration 0");
      remove_if_exists(old);
    }
    const util::Journal journal = util::read_journal(path_);
    if (!journal.records.empty() &&
        journal.records.front().find("digest") == nullptr) {
      util::log_info(stage, ": deleting journal '", path_.string(),
                     "' written before record digests; the stage restarts "
                     "from iteration 0");
      remove_if_exists(path_);
      return;
    }
    keep_bytes_ = journal.bytes;
    std::vector<opt::IterationRecord> trace;
    for (std::size_t i = 0; i < journal.records.size(); ++i) {
      try {
        resume_ = opt_stage_checkpoint_from_json(journal.records[i]);
        if (resume_->ifc.trace.size() != 1) {
          throw util::Error("record holds " +
                            std::to_string(resume_->ifc.trace.size()) +
                            " iterations, want 1");
        }
        if (parse_hex_u64(journal.records[i].at("digest")) !=
            fnv1a(to_json(*resume_))) {
          throw util::Error("record does not match its digest");
        }
        check_event_counts({&resume_->stats}, events, path_);
      } catch (const util::Error& e) {
        throw util::ParseError(
            "journal '" + path_.string() + "': " + e.what(), i + 1);
      }
      trace.push_back(resume_->ifc.trace.front());
    }
    if (resume_.has_value()) resume_->ifc.trace = std::move(trace);
  }

  /// The last record's state with the whole trace, when the journal
  /// held any record.
  [[nodiscard]] const std::optional<OptStageCheckpoint>& resume() const {
    return resume_;
  }

  /// Appends `ckpt`, a stage_record() whose trace is the iteration just
  /// completed.
  void append(const OptStageCheckpoint& ckpt) {
    std::string record = to_json(ckpt);
    record.insert(record.size() - 1,
                  ",\"digest\":\"" + hex_u64(fnv1a(record)) + "\"");
    if (!writer_.has_value()) writer_.emplace(path_, keep_bytes_);
    writer_->append(record);
  }

  /// Waits until every appended record is durable; call before the
  /// stage's save(), so its artifact never gets ahead of the journal.
  void close() {
    if (writer_.has_value()) writer_->close();
  }

 private:
  std::filesystem::path path_;
  std::uintmax_t keep_bytes_ = 0;
  std::optional<OptStageCheckpoint> resume_;
  std::optional<JournalWriter> writer_;
};

}  // namespace

// ------------------------------------------------------------- coarse --

void CoarseSearchStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  const auto ranked = coarse_search(
      *ctx.target, *ctx.before,
      std::max<std::size_t>(1, config.coarse_best_templates));
  // Resolve the ranked names to template objects and merge their
  // parameters into one seed template (paper §IV-B: "find the best n
  // test-templates that hit these events. The parameters in these
  // test-templates are selected to be the ones used in the fine-grained
  // search."). On a name clash the higher-ranked template wins.
  tgen::TestTemplate seed;
  std::vector<std::string> merged_names;
  for (const auto& candidate : ranked) {
    for (const auto& tmpl : ctx.suite_templates) {
      if (tmpl.name() != candidate.name) continue;
      merged_names.push_back(tmpl.name());
      for (const auto& param : tmpl.parameters()) {
        if (!seed.contains(parameter_name(param))) seed.add(param);
      }
      break;
    }
  }
  if (merged_names.empty()) {
    throw util::NotFoundError(
        "coarse search: none of the ranked templates ('" + ranked.front().name +
        "', ...) resolve to a known template object");
  }
  seed.set_name(util::join(merged_names, "+"));
  util::log_info("coarse search selected template(s) '", seed.name(),
                 "' (top score ", ranked.front().score, ")");
  if (config.trace != nullptr) {
    // best-k margin: how far ahead of the k-th ranked template the
    // winner is — a small margin means the coarse search was ambiguous.
    config.trace->emit(util::JsonObject{}
                            .add("event", "coarse_search")
                            .add("seed_template", seed.name())
                            .add("merged_templates", merged_names.size())
                            .add("templates_ranked", ranked.size())
                            .add("top_score", ranked.front().score)
                            .add("kth_score", ranked.back().score)
                            .add("margin",
                                 ranked.front().score - ranked.back().score));
  }
  ctx.seed_template = std::move(seed);
}

void CoarseSearchStage::save(StageContext& ctx) const {
  tgen::save_template(ctx.session->artifact_path("coarse.seed_template.tmpl"),
                      ctx.seed_template);
}

void CoarseSearchStage::load(StageContext& ctx) const {
  ctx.seed_template = tgen::load_template(
      ctx.session->artifact_path("coarse.seed_template.tmpl"));
}

// -------------------------------------------------------- skeletonize --

void SkeletonizeStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  const cdg::Skeletonizer skeletonizer(config.skeletonizer);
  result.skeleton = skeletonizer.skeletonize(ctx.seed_template);
  ctx.scope->fields().add("marks", result.skeleton.mark_count());
  util::log_info("skeletonized '", ctx.seed_template.name(), "' -> ",
                 result.skeleton.mark_count(), " marks");
  if (config.trace != nullptr) {
    config.trace->emit(util::JsonObject{}
                            .add("event", "flow_start")
                            .add("seed_template", ctx.seed_template.name())
                            .add("skeleton_marks", result.skeleton.mark_count())
                            .add("before_sims", result.before.sims));
  }
}

void SkeletonizeStage::save(StageContext& ctx) const {
  tgen::save_skeleton(ctx.session->artifact_path("skeleton.skel"),
                      ctx.result->skeleton);
}

void SkeletonizeStage::load(StageContext& ctx) const {
  ctx.result->skeleton =
      tgen::load_skeleton(ctx.session->artifact_path("skeleton.skel"));
}

// ----------------------------------------------------------- sampling --

void SampleStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  cdg::RandomSampleOptions sample_options;
  sample_options.templates = config.sample_templates;
  sample_options.sims_per_template = config.sample_sims;
  sample_options.seed = config.seed ^ 0x5A4D91E5ULL;
  result.sampling = cdg::random_sample(*ctx.duv, *ctx.farm, result.skeleton,
                                       targets_, sample_options);
  result.sampling_phase = {"Sampling phase", result.sampling.simulations,
                           result.sampling.combined};
  result.sampling_phase.wall_ms = ctx.scope->elapsed_ms();
  const double best_value = result.sampling.best.front().value;
  ctx.scope->fields()
      .add("templates", result.sampling.templates)
      .add("best_value", best_value);
  util::log_info("sampling phase: best target value ", best_value, " over ",
                 result.sampling.simulations, " sims");
}

void SampleStage::save(StageContext& ctx) const {
  write_digested_json_file(
      ctx.session->artifact_path("sampling.json"),
      util::JsonObject{}
          .add_raw("sampling", to_json(ctx.result->sampling, targets_))
          .add_raw("phase", to_json(ctx.result->sampling_phase)));
}

void SampleStage::load(StageContext& ctx) const {
  const std::filesystem::path file =
      ctx.session->artifact_path("sampling.json");
  const util::JsonValue doc = read_digested_json_file(file);
  ctx.result->sampling = sampling_from_json(doc.at("sampling"), targets_);
  ctx.result->sampling_phase = phase_outcome_from_json(doc.at("phase"));
  check_event_counts(
      {&ctx.result->sampling.combined, &ctx.result->sampling_phase.stats},
      ctx.duv->space().size(), file);
}

// ------------------------------------------------------- optimization --

void OptimizeStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  cdg::CdgObjective objective(*ctx.duv, *ctx.farm, result.skeleton,
                              *ctx.target, config.opt_sims_per_point,
                              config.trace);
  opt::ImplicitFilteringOptions if_options = base_if_options(config);
  if_options.seed = config.seed ^ seed_mix_;
  if_options.trace_label = "optimization";

  // Cost prefix from an interrupted earlier attempt at this stage (zero
  // on a fresh run): the resumed totals must look uninterrupted.
  OptStageCheckpoint prefix;
  std::optional<StageJournal> journal;
  if (ctx.session != nullptr) {
    journal.emplace(*ctx.session, name(), ctx.duv->space().size());
    if (journal->resume().has_value()) {
      prefix = *journal->resume();
      if_options.resume = &prefix.ifc;
      util::log_info("optimization: resuming from checkpoint at iteration ",
                     prefix.ifc.next_iteration, " (", prefix.sims,
                     " sims already spent)");
    }
    if_options.on_checkpoint = [&](const opt::IfCheckpoint& ifc) {
      OptStageCheckpoint ckpt = stage_record(ifc);
      ckpt.sims = prefix.sims + objective.simulations();
      ckpt.stats = merged(prefix.stats, objective.combined());
      ckpt.wall_ms = prefix.wall_ms + ctx.scope->elapsed_ms();
      journal->append(ckpt);
    };
  }

  result.optimization = opt::implicit_filtering(
      objective, result.sampling.best.front().point, if_options);
  if (journal.has_value()) journal->close();
  result.optimization_phase = {"Optimization phase",
                               prefix.sims + objective.simulations(),
                               merged(prefix.stats, objective.combined())};
  result.optimization_phase.wall_ms = prefix.wall_ms + ctx.scope->elapsed_ms();
  ctx.scope->fields()
      .add("iterations", result.optimization.trace.size())
      .add("best_value", result.optimization.best_value);
  util::log_info("optimization: ", result.optimization.trace.size(),
                 " iterations, best value ", result.optimization.best_value,
                 " (", to_string(result.optimization.reason), ")");
  ctx.best_point = result.optimization.best_point;
}

void OptimizeStage::save(StageContext& ctx) const {
  const FlowResult& result = *ctx.result;
  write_digested_json_file(
      ctx.session->artifact_path("optimization.json"),
      util::JsonObject{}
          .add_raw("optimization", to_json(result.optimization))
          .add_raw("phase", to_json(result.optimization_phase)));
  remove_if_exists(
      ctx.session->artifact_path(checkpoint_journal_name(name())));
}

void OptimizeStage::load(StageContext& ctx) const {
  const std::filesystem::path file =
      ctx.session->artifact_path("optimization.json");
  const util::JsonValue doc = read_digested_json_file(file);
  FlowResult& result = *ctx.result;
  result.optimization = opt_result_from_json(doc.at("optimization"));
  result.optimization_phase = phase_outcome_from_json(doc.at("phase"));
  check_event_counts({&result.optimization_phase.stats},
                     ctx.duv->space().size(), file);
  ctx.best_point = result.optimization.best_point;
}

// --------------------------------------------------------- refinement --

void RefineStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  // The paper's optimization phase covers implicit filtering and this
  // refinement: its outcome, restored or just computed, gets this
  // stage's sims, stats and wall time added.
  if (config.refine_with_real_target && !ctx.target->targets().empty()) {
    const neighbors::ApproximatedTarget& target = *ctx.target;
    OptStageCheckpoint prefix;
    std::optional<StageJournal> journal;
    if (ctx.session != nullptr) {
      journal.emplace(*ctx.session, name(), ctx.duv->space().size());
    }
    const bool mid_refine_resume =
        journal.has_value() && journal->resume().has_value();
    if (mid_refine_resume) {
      // The crash happened inside the refinement optimizer: the probe
      // already ran and found evidence, so skip straight to resuming it.
      prefix = *journal->resume();
      result.optimization_phase.sims = prefix.sims;
      result.optimization_phase.stats = prefix.stats;
      result.optimization_phase.wall_ms = prefix.wall_ms;
      util::log_info("refinement: resuming from checkpoint at iteration ",
                     prefix.ifc.next_iteration);
    }

    double evidence = prefix.evidence;
    if (!mid_refine_resume) {
      // Probe the optimized point for real-target evidence.
      const tgen::TestTemplate probe_tmpl =
          result.skeleton.instantiate("cdg_refine_probe", ctx.best_point);
      const coverage::SimStats probe =
          ctx.farm->run(*ctx.duv, probe_tmpl, config.opt_sims_per_point,
                        config.seed ^ 0x5EF1A37EULL);
      result.optimization_phase.sims += probe.sims();
      result.optimization_phase.stats.merge(probe);
      evidence = target.real_value(probe);
    }
    if (mid_refine_resume || evidence >= config.refine_threshold) {
      // The real objective: the target events themselves, unit weights.
      std::vector<tac::WeightedEvent> raw;
      raw.reserve(target.targets().size());
      for (const auto event : target.targets()) raw.push_back({event, 1.0});
      const neighbors::ApproximatedTarget real_target(target.targets(),
                                                      std::move(raw));
      cdg::CdgObjective refine_objective(*ctx.duv, *ctx.farm, result.skeleton,
                                         real_target, config.opt_sims_per_point,
                                         config.trace);
      opt::ImplicitFilteringOptions if_options = base_if_options(config);
      if_options.max_iterations = config.refine_max_iterations;
      if_options.seed = config.seed ^ 0x5EF15EEDULL;
      if_options.trace_label = "refinement";
      // The phase totals at the moment refinement starts — every
      // checkpoint reports these plus the refine objective's own books.
      const std::size_t base_sims = result.optimization_phase.sims;
      const coverage::SimStats base_stats = result.optimization_phase.stats;
      if (mid_refine_resume) if_options.resume = &prefix.ifc;
      if (ctx.session != nullptr) {
        if_options.on_checkpoint = [&](const opt::IfCheckpoint& ifc) {
          OptStageCheckpoint ckpt = stage_record(ifc);
          ckpt.sims = base_sims + refine_objective.simulations();
          ckpt.stats = merged(base_stats, refine_objective.combined());
          ckpt.wall_ms =
              result.optimization_phase.wall_ms + ctx.scope->elapsed_ms();
          ckpt.evidence = evidence;
          journal->append(ckpt);
        };
      }
      result.refinement = opt::implicit_filtering(refine_objective,
                                                  ctx.best_point, if_options);
      if (journal.has_value()) journal->close();
      result.optimization_phase.sims =
          base_sims + refine_objective.simulations();
      result.optimization_phase.stats =
          merged(base_stats, refine_objective.combined());
      if (result.refinement->best_value > evidence) {
        ctx.best_point = result.refinement->best_point;
      }
      util::log_info("refinement: real-objective best ",
                     result.refinement->best_value, " (evidence was ",
                     evidence, ")");
    } else {
      util::log_info("refinement skipped: real-target evidence ", evidence,
                     " below threshold ", config.refine_threshold);
    }
  }

  result.optimization_phase.wall_ms += ctx.scope->elapsed_ms();
  ctx.scope->fields().add("refined", result.refinement.has_value());
}

void RefineStage::save(StageContext& ctx) const {
  const FlowResult& result = *ctx.result;
  util::JsonObject doc;
  doc.add("refined", result.refinement.has_value());
  if (result.refinement.has_value()) {
    doc.add_raw("refinement", to_json(*result.refinement));
  }
  doc.add_raw("phase", to_json(result.optimization_phase))
      .add_raw("best_point", json_double_array(ctx.best_point));
  write_digested_json_file(ctx.session->artifact_path("refinement.json"), doc);
  remove_if_exists(
      ctx.session->artifact_path(checkpoint_journal_name(name())));
}

void RefineStage::load(StageContext& ctx) const {
  const std::filesystem::path file =
      ctx.session->artifact_path("refinement.json");
  const util::JsonValue doc = read_digested_json_file(file);
  FlowResult& result = *ctx.result;
  if (doc.at("refined").as_bool()) {
    result.refinement = opt_result_from_json(doc.at("refinement"));
  } else {
    result.refinement.reset();
  }
  result.optimization_phase = phase_outcome_from_json(doc.at("phase"));
  check_event_counts({&result.optimization_phase.stats},
                     ctx.duv->space().size(), file);
  ctx.best_point = double_array_from_json(doc.at("best_point"));
}

// ------------------------------------------------------------ harvest --

void HarvestStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  result.best_template = result.skeleton.instantiate(
      ctx.seed_template.name() + instance_suffix_, ctx.best_point);
  result.harvest_phase.name = "Running best test";
  if (config.harvest_sims > 0) {
    result.harvest_phase.stats =
        ctx.farm->run(*ctx.duv, result.best_template, config.harvest_sims,
                      config.seed ^ seed_mix_);
    result.harvest_phase.sims = config.harvest_sims;
    util::log_info("harvest: real target value ",
                   ctx.target->real_value(result.harvest_phase.stats),
                   " over ", config.harvest_sims, " sims");
  } else {
    result.harvest_phase.stats = coverage::SimStats(ctx.duv->space().size());
  }
  result.harvest_phase.wall_ms = ctx.scope->elapsed_ms();
  ctx.scope->fields().add(
      "real_value", result.harvest_phase.stats.sims() > 0
                        ? ctx.target->real_value(result.harvest_phase.stats)
                        : 0.0);
}

void HarvestStage::save(StageContext& ctx) const {
  tgen::save_template(ctx.session->artifact_path("best_template.tmpl"),
                      ctx.result->best_template);
  write_digested_json_file(
      ctx.session->artifact_path("harvest.json"),
      util::JsonObject{}.add_raw("phase", to_json(ctx.result->harvest_phase)));
}

void HarvestStage::load(StageContext& ctx) const {
  ctx.result->best_template =
      tgen::load_template(ctx.session->artifact_path("best_template.tmpl"));
  const std::filesystem::path file = ctx.session->artifact_path("harvest.json");
  const util::JsonValue doc = read_digested_json_file(file);
  ctx.result->harvest_phase = phase_outcome_from_json(doc.at("phase"));
  check_event_counts({&ctx.result->harvest_phase.stats},
                     ctx.duv->space().size(), file);
}

}  // namespace ascdg::flow
