#include "flow/campaign.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "flow/artifacts.hpp"
#include "flow/pipeline.hpp"
#include "flow/stages.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"

namespace ascdg::flow {

namespace {

/// Sub-session policy for the campaign: under --resume an existing
/// manifest is re-opened (validated + replayed), but a sub-session the
/// interrupted run never reached is created fresh — a campaign killed
/// while optimizing target 7 has no manifests for targets 8..n yet.
Session open_or_create(const std::filesystem::path& dir, bool resume,
                       std::uint64_t fingerprint, std::uint64_t seed,
                       std::span<const std::string> stage_names) {
  if (resume && std::filesystem::exists(dir / "manifest.json")) {
    return Session::open(dir, fingerprint, stage_names);
  }
  return Session::create(dir, fingerprint, seed, stage_names);
}

/// Two-digit directory names keep `ls` of a campaign root in target
/// order for up to 100 targets (beyond that they still sort per-width).
std::string target_dir_name(std::size_t t) {
  std::string num = std::to_string(t);
  if (num.size() < 2) num.insert(0, "0");
  return "target_" + num;
}

void write_campaign_manifest(const std::filesystem::path& path,
                             std::uint64_t fingerprint, std::uint64_t seed,
                             std::size_t targets) {
  atomic_write_file(path, util::JsonObject{}
                              .add("schema", kCampaignSchema)
                              .add("fingerprint", hex_u64(fingerprint))
                              .add("seed", hex_u64(seed))
                              .add("targets", targets)
                              .str() +
                              "\n");
}

void validate_campaign_manifest(const std::filesystem::path& path,
                                std::uint64_t fingerprint,
                                std::size_t targets) {
  const util::JsonValue doc = read_digested_json_file(path);
  if (doc.at("schema").as_string() != kCampaignSchema) {
    throw util::ConfigError("campaign manifest " + path.string() +
                            ": unknown schema '" + doc.at("schema").as_string() +
                            "' (expected '" + std::string(kCampaignSchema) +
                            "')");
  }
  if (parse_hex_u64(doc.at("fingerprint")) != fingerprint) {
    throw util::ConfigError(
        "campaign manifest " + path.string() +
        ": config fingerprint mismatch — the checkpoints in this directory "
        "were produced by a different configuration");
  }
  if (doc.at("targets").as_size() != targets) {
    throw util::ConfigError("campaign manifest " + path.string() +
                            ": target count mismatch (manifest has " +
                            std::to_string(doc.at("targets").as_size()) +
                            ", this run has " + std::to_string(targets) + ")");
  }
}

}  // namespace

MultiTargetResult run_multi_target(
    const duv::Duv& duv, exec::Backend& farm, const FlowConfig& config,
    std::span<const neighbors::ApproximatedTarget> targets,
    const tgen::TestTemplate& seed_template) {
  if (targets.empty()) {
    throw util::ConfigError("multi-target flow needs at least one target");
  }
  // Reuse the runner's budget/session validation.
  const CdgRunner runner(duv, farm, config);

  MultiTargetResult result;
  const bool durable = !config.session_dir.empty();
  const std::filesystem::path root = config.session_dir;
  if (durable) {
    result.session_dir = config.session_dir;
    // Sub-sessions reap their own directories on open/create; the
    // campaign root (campaign.json lives here) is ours to clean.
    util::remove_stale_tmp_files(root);
    const std::uint64_t campaign_fp = config_fingerprint(
        config, "campaign:" + std::to_string(targets.size()));
    const std::filesystem::path manifest = root / "campaign.json";
    if (config.resume && std::filesystem::exists(manifest)) {
      validate_campaign_manifest(manifest, campaign_fp, targets.size());
      util::log_info("campaign: resuming '", config.session_dir, "' with ",
                     targets.size(), " targets");
    } else {
      write_campaign_manifest(manifest, campaign_fp, config.seed,
                              targets.size());
    }
  }

  // --- Shared phases: skeletonize once, sample once ---------------------
  const std::vector<std::string> shared_stages = {"skeletonize", "sampling"};
  std::optional<Session> shared_session;
  if (durable) {
    shared_session = open_or_create(
        root / "shared", config.resume,
        config_fingerprint(config, "campaign-shared"), config.seed,
        shared_stages);
  }
  FlowResult shared;
  shared.seed_template = seed_template.name();
  StageContext shared_ctx;
  shared_ctx.duv = &duv;
  shared_ctx.farm = &farm;
  shared_ctx.config = &config;
  shared_ctx.session = shared_session.has_value() ? &*shared_session : nullptr;
  shared_ctx.result = &shared;
  shared_ctx.seed_template = seed_template;
  Pipeline shared_pipeline;
  shared_pipeline.add(std::make_unique<SkeletonizeStage>())
      .add(std::make_unique<SampleStage>(targets));
  shared_pipeline.execute(shared_ctx);
  result.sampling = std::move(shared.sampling);
  util::log_info("multi-target: shared sampling of ",
                 result.sampling.simulations, " sims for ", targets.size(),
                 " targets");
  if (shared_session.has_value()) {
    result.sessions.push_back(shared_session->summary());
  }

  // --- Per-target optimization + harvest --------------------------------
  const std::vector<std::string> target_stages = {"optimization", "refinement",
                                                  "harvest"};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto& target = targets[t];
    FlowResult flow;
    flow.seed_template = seed_template.name();
    flow.skeleton = shared.skeleton;
    flow.before.name = "Before CDG";
    flow.before.stats = coverage::SimStats(duv.space().size());

    // The target's own best sample is its optimizer's start.
    flow.sampling = {result.sampling.templates,
                     result.sampling.sims_per_template, result.sampling.combined,
                     result.sampling.simulations, {result.sampling.best[t]}};
    // Attribute the shared cost once (to the first target).
    flow.sampling_phase = {"Sampling phase",
                           t == 0 ? result.sampling.simulations : 0,
                           result.sampling.combined};

    std::optional<Session> target_session;
    if (durable) {
      target_session = open_or_create(
          root / target_dir_name(t), config.resume,
          config_fingerprint(config, "campaign-target-" + std::to_string(t)),
          config.seed, target_stages);
    }

    StageContext ctx;
    ctx.duv = &duv;
    ctx.farm = &farm;
    ctx.config = &config;
    ctx.target = &target;
    ctx.session = target_session.has_value() ? &*target_session : nullptr;
    ctx.result = &flow;
    ctx.seed_template = seed_template;
    Pipeline per_target;
    per_target.add(std::make_unique<OptimizeStage>(0x3417A00ULL + t))
        .add(std::make_unique<RefineStage>())
        .add(std::make_unique<HarvestStage>(
            0x4A12E00ULL + t, "_cdg_best_t" + std::to_string(t)));
    per_target.execute(ctx);

    if (target_session.has_value()) {
      result.sessions.push_back(target_session->summary());
    }
    result.per_target.push_back(std::move(flow));
  }

  result.sims_saved =
      (targets.size() - 1) * result.sampling.simulations;
  return result;
}

}  // namespace ascdg::flow
