// Tests for the flow engine's durable sessions: artifact JSON
// round-trips, manifest lifecycle and rejection paths, config
// fingerprinting, resume-without-resimulation for single runs and
// campaigns, bit-identical optimizer restart from a serialized
// checkpoint, the restart of a stage whose checkpoint predates the
// journal, the resume-journal and artifact fuzzes, the stage spans
// against the manifest ledger, and the run / run_from_template
// shared-tail regression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdg/cdg_objective.hpp"
#include "exec/thread_farm.hpp"
#include "coverage/repository.hpp"
#include "duv/io_unit.hpp"
#include "flow/artifacts.hpp"
#include "flow/campaign.hpp"
#include "flow/runner.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/trace.hpp"
#include "opt/implicit_filtering.hpp"
#include "opt/synthetic.hpp"
#include "tgen/file_io.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace ascdg::flow {
namespace {

namespace fs = std::filesystem;
using util::ConfigError;
using util::Error;
using util::ParseError;

/// Fresh scratch directory under the system temp dir, wiped on entry so
/// reruns start clean. Unique per test to keep gtest shuffling safe.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_flow_test_" + name);
  fs::remove_all(dir);
  return dir;
}

// ----------------------------------------------------------- artifacts --

TEST(Artifacts, HexU64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEFCAFEBABE},
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    const std::string text = hex_u64(v);
    EXPECT_EQ(text.size(), 18u);
    EXPECT_TRUE(text.starts_with("0x"));
    EXPECT_EQ(parse_hex_u64(util::json_parse("\"" + text + "\"")), v);
  }
  // Malformed inputs: wrong length, missing prefix, non-hex digits.
  EXPECT_THROW((void)parse_hex_u64(util::json_parse(R"("0x123")")), Error);
  EXPECT_THROW(
      (void)parse_hex_u64(util::json_parse(R"("zz0123456789abcdef")")), Error);
  EXPECT_THROW(
      (void)parse_hex_u64(util::json_parse(R"("0x0123456789abcdeg")")), Error);
  EXPECT_THROW((void)parse_hex_u64(util::json_parse("42")), Error);
}

TEST(Artifacts, SimStatsRoundTrip) {
  const auto stats = coverage::SimStats::from_counts(10, {3, 0, 7, 10});
  const auto parsed = sim_stats_from_json(util::json_parse(to_json(stats)));
  EXPECT_EQ(parsed, stats);
  // Empty accumulator round-trips too.
  const coverage::SimStats empty(5);
  EXPECT_EQ(sim_stats_from_json(util::json_parse(to_json(empty))), empty);
}

TEST(Artifacts, PhaseOutcomeRoundTrip) {
  PhaseOutcome phase;
  phase.name = "sampling";
  phase.sims = 4000;
  phase.wall_ms = 123.456789;
  phase.stats = coverage::SimStats::from_counts(4000, {17, 0, 4000});
  const auto parsed =
      phase_outcome_from_json(util::json_parse(to_json(phase)));
  EXPECT_EQ(parsed.name, phase.name);
  EXPECT_EQ(parsed.sims, phase.sims);
  EXPECT_EQ(parsed.wall_ms, phase.wall_ms);  // bit-identical
  EXPECT_EQ(parsed.stats, phase.stats);
}

/// Targets on events 0 and 1 of a two-event space.
std::vector<neighbors::ApproximatedTarget> two_targets() {
  const coverage::EventId e0{0};
  const coverage::EventId e1{1};
  return {neighbors::ApproximatedTarget({e0}, {{e0, 1.0}}),
          neighbors::ApproximatedTarget({e1}, {{e1, 0.5}, {e0, 0.25}})};
}

TEST(Artifacts, SamplingRoundTrip) {
  const auto targets = two_targets();
  cdg::RandomSampleResult sampling;
  sampling.templates = 3;
  sampling.sims_per_template = 20;
  sampling.best = {{2, 0.07 * 2, {0.2, 1.0 / 3.0, 0.999999999999}},
                   {0, 1.0 / 7.0, {0.0, 0.5, 1e-12}}};
  sampling.combined = coverage::SimStats::from_counts(60, {3, 60});
  sampling.simulations = 60;

  const auto parsed = sampling_from_json(
      util::json_parse(to_json(sampling, targets)), targets);
  EXPECT_EQ(parsed.templates, 3u);
  EXPECT_EQ(parsed.sims_per_template, 20u);
  ASSERT_EQ(parsed.best.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(parsed.best[t].index, sampling.best[t].index);
    EXPECT_EQ(parsed.best[t].value, sampling.best[t].value);  // bit-identical
    EXPECT_EQ(parsed.best[t].point, sampling.best[t].point);
  }
  EXPECT_EQ(parsed.combined, sampling.combined);
  EXPECT_EQ(parsed.simulations, 60u);

  // It records the targets it scored: other ones are a config error.
  auto other = targets;
  other[1] = other[0];
  EXPECT_THROW((void)sampling_from_json(
                   util::json_parse(to_json(sampling, targets)), other),
               ConfigError);
}

TEST(Artifacts, SamplingJsonKeepsTheLayoutSessionsHold) {
  // Sessions written before the phase kept only scores hold every
  // sample's point, score and stats; the reader re-scores those stats
  // against this run's targets, ties to the lowest index.
  const auto targets = two_targets();
  const std::vector<coverage::SimStats> stats{
      coverage::SimStats::from_counts(4, {0, 0}),
      coverage::SimStats::from_counts(4, {2, 1}),
      coverage::SimStats::from_counts(4, {2, 3}),
  };
  std::string samples = "[";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i != 0) samples += ',';
    const std::vector<double> point{0.25 * static_cast<double>(i), 1.0 / 3.0};
    samples += util::JsonObject{}
                   .add_raw("point", json_double_array(point))
                   .add("target_value", 0.5)
                   .add_raw("stats", to_json(stats[i]))
                   .str();
  }
  samples += ']';
  const std::string layout =
      util::JsonObject{}
          .add_raw("samples", samples)
          .add("best_index", 0)
          .add_raw("combined",
                   to_json(coverage::SimStats::from_counts(12, {4, 4})))
          .add("simulations", 12)
          .str();

  const auto parsed = sampling_from_json(util::json_parse(layout), targets);
  EXPECT_EQ(parsed.templates, 3u);
  EXPECT_EQ(parsed.sims_per_template, 4u);
  EXPECT_EQ(parsed.simulations, 12u);
  EXPECT_EQ(parsed.combined, coverage::SimStats::from_counts(12, {4, 4}));
  ASSERT_EQ(parsed.best.size(), 2u);
  EXPECT_EQ(parsed.best[0].index, 1u);  // ties with sample 2
  EXPECT_EQ(parsed.best[0].value, 0.5);
  EXPECT_EQ(parsed.best[0].point, (std::vector<double>{0.25, 1.0 / 3.0}));
  EXPECT_EQ(parsed.best[1].index, 2u);
  EXPECT_EQ(parsed.best[1].value, 0.5 * 0.75 + 0.25 * 0.5);

  // Its stats must cover the targets' events.
  const std::vector<neighbors::ApproximatedTarget> wide{
      neighbors::ApproximatedTarget({coverage::EventId{5}},
                                    {{coverage::EventId{5}, 1.0}})};
  EXPECT_THROW((void)sampling_from_json(util::json_parse(layout), wide),
               Error);
}

TEST(Artifacts, SamplingRejectsBestIndexOutOfRange) {
  const auto targets = two_targets();
  cdg::RandomSampleResult sampling;
  sampling.templates = 1;
  sampling.combined = coverage::SimStats(2);
  sampling.best = {{0, 0.0, {0.5}}, {7, 0.0, {0.5}}};
  const auto parse = [&](std::span<const neighbors::ApproximatedTarget> ts) {
    return sampling_from_json(util::json_parse(to_json(sampling, ts)), ts);
  };
  EXPECT_THROW((void)parse(targets), Error);
  // One best sample per target, no more and no fewer.
  sampling.best.pop_back();
  EXPECT_THROW((void)parse(targets), Error);
  EXPECT_NO_THROW((void)parse(std::span(targets).first(1)));
}

TEST(Artifacts, OptResultRoundTrip) {
  opt::OptResult result;
  result.best_point = {1.0 / 3.0, 0.25, 1e-12};
  result.best_value = 6.02214076e-2;
  result.evaluations = 321;
  result.reason = opt::StopReason::kTargetReached;
  for (std::size_t i = 0; i < 3; ++i) {
    const double x = static_cast<double>(i);
    opt::IterationRecord record;
    record.iteration = i;
    record.center_value = 0.1 * x;
    record.best_value = 0.1 * x + 0.05;
    record.step = 0.4 / (x + 1.0);
    record.evaluations = 10 * (i + 1);
    record.moved = (i % 2) == 0;
    record.resamples = i % 2;
    record.halved = i == 2;
    result.trace.push_back(record);
  }
  const auto parsed = opt_result_from_json(util::json_parse(to_json(result)));
  EXPECT_EQ(parsed.best_point, result.best_point);
  EXPECT_EQ(parsed.best_value, result.best_value);
  EXPECT_EQ(parsed.evaluations, result.evaluations);
  EXPECT_EQ(parsed.reason, result.reason);
  ASSERT_EQ(parsed.trace.size(), result.trace.size());
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(parsed.trace[i].iteration, result.trace[i].iteration);
    EXPECT_EQ(parsed.trace[i].center_value, result.trace[i].center_value);
    EXPECT_EQ(parsed.trace[i].best_value, result.trace[i].best_value);
    EXPECT_EQ(parsed.trace[i].step, result.trace[i].step);
    EXPECT_EQ(parsed.trace[i].evaluations, result.trace[i].evaluations);
    EXPECT_EQ(parsed.trace[i].moved, result.trace[i].moved);
    EXPECT_EQ(parsed.trace[i].resamples, result.trace[i].resamples);
    EXPECT_EQ(parsed.trace[i].halved, result.trace[i].halved);
  }
}

TEST(Artifacts, CheckpointRoundTripPreservesRawRngState) {
  opt::IfCheckpoint ckpt;
  ckpt.next_iteration = 4;
  ckpt.center = {0.5, 1.0 / 7.0};
  ckpt.center_value = 0.123456789012345678;
  ckpt.step = 0.05;
  ckpt.stale_rounds = 2;
  ckpt.evaluations = 99;
  ckpt.best_point = {0.75, 0.25};
  ckpt.best_value = 0.987654321;
  // RNG words exceed 2^53 — they must survive via the hex encoding.
  ckpt.rng_state = {0xFFFFFFFFFFFFFFFFULL, 0x8000000000000001ULL,
                    0xDEADBEEFCAFEBABEULL, 1ULL};
  ckpt.eval_seed_counter = 0x123456789ABCDEF0ULL;
  opt::IterationRecord record;
  record.iteration = 3;
  record.best_value = 0.9;
  ckpt.trace.push_back(record);

  const auto parsed = checkpoint_from_json(util::json_parse(to_json(ckpt)));
  EXPECT_EQ(parsed.next_iteration, ckpt.next_iteration);
  EXPECT_EQ(parsed.center, ckpt.center);
  EXPECT_EQ(parsed.center_value, ckpt.center_value);
  EXPECT_EQ(parsed.step, ckpt.step);
  EXPECT_EQ(parsed.stale_rounds, ckpt.stale_rounds);
  EXPECT_EQ(parsed.evaluations, ckpt.evaluations);
  EXPECT_EQ(parsed.best_point, ckpt.best_point);
  EXPECT_EQ(parsed.best_value, ckpt.best_value);
  EXPECT_EQ(parsed.rng_state, ckpt.rng_state);
  EXPECT_EQ(parsed.eval_seed_counter, ckpt.eval_seed_counter);
  ASSERT_EQ(parsed.trace.size(), 1u);
  EXPECT_EQ(parsed.trace[0].iteration, 3u);
}

TEST(Artifacts, DoubleArrayRoundTripsNaNAsNull) {
  const std::vector<double> values = {0.0, -1.5, std::nan("")};
  const std::string text = json_double_array(values);
  EXPECT_NE(text.find("null"), std::string::npos);
  const auto parsed = double_array_from_json(util::json_parse(text));
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], 0.0);
  EXPECT_EQ(parsed[1], -1.5);
  EXPECT_TRUE(std::isnan(parsed[2]));
}

TEST(Artifacts, ReadJsonFileErrors) {
  const fs::path dir = scratch_dir("read_json");
  EXPECT_THROW((void)read_digested_json_file(dir / "missing.json"), Error);
  atomic_write_file(dir / "bad.json", "{\"a\": not json");
  EXPECT_THROW((void)read_digested_json_file(dir / "bad.json"), ParseError);
  atomic_write_file(dir / "good.json", R"({"a": 1})");
  EXPECT_EQ(read_digested_json_file(dir / "good.json").at("a").as_int64(), 1);
}

// ------------------------------------------------------------- session --

TEST(Session, AtomicWriteCreatesParentsAndReplaces) {
  const fs::path dir = scratch_dir("atomic");
  const fs::path file = dir / "deep" / "nested" / "artifact.json";
  atomic_write_file(file, "first");
  atomic_write_file(file, "second");
  std::ifstream is(file);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // No temp-file droppings left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(file.parent_path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

std::vector<std::string> stage_names() {
  return {"skeletonize", "sampling", "optimization"};
}

TEST(Session, CreateMarkResumeLifecycle) {
  const fs::path dir = scratch_dir("lifecycle");
  const auto names = stage_names();
  Session session = Session::create(dir, 0xFEEDULL, 2021, names);
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_EQ(session.resumes(), 0u);
  EXPECT_FALSE(session.stage_done("skeletonize"));

  session.mark_running("skeletonize");
  session.mark_done("skeletonize", 0, 1.5);
  session.mark_running("sampling");
  session.mark_done("sampling", 400, 20.25);
  session.mark_running("optimization");  // in flight at the "crash"

  Session resumed = Session::open(dir, 0xFEEDULL, names);
  EXPECT_EQ(resumed.resumes(), 1u);
  EXPECT_EQ(resumed.resumed_from(), "sampling");
  EXPECT_TRUE(resumed.stage_done("skeletonize"));
  EXPECT_TRUE(resumed.stage_done("sampling"));
  EXPECT_FALSE(resumed.stage_done("optimization"));
  ASSERT_EQ(resumed.stages().size(), 3u);
  EXPECT_EQ(resumed.stages()[1].sims, 400u);
  EXPECT_EQ(resumed.stages()[1].wall_ms, 20.25);
  EXPECT_EQ(resumed.stages()[2].status, "running");
  EXPECT_EQ(resumed.seed(), 2021u);
  EXPECT_EQ(resumed.fingerprint(), 0xFEEDULL);

  const auto summary = resumed.summary();
  EXPECT_EQ(summary.dir, dir.string());
  EXPECT_EQ(summary.resumes, 1u);
  EXPECT_EQ(summary.resumed_from, "sampling");
}

TEST(Session, ResumeBeforeAnyStageReportsNone) {
  const fs::path dir = scratch_dir("resume_none");
  const auto names = stage_names();
  (void)Session::create(dir, 1, 2, names);
  const Session resumed = Session::open(dir, 1, names);
  EXPECT_EQ(resumed.resumed_from(), "none");
}

TEST(Session, CreateOverwritesExistingManifest) {
  const fs::path dir = scratch_dir("recreate");
  const auto names = stage_names();
  Session first = Session::create(dir, 1, 2, names);
  first.mark_done("skeletonize", 0, 1.0);
  const Session second = Session::create(dir, 1, 2, names);
  EXPECT_FALSE(second.stage_done("skeletonize"));  // started over
  EXPECT_EQ(second.resumes(), 0u);
}

TEST(Session, OpenRejectsMissingManifest) {
  const fs::path dir = scratch_dir("no_manifest");
  fs::create_directories(dir);
  EXPECT_THROW((void)Session::open(dir, 1, stage_names()), Error);
}

TEST(Session, OpenRejectsCorruptManifest) {
  const fs::path dir = scratch_dir("corrupt");
  (void)Session::create(dir, 1, 2, stage_names());
  atomic_write_file(dir / "manifest.json", "{\"schema\": \"ascdg-ses");
  EXPECT_THROW((void)Session::open(dir, 1, stage_names()), ParseError);
}

TEST(Session, OpenRejectsFingerprintMismatch) {
  const fs::path dir = scratch_dir("fingerprint");
  (void)Session::create(dir, 0xAAAAULL, 2, stage_names());
  EXPECT_THROW((void)Session::open(dir, 0xBBBBULL, stage_names()),
               ConfigError);
}

TEST(Session, OpenRejectsStageListMismatch) {
  const fs::path dir = scratch_dir("stage_list");
  (void)Session::create(dir, 1, 2, stage_names());
  const std::vector<std::string> other{"skeletonize", "sampling"};
  EXPECT_THROW((void)Session::open(dir, 1, other), ConfigError);
}

TEST(Session, FingerprintTracksTrajectoryNotTelemetry) {
  FlowConfig config;
  const std::uint64_t base = config_fingerprint(config, "run");

  // Trajectory-affecting knobs change the fingerprint.
  FlowConfig seeded = config;
  seeded.seed = 999;
  EXPECT_NE(config_fingerprint(seeded, "run"), base);
  FlowConfig budget = config;
  budget.sample_templates += 1;
  EXPECT_NE(config_fingerprint(budget, "run"), base);
  FlowConfig refine = config;
  refine.refine_with_real_target = !refine.refine_with_real_target;
  EXPECT_NE(config_fingerprint(refine, "run"), base);

  // The context key (unit / target identity) is part of the question.
  EXPECT_NE(config_fingerprint(config, "template:other"), base);

  // Telemetry and session plumbing are resumable-legal to toggle.
  FlowConfig telemetry = config;
  telemetry.session_dir = "/tmp/elsewhere";
  telemetry.resume = true;
  telemetry.serve_port = 8080;
  EXPECT_EQ(config_fingerprint(telemetry, "run"), base);
}

// ---------------------------------------------------- optimizer restart --

TEST(OptimizerRestart, SerializedCheckpointResumesBitIdentically) {
  // Run uninterrupted; capture the iteration-2 checkpoint through a full
  // JSON serialize/parse cycle; resume a fresh run from the parsed copy.
  // The paper's noise model (Bernoulli draws) makes any RNG drift
  // visible immediately, so equality here is exact, not approximate.
  opt::ImplicitFilteringOptions options;
  options.directions = 4;
  options.max_iterations = 6;
  options.initial_step = 0.3;
  options.direction_mode = opt::DirectionMode::kSparse;
  options.seed = 42;

  std::string ckpt_json;
  options.on_checkpoint = [&](const opt::IfCheckpoint& ckpt) {
    if (ckpt.next_iteration == 2) ckpt_json = to_json(ckpt);
  };
  opt::BernoulliHill objective({0.7, 0.3, 0.5}, 0.6, 4.0, 50);
  const std::vector<double> x0 = {0.5, 0.5, 0.5};
  const auto full = opt::implicit_filtering(objective, x0, options);
  ASSERT_FALSE(ckpt_json.empty());

  const opt::IfCheckpoint ckpt =
      checkpoint_from_json(util::json_parse(ckpt_json));
  opt::ImplicitFilteringOptions resume_options = options;
  resume_options.on_checkpoint = nullptr;
  resume_options.resume = &ckpt;
  opt::BernoulliHill fresh({0.7, 0.3, 0.5}, 0.6, 4.0, 50);
  const auto resumed = opt::implicit_filtering(fresh, x0, resume_options);

  EXPECT_EQ(resumed.best_value, full.best_value);
  EXPECT_EQ(resumed.best_point, full.best_point);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.reason, full.reason);
  ASSERT_EQ(resumed.trace.size(), full.trace.size());
  for (std::size_t i = 0; i < full.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i].center_value, full.trace[i].center_value);
    EXPECT_EQ(resumed.trace[i].best_value, full.trace[i].best_value);
    EXPECT_EQ(resumed.trace[i].step, full.trace[i].step);
  }
}

// ------------------------------------------------------- sessioned runs --

FlowConfig small_config() {
  FlowConfig config;
  config.sample_templates = 12;
  config.sample_sims = 20;
  config.opt_directions = 4;
  config.opt_sims_per_point = 20;
  config.opt_max_iterations = 2;
  config.harvest_sims = 60;
  config.seed = 7;
  return config;
}

TEST(SessionedRun, ResumeRequiresSessionDir) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config = small_config();
  config.resume = true;  // but no session_dir
  EXPECT_THROW(CdgRunner(io, farm, config), ConfigError);
}

TEST(SessionedRun, CompletedSessionResumesWithZeroSimulations) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("resume_zero");
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  const auto seed_template = io.suite().front();

  FlowConfig config = small_config();
  config.session_dir = dir.string();

  exec::ThreadFarm farm1(2);
  CdgRunner runner1(io, farm1, config);
  const auto first = runner1.run_from_template(target, seed_template);
  EXPECT_EQ(farm1.total_simulations(), first.flow_sims());
  ASSERT_TRUE(runner1.session_summary().has_value());
  EXPECT_EQ(runner1.session_summary()->resumes, 0u);

  // Resume with a FRESH farm: every stage replays from its artifact, so
  // the farm runs nothing and the results are bit-identical.
  config.resume = true;
  exec::ThreadFarm farm2(2);
  CdgRunner runner2(io, farm2, config);
  const auto second = runner2.run_from_template(target, seed_template);
  EXPECT_EQ(farm2.total_simulations(), 0u);

  EXPECT_EQ(second.seed_template, first.seed_template);
  EXPECT_EQ(second.sampling.best.front().index, first.sampling.best.front().index);
  EXPECT_EQ(second.sampling.combined, first.sampling.combined);
  EXPECT_EQ(second.optimization.best_value, first.optimization.best_value);
  EXPECT_EQ(second.optimization.best_point, first.optimization.best_point);
  EXPECT_EQ(second.harvest_phase.stats, first.harvest_phase.stats);
  EXPECT_EQ(second.sampling_phase.sims, first.sampling_phase.sims);
  EXPECT_EQ(second.optimization_phase.sims, first.optimization_phase.sims);
  EXPECT_EQ(second.harvest_phase.sims, first.harvest_phase.sims);
  ASSERT_EQ(second.first_hits.size(), first.first_hits.size());
  for (std::size_t i = 0; i < first.first_hits.size(); ++i) {
    EXPECT_EQ(second.first_hits[i].phase, first.first_hits[i].phase);
  }

  ASSERT_TRUE(runner2.session_summary().has_value());
  const auto& summary = *runner2.session_summary();
  EXPECT_EQ(summary.resumes, 1u);
  EXPECT_EQ(summary.resumed_from, "harvest");
  for (const auto& stage : summary.stages) {
    EXPECT_TRUE(stage.done()) << stage.name;
  }
}

TEST(SessionedRun, ResumeRejectsChangedConfig) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("resume_reject");
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));

  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  CdgRunner runner(io, farm, config);
  (void)runner.run_from_template(target, io.suite().front());

  // A different seed answers a different question: hard error.
  config.resume = true;
  config.seed = 1234;
  exec::ThreadFarm farm2(2);
  CdgRunner changed(io, farm2, config);
  EXPECT_THROW((void)changed.run_from_template(target, io.suite().front()),
               ConfigError);

  // So does resuming a run() session through run_from_template (the
  // context key differs even with identical budgets).
  config.seed = small_config().seed;
  exec::ThreadFarm farm3(2);
  CdgRunner other_entry(io, farm3, config);
  const auto other_template = io.suite().back();
  EXPECT_THROW((void)other_entry.run_from_template(target, other_template),
               ConfigError);
}

// Sessions written before optimizer checkpoints became a journal hold
// one optimization.ckpt.json, rewritten after every iteration. Resuming
// such a session deletes it and restarts the stage from iteration 0:
// the flow still matches an uninterrupted one bit for bit, and sampling
// still replays from its artifact.
TEST(SessionedRun, PreJournalCheckpointRestartsTheStageBitIdentically) {
  using Fp = util::FailurePoint;
  const duv::IoUnit io;
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  const auto seed_template = io.suite().front();
  FlowConfig config = small_config();
  config.opt_max_iterations = 3;

  exec::ThreadFarm reference_farm(2);
  const auto reference = CdgRunner(io, reference_farm, config)
                             .run_from_template(target, seed_template);

  // Fail the second record's sync: the run dies inside the optimizer,
  // at the third append, with two iterations journaled.
  const fs::path dir = scratch_dir("pre_journal_ckpt");
  const fs::path journal = dir / "optimization.ckpt.jsonl";
  config.session_dir = dir.string();
  {
    exec::ThreadFarm farm(2);
    Fp::prime_every_nth(Fp::Id::kJournalSync, 2);
    EXPECT_THROW((void)CdgRunner(io, farm, config)
                     .run_from_template(target, seed_template),
                 Error);
    Fp::disarm_all();
  }
  const util::Journal records = util::read_journal(journal);
  ASSERT_EQ(records.records.size(), 2u);

  // Rewrite it in the pre-journal layout: one document holding the last
  // state and the whole trace.
  OptStageCheckpoint legacy =
      opt_stage_checkpoint_from_json(records.records.back());
  legacy.ifc.trace.insert(
      legacy.ifc.trace.begin(),
      opt_stage_checkpoint_from_json(records.records.front()).ifc.trace.front());
  ASSERT_EQ(legacy.ifc.trace.size(), 2u);
  const fs::path legacy_path = dir / "optimization.ckpt.json";
  std::ofstream(legacy_path) << to_json(legacy) << '\n';
  fs::remove(journal);

  config.resume = true;
  exec::ThreadFarm farm(2);
  const auto resumed =
      CdgRunner(io, farm, config).run_from_template(target, seed_template);
  EXPECT_FALSE(fs::exists(legacy_path));
  EXPECT_FALSE(fs::exists(journal));
  EXPECT_LT(farm.total_simulations(), reference.flow_sims());
  EXPECT_EQ(resumed.optimization.best_value, reference.optimization.best_value);
  EXPECT_EQ(resumed.optimization.best_point, reference.optimization.best_point);
  EXPECT_EQ(resumed.optimization_phase.sims, reference.optimization_phase.sims);
  EXPECT_EQ(resumed.optimization_phase.stats,
            reference.optimization_phase.stats);
  EXPECT_EQ(resumed.harvest_phase.stats, reference.harvest_phase.stats);
  EXPECT_EQ(resumed.flow_sims(), reference.flow_sims());
}

// A non-resume run in a session directory starts over: the journal an
// interrupted run left behind belongs to another question (here another
// seed) and must not seed the new run's optimizer.
TEST(SessionedRun, FreshRunIgnoresTheJournalOfTheRunItReplaces) {
  using Fp = util::FailurePoint;
  const duv::IoUnit io;
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  const auto seed_template = io.suite().front();
  FlowConfig config = small_config();
  config.opt_max_iterations = 3;
  const fs::path dir = scratch_dir("fresh_over_journal");
  config.session_dir = dir.string();
  {
    exec::ThreadFarm farm(2);
    Fp::prime_every_nth(Fp::Id::kJournalSync, 2);
    EXPECT_THROW((void)CdgRunner(io, farm, config)
                     .run_from_template(target, seed_template),
                 Error);
    Fp::disarm_all();
  }
  ASSERT_TRUE(fs::exists(dir / "optimization.ckpt.jsonl"));

  config.seed += 1;
  FlowConfig unsessioned = config;
  unsessioned.session_dir.clear();
  exec::ThreadFarm reference_farm(2);
  const auto reference = CdgRunner(io, reference_farm, unsessioned)
                             .run_from_template(target, seed_template);
  exec::ThreadFarm farm(2);
  const auto fresh =
      CdgRunner(io, farm, config).run_from_template(target, seed_template);
  EXPECT_EQ(fresh.optimization.best_value, reference.optimization.best_value);
  EXPECT_EQ(fresh.optimization.best_point, reference.optimization.best_point);
  EXPECT_EQ(fresh.optimization_phase.sims, reference.optimization_phase.sims);
  EXPECT_EQ(fresh.harvest_phase.stats, reference.harvest_phase.stats);
}

/// One past the end of the JSON value that starts at `begin` in `text`:
/// a number or literal, a string, an array or an object.
std::size_t json_value_end(const std::string& text, std::size_t begin) {
  std::size_t depth = 0;
  bool quoted = false;
  for (std::size_t end = begin; end < text.size(); ++end) {
    const char d = text[end];
    if (quoted) {
      if (d == '\\') ++end;
      else if (d == '"') quoted = false;
      if (!quoted && depth == 0) return end + 1;
    } else if (d == '"') {
      quoted = true;
    } else if (d == '[' || d == '{') {
      ++depth;
    } else if (d == ']' || d == '}') {
      if (depth == 0) return end;  // a scalar ends at its container's close
      if (--depth == 0) return end + 1;
    } else if (d == ',' && depth == 0) {
      return end;
    }
  }
  return text.size();
}

/// Byte ranges [begin, end) of the JSON values inside `record` that
/// `want` selects, given each value's first byte: numbers ('n'), arrays
/// ('[') or objects ('{'). The record itself (offset 0) is not a value
/// of its own; string contents are skipped.
std::vector<std::pair<std::size_t, std::size_t>> json_values(
    const std::string& record, char want) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 1; i < record.size(); ++i) {
    const char c = record[i];
    if (c == '"') {
      i = json_value_end(record, i) - 1;
    } else if ((want == 'n' && (c == '-' || (c >= '0' && c <= '9'))) ||
               c == want) {
      out.emplace_back(i, json_value_end(record, i));
      if (want == 'n') i = out.back().second - 1;
    }
  }
  return out;
}

/// Byte ranges [begin, end) that each delete one object member of the
/// compact JSON `doc`: its key, its value and one adjoining comma.
std::vector<std::pair<std::size_t, std::size_t>> json_members(
    const std::string& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 1; i < doc.size(); ++i) {
    if (doc[i] != '"') continue;
    const std::size_t key_end = json_value_end(doc, i);
    if (key_end >= doc.size() || doc[key_end] != ':') {
      i = key_end - 1;  // a string value, not a key
      continue;
    }
    const std::size_t end = json_value_end(doc, key_end + 1);
    if (doc[i - 1] == ',') {
      out.emplace_back(i - 1, end);
    } else {
      out.emplace_back(i, doc[end] == ',' ? end + 1 : end);
    }
    i = key_end;  // continue inside the value: nested members count too
  }
  return out;
}

/// An io_unit flow with four optimizer iterations: its uninterrupted
/// result, a session of it in `pristine` that died in the optimizer
/// (the third record's sync failed) with three records journaled, and
/// a finished session of it in `complete`.
struct JournaledSession {
  static constexpr const char* kJournal = "optimization.ckpt.jsonl";

  duv::IoUnit io;
  neighbors::ApproximatedTarget target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  tgen::TestTemplate seed_template = io.suite().front();
  FlowConfig config;
  exec::ThreadFarm farm{2};
  FlowResult reference;
  fs::path pristine;
  std::string journal;
  fs::path complete;

  explicit JournaledSession(const std::string& name,
                            std::size_t sample_templates =
                                small_config().sample_templates)
      : config([sample_templates] {
          FlowConfig c = small_config();
          c.sample_templates = sample_templates;
          c.opt_max_iterations = 4;
          return c;
        }()),
        reference(run(config)),
        pristine(scratch_dir(name + "_pristine")),
        complete(scratch_dir(name + "_complete")) {
    using Fp = util::FailurePoint;
    FlowConfig sessioned = config;
    sessioned.session_dir = pristine.string();
    Fp::prime_every_nth(Fp::Id::kJournalSync, 3);
    EXPECT_THROW((void)run(sessioned), Error);
    Fp::disarm_all();
    std::ifstream in(pristine / kJournal, std::ios::binary);
    journal.assign(std::istreambuf_iterator<char>(in), {});
    sessioned.session_dir = complete.string();
    (void)run(sessioned);
  }

  FlowResult run(const FlowConfig& c) {
    return CdgRunner(io, farm, c).run_from_template(target, seed_template);
  }

  /// Resumes a copy of the pristine session in `dir` whose `file` (by
  /// default the journal) holds `bytes`.
  FlowResult resume_with(const fs::path& dir, const std::string& bytes,
                         const char* file = kJournal) {
    return resume_copy(pristine, dir, bytes, file);
  }

  /// Resumes a copy of the session in `source` in `dir` whose `file`
  /// holds `bytes`.
  FlowResult resume_copy(const fs::path& source, const fs::path& dir,
                         const std::string& bytes, const char* file) {
    fs::remove_all(dir);
    fs::copy(source, dir, fs::copy_options::recursive);
    std::ofstream(dir / file, std::ios::binary | std::ios::trunc) << bytes;
    return resume(dir);
  }

  FlowResult resume(const fs::path& dir) {
    FlowConfig resumed = config;
    resumed.session_dir = dir.string();
    resumed.resume = true;
    return run(resumed);
  }

  /// Every result the resume must reproduce bit for bit.
  void expect_reference(const FlowResult& got, const std::string& what) const {
    EXPECT_EQ(got.sampling.best.front().index, reference.sampling.best.front().index) << what;
    EXPECT_EQ(got.sampling.combined, reference.sampling.combined) << what;
    EXPECT_EQ(got.sampling_phase.sims, reference.sampling_phase.sims) << what;
    EXPECT_EQ(got.sampling_phase.stats, reference.sampling_phase.stats)
        << what;
    EXPECT_EQ(got.optimization.best_value, reference.optimization.best_value)
        << what;
    EXPECT_EQ(got.optimization.best_point, reference.optimization.best_point)
        << what;
    EXPECT_EQ(got.optimization_phase.sims, reference.optimization_phase.sims)
        << what;
    EXPECT_EQ(got.optimization_phase.stats, reference.optimization_phase.stats)
        << what;
    EXPECT_EQ(got.harvest_phase.stats, reference.harvest_phase.stats) << what;
    EXPECT_EQ(got.flow_sims(), reference.flow_sims()) << what;
    ASSERT_EQ(got.first_hits.size(), reference.first_hits.size()) << what;
    for (std::size_t i = 0; i < got.first_hits.size(); ++i) {
      EXPECT_EQ(got.first_hits[i].phase, reference.first_hits[i].phase)
          << what;
    }
  }
};

// The input the journal fuzz below first failed on: a flipped digit in
// the middle record's center parses as another valid point, and the
// resume followed a different trajectory (best value 1.8 instead of
// 2.4). The record's digest now rejects it.
TEST(SessionedRun, JournalRecordWithAnAlteredDigitIsRejected) {
  JournaledSession s("journal_digit");
  const std::size_t center =
      s.journal.find("\"center\":[0.", s.journal.find('\n'));
  ASSERT_NE(center, std::string::npos);
  const std::size_t digit = center + 13;
  std::string bytes = s.journal;
  bytes[digit] = bytes[digit] == '9' ? '1' : '9';
  const fs::path dir = scratch_dir("journal_digit");
  EXPECT_THROW((void)s.resume_with(dir, bytes), ParseError);
}

// A journal written before records carried digests is deleted on
// resume, and its stage restarts from iteration 0: still bit-identical.
TEST(SessionedRun, JournalWithoutDigestsRestartsTheStageBitIdentically) {
  JournaledSession s("journal_no_digest");
  std::string bytes;
  for (const util::JsonValue& record :
       util::read_journal(s.pristine / JournaledSession::kJournal).records) {
    bytes += to_json(opt_stage_checkpoint_from_json(record)) + '\n';
  }
  ASSERT_EQ(bytes.find("digest"), std::string::npos);
  const fs::path dir = scratch_dir("journal_no_digest");
  s.expect_reference(s.resume_with(dir, bytes), "journal without digests");
  EXPECT_FALSE(fs::exists(dir / JournaledSession::kJournal));
}

// Resume-journal fuzz: a real three-record optimizer journal, corrupted
// by truncation at every byte offset, by flipping each byte of the middle
// record, by replacing each of its numbers with 1e999 and -0, and by
// values of the wrong shape (array <-> object, a `point` one coordinate
// short or long). After each corruption the resume either reproduces the
// uninterrupted run bit for bit or fails with a util::Error subtype;
// anything else (another exception type, a crash, a hang, UB under the
// sanitizers) fails here. A flipped digit still parses: only the
// record's digest tells it from the original.
TEST(SessionedRun, CorruptJournalResumesBitIdenticallyOrFailsTyped) {
  JournaledSession s("journal_fuzz");
  const std::string& journal = s.journal;
  const std::size_t middle_begin = journal.find('\n') + 1;
  const std::size_t middle_end = journal.find('\n', middle_begin);
  ASSERT_NE(journal.find('\n', middle_end + 1), std::string::npos);
  ASSERT_EQ(journal.find('\n', journal.find('\n', middle_end + 1) + 1),
            std::string::npos);
  const std::string middle =
      journal.substr(middle_begin, middle_end - middle_begin);

  const fs::path dir = scratch_dir("journal_fuzz");
  const fs::path probe = scratch_dir("journal_fuzz_probe") / "probe.jsonl";
  fs::create_directories(probe.parent_path());
  // The resume depends only on the journal prefix the reader accepts:
  // the torn tail after it is dropped and overwritten. Corruptions that
  // leave an already tried prefix are checked once.
  std::set<std::string> tried;
  std::size_t matched = 0;
  std::size_t rejected = 0;
  const auto resume_with = [&](const std::string& bytes,
                               const std::string& what) -> bool {
    std::ofstream(probe, std::ios::binary | std::ios::trunc) << bytes;
    try {
      const util::Journal read = util::read_journal(probe);
      if (!tried.insert(bytes.substr(0, read.bytes)).second) return true;
    } catch (const util::Error&) {
      // Rejected by the reader; the resume below must reject it too.
    }
    try {
      s.expect_reference(s.resume_with(dir, bytes), what);
      ++matched;
      return true;
    } catch (const util::Error&) {
      ++rejected;
      return false;
    }
  };
  const auto with_middle = [&](std::size_t begin, std::size_t end,
                               std::string_view replacement) {
    std::string bytes = journal;
    bytes.replace(middle_begin + begin, end - begin, replacement);
    return bytes;
  };

  for (std::size_t n = 0; n <= journal.size(); ++n) {
    EXPECT_TRUE(resume_with(journal.substr(0, n), "cut at " + std::to_string(n)))
        << "a torn tail is dropped, never an error (cut at " << n << ")";
  }
  const std::size_t matched_cuts = matched;
  // A flip in a 17th significant digit can leave the value unchanged;
  // such a record resumes, and resume_with checks the result.
  for (std::size_t i = 0; i < middle.size(); ++i) {
    const std::string flipped(1, static_cast<char>(middle[i] ^ 0x01));
    (void)resume_with(with_middle(i, i + 1, flipped),
                      "byte " + std::to_string(i) + " flipped");
  }
  const std::size_t rejected_flips = rejected;
  for (const auto& [begin, end] : json_values(middle, 'n')) {
    EXPECT_FALSE(resume_with(with_middle(begin, end, "1e999"),
                             "number at " + std::to_string(begin) + " 1e999"))
        << "number at " << begin << " replaced with 1e999";
    // -0 for a 0 is the same value and may resume; resume_with then
    // checks the result is the uninterrupted one.
    (void)resume_with(with_middle(begin, end, "-0"),
                      "number at " + std::to_string(begin) + " -0");
  }
  for (const char shape : {'[', '{'}) {
    for (const auto& [begin, end] : json_values(middle, shape)) {
      EXPECT_FALSE(resume_with(
          with_middle(begin, end, shape == '[' ? "{}" : "[]"),
          "value at " + std::to_string(begin) + " reshaped"))
          << "value at " << begin << " reshaped";
    }
  }
  for (const std::string_view key : {"\"center\":[", "\"best_point\":["}) {
    const std::size_t open = middle.find(key) + key.size() - 1;
    const std::size_t close = middle.find(']', open);
    const std::size_t last_comma = middle.rfind(',', close);
    ASSERT_GT(last_comma, open) << key;
    EXPECT_FALSE(resume_with(with_middle(last_comma, close, ""),
                             std::string(key) + " short"))
        << key << " one coordinate short";
    EXPECT_FALSE(resume_with(with_middle(close, close, ",0.5"),
                             std::string(key) + " long"))
        << key << " one coordinate long";
  }
  // The cuts resume from each of 0 to 3 records; nearly every flip
  // changes a value or breaks the syntax.
  EXPECT_GE(matched_cuts, 4u);
  EXPECT_GT(rejected_flips, middle.size() * 9 / 10);
}

// Artifact-reader fuzz: the sessions of a JournaledSession with a JSON
// artifact cut at every byte offset, each number replaced with 1e999
// and -0, each array and object swapped for the other shape, and each
// key removed: manifest.json and sampling.json of the one that died in
// the optimizer, and the optimization.json, refinement.json and
// harvest.json of the finished one. After each corruption the resume
// either reproduces the uninterrupted run bit for bit or fails with a
// util::Error subtype. A file that does not parse fails the resume at
// its read, so corruptions that fail to parse with a message already
// seen for that file are resumed once.
TEST(SessionedRun, CorruptArtifactsResumeBitIdenticallyOrFailTyped) {
  JournaledSession s("artifact_fuzz", /*sample_templates=*/3);
  const fs::path dir = scratch_dir("artifact_fuzz");
  std::set<std::string> parse_errors;
  std::size_t matched = 0;
  const std::vector<std::pair<const fs::path*, const char*>> artifacts{
      {&s.pristine, "manifest.json"},    {&s.pristine, "sampling.json"},
      {&s.complete, "optimization.json"}, {&s.complete, "refinement.json"},
      {&s.complete, "harvest.json"}};
  for (const auto& [source, file] : artifacts) {
    std::ifstream in(*source / file, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    ASSERT_FALSE(text.empty()) << file;
    const auto resume_with = [&](const std::string& bytes,
                                 const std::string& what) -> bool {
      try {
        (void)util::json_parse(bytes);
      } catch (const ParseError& e) {
        if (!parse_errors.insert(std::string(file) + e.what()).second) {
          return false;
        }
      }
      try {
        s.expect_reference(s.resume_copy(*source, dir, bytes, file),
                           std::string(file) + ": " + what);
        ++matched;
        return true;
      } catch (const util::Error&) {
        return false;
      }
    };
    const auto with = [&](std::size_t begin, std::size_t end,
                          std::string_view replacement) {
      std::string bytes = text;
      bytes.replace(begin, end - begin, replacement);
      return bytes;
    };
    for (std::size_t n = 0; n < text.size(); ++n) {
      (void)resume_with(text.substr(0, n), "cut at " + std::to_string(n));
    }
    for (const auto& [begin, end] : json_values(text, 'n')) {
      EXPECT_FALSE(resume_with(with(begin, end, "1e999"),
                               "number at " + std::to_string(begin) +
                                   " 1e999"))
          << file << ": number at " << begin << " replaced with 1e999";
      (void)resume_with(with(begin, end, "-0"),
                        "number at " + std::to_string(begin) + " -0");
    }
    for (const char shape : {'[', '{'}) {
      for (const auto& [begin, end] : json_values(text, shape)) {
        EXPECT_FALSE(resume_with(with(begin, end, shape == '[' ? "{}" : "[]"),
                                 "value at " + std::to_string(begin) +
                                     " reshaped"))
            << file << ": value at " << begin << " reshaped";
      }
    }
    for (const auto& [begin, end] : json_members(text)) {
      (void)resume_with(with(begin, end, ""),
                        "key at " + std::to_string(begin) + " removed");
    }
  }
  // The cut of the trailing newline resumes, in every file.
  EXPECT_GE(matched, artifacts.size());
}

// The input the artifact fuzz first failed on once it covered
// refinement.json: the first best_point coordinate set to -0 still
// parses, and the resume harvested a template with that weight at 0.
// The artifact's digest now rejects it.
TEST(SessionedRun, RefinementWithANegativeZeroCoordinateIsRejected) {
  JournaledSession s("refine_negative_zero");
  std::ifstream in(s.complete / "refinement.json", std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(in), {}};
  const std::string key = "\"best_point\":[";
  const std::size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t first = begin + key.size();
  text.replace(first, text.find_first_of(",]", first) - first, "-0");
  const fs::path dir = scratch_dir("refine_negative_zero");
  EXPECT_THROW((void)s.resume_copy(s.complete, dir, text, "refinement.json"),
               Error);
}

/// Expects resuming to fail with a util::Error whose message names
/// `file` (an indexing assertion is a util::LogicError, not an Error).
void expect_rejected_naming(const std::function<void()>& resume,
                            const std::string& file) {
  try {
    resume();
    ADD_FAILURE() << file << ": the resume did not fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos) << e.what();
  }
}

// A stage artifact without its digest is read as is; one whose stats
// hold hit counts for another number of events than the unit has used
// to die on an assertion downstream (`"hits":[0]` in harvest.json
// indexed past the stats in compute_first_hits). Every loaded stats
// object is now checked against the unit, in each stage artifact and
// in a journal record whose digest matches.
TEST(SessionedRun, StatsOverAnotherEventCountAreRejectedNamingTheFile) {
  JournaledSession s("event_count");
  const fs::path dir = scratch_dir("event_count");
  for (const char* file : {"sampling.json", "optimization.json",
                           "refinement.json", "harvest.json"}) {
    std::ifstream in(s.complete / file, std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(in), {}};
    const std::size_t digest = text.rfind(",\"digest\":");
    ASSERT_NE(digest, std::string::npos) << file;
    text.erase(digest, text.rfind('}') - digest);
    for (std::size_t at = text.find("\"hits\":["); at != std::string::npos;
         at = text.find("\"hits\":[", at + 1)) {
      const std::size_t first = at + std::string_view("\"hits\":[").size();
      text.replace(first, text.find(']', first) - first, 1, '0');
    }
    expect_rejected_naming(
        [&] { (void)s.resume_copy(s.complete, dir, text, file); }, file);
  }
  // The journal's last record, re-digested so that only the event
  // count is wrong.
  const util::Journal journal =
      util::read_journal(s.pristine / JournaledSession::kJournal);
  ASSERT_FALSE(journal.records.empty());
  std::string bytes;
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    OptStageCheckpoint ckpt = opt_stage_checkpoint_from_json(journal.records[i]);
    if (i + 1 == journal.records.size()) {
      ckpt.stats = coverage::SimStats::from_counts(ckpt.stats.sims(), {0});
    }
    std::string record = to_json(ckpt);
    record.insert(record.size() - 1,
                  ",\"digest\":\"" + hex_u64(fnv1a(record)) + "\"");
    bytes += record + '\n';
  }
  expect_rejected_naming([&] { (void)s.resume_with(dir, bytes); },
                         JournaledSession::kJournal);
}

/// The sampling.json layout sessions held before the phase kept only
/// scores: every sample's point, value against `target` and stats,
/// regenerated from `session`'s skeleton as the phase draws them, with
/// `session`'s current phase record.
util::JsonObject per_sample_sampling(const fs::path& session,
                                     const FlowConfig& config,
                                     const duv::Duv& duv, exec::Backend& farm,
                                     const neighbors::ApproximatedTarget& target) {
  const tgen::Skeleton skeleton =
      tgen::load_skeleton(session / "skeleton.skel");
  const std::uint64_t seed = config.seed ^ 0x5A4D91E5ULL;  // the stage's mix
  util::Xoshiro256 rng(seed);
  util::SeedStream job_seeds(seed ^ 0x5A3B1E5EEDULL);
  std::vector<opt::Point> points(config.sample_templates);
  std::vector<std::uint64_t> seeds;
  for (auto& point : points) {
    point.resize(skeleton.mark_count());
    for (double& w : point) w = rng.uniform();
    seeds.push_back(job_seeds.next());
  }
  cdg::CdgObjective objective(duv, farm, skeleton, target, config.sample_sims);
  const auto evals = objective.evaluate_batch_full(points, seeds);
  std::string samples = "[";
  std::size_t best = 0;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (i != 0) samples += ',';
    samples += util::JsonObject{}
                   .add_raw("point", json_double_array(points[i]))
                   .add("target_value", evals[i].value)
                   .add_raw("stats", to_json(evals[i].stats))
                   .str();
    if (evals[i].value > evals[best].value) best = i;
  }
  samples += ']';
  const util::JsonValue current =
      read_digested_json_file(session / "sampling.json");
  return util::JsonObject{}
      .add_raw("sampling", util::JsonObject{}
                               .add_raw("samples", samples)
                               .add("best_index", best)
                               .add_raw("combined", to_json(objective.combined()))
                               .add("simulations", objective.simulations())
                               .str())
      .add_raw("phase", to_json(phase_outcome_from_json(current.at("phase"))));
}

// A session whose sampling.json holds the per-sample layout, with or
// without a digest, re-scores it on resume: with the optimizer's
// journal gone the optimization restarts from the re-scored best
// sample, and the flow matches the uninterrupted one bit for bit.
TEST(SessionedRun, PerSampleSamplingLayoutResumesBitIdentically) {
  JournaledSession s("per_sample_layout");
  const util::JsonObject layout =
      per_sample_sampling(s.pristine, s.config, s.io, s.farm, s.target);
  for (const bool digested : {false, true}) {
    const fs::path dir = scratch_dir("per_sample_layout");
    fs::copy(s.pristine, dir, fs::copy_options::recursive);
    fs::remove(dir / JournaledSession::kJournal);
    if (digested) {
      write_digested_json_file(dir / "sampling.json", layout);
    } else {
      std::ofstream(dir / "sampling.json", std::ios::trunc)
          << layout.str() << '\n';
    }
    s.expect_reference(s.resume(dir),
                       digested ? "with a digest" : "without a digest");
  }
}

// The session of a tiny flow is the same size at 50 and 1000 sampled
// templates: sampling.json holds a score, not every sample.
TEST(SessionedRun, SamplingArtifactDoesNotGrowWithTheSampleCount) {
  const duv::IoUnit io;
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  exec::ThreadFarm farm(2);
  std::vector<std::uintmax_t> bytes;
  for (const std::size_t templates : {std::size_t{50}, std::size_t{1000}}) {
    const fs::path dir =
        scratch_dir("sampling_size_" + std::to_string(templates));
    FlowConfig config = small_config();
    config.sample_templates = templates;
    config.sample_sims = 2;
    config.opt_max_iterations = 1;
    config.session_dir = dir.string();
    (void)CdgRunner(io, farm, config)
        .run_from_template(target, io.suite().front());
    bytes.push_back(fs::file_size(dir / "sampling.json"));
  }
  EXPECT_LT(bytes[1], 64u << 10);
  EXPECT_LT(bytes[1] > bytes[0] ? bytes[1] - bytes[0] : bytes[0] - bytes[1],
            1024u);
}

// The dedupe regression for the monolith split: run() is coarse search
// plus the exact tail run_from_template() executes, so with the coarse
// winner as the explicit seed both entry points must produce the same
// flow trajectory (before-coverage bookkeeping aside).
TEST(SessionedRun, RunMatchesRunFromTemplateOnSameSeed) {
  const duv::IoUnit io;
  const auto suite = io.suite();

  exec::ThreadFarm farm1(2);
  coverage::CoverageRepository repo(io.space().size());
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm1.run(io, suite[j], 150, 500 + j));
  }
  FlowConfig config = small_config();
  config.coarse_best_templates = 1;  // seed == one suite template, verbatim
  const auto target = neighbors::family_target(io.space(), "crc", repo.total());

  CdgRunner full(io, farm1, config);
  const auto via_run = full.run(target, repo, suite);

  const tgen::TestTemplate* seed_template = nullptr;
  for (const auto& t : suite) {
    if (t.name() == via_run.seed_template) seed_template = &t;
  }
  ASSERT_NE(seed_template, nullptr) << via_run.seed_template;

  exec::ThreadFarm farm2(2);
  CdgRunner from_template(io, farm2, config);
  const auto via_template =
      from_template.run_from_template(target, *seed_template);

  EXPECT_EQ(via_template.seed_template, via_run.seed_template);
  EXPECT_EQ(via_template.skeleton.mark_count(), via_run.skeleton.mark_count());
  EXPECT_EQ(via_template.sampling.templates, via_run.sampling.templates);
  EXPECT_EQ(via_template.sampling.best.front().index, via_run.sampling.best.front().index);
  EXPECT_EQ(via_template.sampling.combined, via_run.sampling.combined);
  EXPECT_EQ(via_template.optimization.best_value,
            via_run.optimization.best_value);
  EXPECT_EQ(via_template.optimization.best_point,
            via_run.optimization.best_point);
  EXPECT_EQ(via_template.harvest_phase.stats, via_run.harvest_phase.stats);
  EXPECT_EQ(via_template.flow_sims(), via_run.flow_sims());
}

/// The spans `trace` holds directly under its "flow" span, in the order
/// they ended: (name, sims).
std::vector<std::pair<std::string, std::size_t>> stage_spans(
    const std::string& trace) {
  std::vector<util::JsonValue> spans;
  std::uint64_t flow_id = 0;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    util::JsonValue event = util::json_parse(line);
    if (event.at("event").as_string() != "span") continue;
    if (event.at("span").as_string() == "flow") {
      flow_id = event.at("span_id").as_uint64();
    }
    spans.push_back(std::move(event));
  }
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const util::JsonValue& span : spans) {
    if (flow_id != 0 && span.at("parent_id").as_uint64() == flow_id) {
      out.emplace_back(span.at("span").as_string(), span.at("sims").as_size());
    }
  }
  return out;
}

// Each stage a run executes is one span under "flow", named as in the
// manifest and carrying the sims the manifest's ledger records for it;
// with the before-CDG sims they are every simulation the farm ran. A
// resumed run emits spans only for the stages it runs again.
TEST(SessionedRun, StageSpansMatchTheManifestLedger) {
  using Fp = util::FailurePoint;
  const duv::IoUnit io;
  const auto suite = io.suite();
  exec::ThreadFarm farm(2);
  coverage::CoverageRepository repo(io.space().size());
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(io, suite[j], 150, 500 + j));
  }
  const auto target = neighbors::family_target(io.space(), "crc", repo.total());
  FlowConfig config = small_config();
  config.opt_max_iterations = 3;
  config.session_dir = scratch_dir("stage_spans").string();

  std::ostringstream trace;
  obs::Tracer tracer(trace);
  config.trace = &tracer;
  CdgRunner runner(io, farm, config);
  (void)runner.run(target, repo, suite);
  const auto spans = stage_spans(trace.str());
  const auto& ledger = runner.session_summary()->stages;
  ASSERT_EQ(spans.size(), ledger.size());
  std::size_t stage_sims = 0;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    EXPECT_EQ(spans[i].first, ledger[i].name);
    EXPECT_EQ(spans[i].second, ledger[i].sims) << ledger[i].name;
    stage_sims += spans[i].second;
  }
  EXPECT_EQ(ledger.front().name, "coarse");
  EXPECT_EQ(stage_sims + repo.total_sims(), farm.total_simulations());

  // Interrupt a second session in the optimizer (its second record's
  // sync fails), then resume it traced on a fresh farm.
  config.trace = nullptr;
  config.session_dir = scratch_dir("stage_spans_resume").string();
  {
    exec::ThreadFarm crashed_farm(2);
    Fp::prime_every_nth(Fp::Id::kJournalSync, 2);
    EXPECT_THROW((void)CdgRunner(io, crashed_farm, config)
                     .run(target, repo, suite),
                 Error);
    Fp::disarm_all();
  }
  std::ostringstream resumed_trace;
  obs::Tracer resumed_tracer(resumed_trace);
  config.trace = &resumed_tracer;
  config.resume = true;
  exec::ThreadFarm resumed_farm(2);
  CdgRunner resumed(io, resumed_farm, config);
  (void)resumed.run(target, repo, suite);
  const auto resumed_spans = stage_spans(resumed_trace.str());
  const auto& resumed_ledger = resumed.session_summary()->stages;
  ASSERT_EQ(resumed_spans.size(), 3u);
  std::size_t resumed_sims = 0;
  for (std::size_t i = 0; i < resumed_spans.size(); ++i) {
    const StageRecord& record = resumed_ledger[ledger.size() - 3 + i];
    EXPECT_EQ(resumed_spans[i].first, record.name);
    EXPECT_EQ(resumed_spans[i].second, record.sims) << record.name;
    resumed_sims += resumed_spans[i].second;
  }
  EXPECT_EQ(resumed_spans.front().first, "optimization");
  EXPECT_EQ(resumed_sims, resumed_farm.total_simulations());
}

// ------------------------------------------------------------ campaign --

TEST(Campaign, SessionResumesWithZeroSimulations) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_resume");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> targets{
      neighbors::ApproximatedTarget({family[2]},
                                    {{family[0], 0.5}, {family[2], 2.0}}),
      neighbors::ApproximatedTarget({family[3]},
                                    {{family[1], 0.5}, {family[3], 2.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();

  exec::ThreadFarm farm1(2);
  const auto first =
      run_multi_target(io, farm1, config, targets, suite.front());
  EXPECT_EQ(first.session_dir, dir.string());
  ASSERT_EQ(first.sessions.size(), 3u);  // shared + one per target
  EXPECT_TRUE(fs::exists(dir / "campaign.json"));
  EXPECT_TRUE(fs::exists(dir / "shared" / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "target_00" / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "target_01" / "manifest.json"));

  config.resume = true;
  exec::ThreadFarm farm2(2);
  const auto second =
      run_multi_target(io, farm2, config, targets, suite.front());
  EXPECT_EQ(farm2.total_simulations(), 0u);
  EXPECT_EQ(second.sims_saved, first.sims_saved);
  EXPECT_EQ(second.sampling.best.front().index, first.sampling.best.front().index);
  EXPECT_EQ(second.sampling.combined, first.sampling.combined);
  ASSERT_EQ(second.per_target.size(), first.per_target.size());
  for (std::size_t t = 0; t < first.per_target.size(); ++t) {
    EXPECT_EQ(second.per_target[t].optimization.best_value,
              first.per_target[t].optimization.best_value);
    EXPECT_EQ(second.per_target[t].optimization.best_point,
              first.per_target[t].optimization.best_point);
    EXPECT_EQ(second.per_target[t].harvest_phase.stats,
              first.per_target[t].harvest_phase.stats);
  }
  for (const auto& session : second.sessions) {
    EXPECT_EQ(session.resumes, 1u);
  }
}

// A campaign's shared sampling.json records the targets it scored: a
// resume with as many targets but other ones is refused, not optimized
// from the other targets' best samples.
TEST(Campaign, ResumeRejectsOtherTargetsOfTheSameCount) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_pinned");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> two{
      neighbors::ApproximatedTarget({family[0]}, {{family[0], 1.0}}),
      neighbors::ApproximatedTarget({family[1]}, {{family[1], 1.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  (void)run_multi_target(io, farm, config, two, suite.front());

  config.resume = true;
  const std::vector<neighbors::ApproximatedTarget> other{
      two[0], neighbors::ApproximatedTarget({family[1]}, {{family[1], 2.0}})};
  exec::ThreadFarm farm2(2);
  EXPECT_THROW((void)run_multi_target(io, farm2, config, other, suite.front()),
               ConfigError);
  // The same targets still resume, without simulating.
  exec::ThreadFarm farm3(2);
  (void)run_multi_target(io, farm3, config, two, suite.front());
  EXPECT_EQ(farm3.total_simulations(), 0u);
}

// A campaign's shared session whose sampling.json holds the per-sample
// layout re-scores it against every target: with the per-target
// sessions gone, each target re-optimizes from its re-scored best
// sample and matches the uninterrupted campaign bit for bit.
TEST(Campaign, PerSampleSharedSamplingResumesBitIdentically) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_per_sample");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> targets{
      neighbors::ApproximatedTarget({family[2]},
                                    {{family[0], 0.5}, {family[2], 2.0}}),
      neighbors::ApproximatedTarget({family[3]},
                                    {{family[1], 0.5}, {family[3], 2.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  const auto first = run_multi_target(io, farm, config, targets, suite.front());

  write_digested_json_file(
      dir / "shared" / "sampling.json",
      per_sample_sampling(dir / "shared", config, io, farm, targets[0]));
  for (std::size_t t = 0; t < targets.size(); ++t) {
    fs::remove_all(dir / ("target_0" + std::to_string(t)));
  }
  config.resume = true;
  exec::ThreadFarm farm2(2);
  const auto second =
      run_multi_target(io, farm2, config, targets, suite.front());
  ASSERT_EQ(second.per_target.size(), first.per_target.size());
  for (std::size_t t = 0; t < first.per_target.size(); ++t) {
    EXPECT_EQ(second.sampling.best[t].index, first.sampling.best[t].index);
    EXPECT_EQ(second.sampling.best[t].point, first.sampling.best[t].point);
    EXPECT_EQ(second.per_target[t].optimization.best_point,
              first.per_target[t].optimization.best_point);
    EXPECT_EQ(second.per_target[t].optimization_phase.stats,
              first.per_target[t].optimization_phase.stats);
    EXPECT_EQ(second.per_target[t].harvest_phase.stats,
              first.per_target[t].harvest_phase.stats);
  }
  EXPECT_EQ(second.total_sims(), first.total_sims());
  EXPECT_EQ(farm2.total_simulations(),
            first.total_sims() - first.sampling.simulations);
}

TEST(Campaign, ResumeRejectsDifferentTargetSet) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_reject");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> two{
      neighbors::ApproximatedTarget({family[0]}, {{family[0], 1.0}}),
      neighbors::ApproximatedTarget({family[1]}, {{family[1], 1.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  (void)run_multi_target(io, farm, config, two, suite.front());

  // Resuming with a different target count contradicts the manifest.
  config.resume = true;
  const std::vector<neighbors::ApproximatedTarget> three{
      two[0], two[1],
      neighbors::ApproximatedTarget({family[2]}, {{family[2], 1.0}})};
  exec::ThreadFarm farm2(2);
  EXPECT_THROW((void)run_multi_target(io, farm2, config, three, suite.front()),
               ConfigError);
}

}  // namespace
}  // namespace ascdg::flow
