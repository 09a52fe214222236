// TimeSeriesRecorder + TraceProfile: the historical layer of the
// observability stack. The load-bearing invariants are (a) the ring,
// the telemetry.jsonl file, and the /timeseries endpoint all serve the
// SAME rendered bytes — an offline replay of the file is bit-identical
// to what a live scrape saw — and (b) append-mode resume continues the
// sequence where the previous process stopped.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/run_state.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_profile.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"

namespace {

using namespace ascdg;
using namespace ascdg::obs;

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_timeline_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// A recorder config with the sampler thread off: tests drive
/// sample_now() themselves for determinism.
TimeSeriesConfig manual_config(Registry& reg, RunState& run) {
  TimeSeriesConfig config;
  config.start_thread = false;
  config.registry = &reg;
  config.run_state = &run;
  config.sample_resources = false;  // keep lines deterministic
  return config;
}

TEST(TimeSeries, SampleLineCarriesCoreFields) {
  Registry reg;
  reg.counter("ascdg_farm_simulations_total", {{"farm", "a"}}).add(100);
  reg.counter("ascdg_farm_simulations_total", {{"farm", "b"}}).add(50);
  reg.gauge("ascdg_farm_worker_busy_fraction", {{"farm", "a"}}).set(600'000);
  RunState run;
  run.start_flow("tmpl_a");
  run.enter_phase("optimization");
  run.set_optimizer(3, 0.25);

  TimeSeriesRecorder recorder(manual_config(reg, run));
  recorder.sample_now();

  const auto ring = recorder.ring();
  ASSERT_EQ(ring.size(), 1u);
  const util::JsonValue doc = util::json_parse(ring.front());
  EXPECT_EQ(doc.at("seq").as_uint64(), 0u);
  EXPECT_EQ(doc.at("phase").as_string(), "optimization");
  EXPECT_EQ(doc.at("sims").as_uint64(), 150u);  // summed across farms
  EXPECT_EQ(doc.at("sims_per_sec").as_double(), 0.0);  // no previous sample
  EXPECT_EQ(doc.at("opt_iteration").as_uint64(), 3u);
  EXPECT_EQ(doc.at("opt_best_value").as_double(), 0.25);
  EXPECT_EQ(doc.at("worker_busy_ppm").as_int64(), 600'000);
  // Resources were disabled; the fields must be absent, not zero.
  EXPECT_EQ(doc.find("rss_bytes"), nullptr);
  EXPECT_EQ(doc.find("cpu_user_ms"), nullptr);
}

TEST(TimeSeries, DerivedSimsPerSecUsesTheDeltaBetweenSamples) {
  Registry reg;
  auto& sims = reg.counter("ascdg_farm_simulations_total");
  RunState run;
  TimeSeriesRecorder recorder(manual_config(reg, run));

  sims.add(100);
  recorder.sample_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sims.add(500);
  recorder.sample_now();

  const auto ring = recorder.ring();
  ASSERT_EQ(ring.size(), 2u);
  const util::JsonValue second = util::json_parse(ring.back());
  EXPECT_GT(second.at("sims_per_sec").as_double(), 0.0);
  EXPECT_EQ(second.at("sims").as_uint64(), 600u);
}

TEST(TimeSeries, RingWrapKeepsTheNewestSamplesInOrder) {
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.ring_capacity = 4;
  TimeSeriesRecorder recorder(config);

  for (int i = 0; i < 7; ++i) recorder.sample_now();

  EXPECT_EQ(recorder.samples_taken(), 7u);
  const auto ring = recorder.ring();
  ASSERT_EQ(ring.size(), 4u);
  std::uint64_t expected_seq = 3;  // oldest retained sample
  for (const auto& line : ring) {
    EXPECT_EQ(util::json_parse(line).at("seq").as_uint64(), expected_seq);
    ++expected_seq;
  }
}

TEST(TimeSeries, FileIsTheRingsSupersetBitForBit) {
  const fs::path dir = scratch_dir("replay");
  Registry reg;
  auto& sims = reg.counter("ascdg_farm_simulations_total");
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.ring_capacity = 3;
  config.jsonl_path = dir / "telemetry.jsonl";
  TimeSeriesRecorder recorder(config);
  ASSERT_TRUE(recorder.writing_file());

  for (int i = 0; i < 6; ++i) {
    sims.add(7);
    recorder.sample_now();
  }

  // The file holds the full history; the ring holds its tail — the
  // shared rendered string makes an offline replay of the file
  // bit-identical to what the live endpoint served.
  const auto lines = read_lines(config.jsonl_path);
  ASSERT_EQ(lines.size(), 6u);
  const auto ring = recorder.ring();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_TRUE(std::equal(ring.begin(), ring.end(), lines.end() - 3));
}

TEST(TimeSeries, StopTakesAFinalSampleAndFinalizesTheIndex) {
  const fs::path dir = scratch_dir("final");
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.jsonl_path = dir / "telemetry.jsonl";
  config.index_path = dir / "telemetry.index.json";
  config.sample_interval = std::chrono::milliseconds(60'000);
  TimeSeriesRecorder recorder(config);

  recorder.stop();
  recorder.stop();  // idempotent

  // Even a run far shorter than one interval records its end state.
  EXPECT_EQ(recorder.samples_taken(), 1u);
  EXPECT_EQ(read_lines(config.jsonl_path).size(), 1u);
  const auto index_lines = read_lines(config.index_path);
  ASSERT_EQ(index_lines.size(), 1u);
  const util::JsonValue index = util::json_parse(index_lines.front());
  EXPECT_EQ(index.at("schema").as_string(), kTimeSeriesSchema);
  EXPECT_EQ(index.at("samples").as_uint64(), 1u);
  EXPECT_EQ(index.at("file").as_string(), "telemetry.jsonl");
  EXPECT_TRUE(index.at("final").as_bool());
}

// A failed index write is not latched: a session reap can unlink the
// index's temp file under the sampler, and the final index must still
// be written, counting every sample.
TEST(TimeSeries, FailedIndexWriteIsRewrittenByStop) {
  using Fp = util::FailurePoint;
  const fs::path dir = scratch_dir("index_retry");
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.jsonl_path = dir / "telemetry.jsonl";
  config.index_path = dir / "telemetry.index.json";
  TimeSeriesRecorder recorder(config);

  Fp::prime_one_shot(Fp::Id::kAtomicWriteRename);
  recorder.sample_now();  // the first index write fails
  EXPECT_EQ(Fp::fires(Fp::Id::kAtomicWriteRename), 1u);
  Fp::disarm_all();
  EXPECT_FALSE(fs::exists(config.index_path));

  recorder.stop();
  const auto index_lines = read_lines(config.index_path);
  ASSERT_EQ(index_lines.size(), 1u);
  const util::JsonValue index = util::json_parse(index_lines.front());
  EXPECT_TRUE(index.at("final").as_bool());
  EXPECT_EQ(index.at("samples").as_uint64(), 2u);
  EXPECT_EQ(read_lines(config.jsonl_path).size(), 2u);
}

TEST(TimeSeries, AppendModeContinuesTheSequenceAcrossProcesses) {
  const fs::path dir = scratch_dir("append");
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.jsonl_path = dir / "telemetry.jsonl";

  {
    TimeSeriesRecorder first(config);
    first.sample_now();
    first.sample_now();
    first.stop();  // +1 final sample -> 3 lines on disk
  }
  ASSERT_EQ(read_lines(config.jsonl_path).size(), 3u);

  config.append = true;
  TimeSeriesRecorder resumed(config);
  // The file tail was preloaded: the ring shows one continuous history.
  EXPECT_EQ(resumed.samples_taken(), 3u);
  EXPECT_EQ(resumed.ring().size(), 3u);

  resumed.sample_now();
  const auto ring = resumed.ring();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(util::json_parse(ring.back()).at("seq").as_uint64(), 3u);
  const auto lines = read_lines(config.jsonl_path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines, ring);
}

TEST(TimeSeries, AppendPreloadOnlyKeepsTheTailWhenTheFileIsLong) {
  const fs::path dir = scratch_dir("append_wrap");
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.jsonl_path = dir / "telemetry.jsonl";
  config.ring_capacity = 2;
  {
    TimeSeriesRecorder first(config);
    for (int i = 0; i < 5; ++i) first.sample_now();
  }

  config.append = true;
  TimeSeriesRecorder resumed(config);
  EXPECT_EQ(resumed.samples_taken(), 6u);  // 5 + the dtor's final sample
  const auto ring = resumed.ring();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(util::json_parse(ring.front()).at("seq").as_uint64(), 4u);
  EXPECT_EQ(util::json_parse(ring.back()).at("seq").as_uint64(), 5u);
}

TEST(TimeSeries, UnwritableSinkDegradesToMemoryOnly) {
  const fs::path dir = scratch_dir("degrade");
  // The sink's parent "directory" is a regular file, so the sink can
  // never open. The recorder must keep sampling in memory, not throw.
  std::ofstream(dir / "blocker").put('\n');
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.jsonl_path = dir / "blocker" / "telemetry.jsonl";
  config.index_path = dir / "blocker" / "telemetry.index.json";
  TimeSeriesRecorder recorder(config);

  EXPECT_FALSE(recorder.writing_file());
  recorder.sample_now();
  EXPECT_EQ(recorder.ring().size(), 1u);
  recorder.stop();
  EXPECT_EQ(recorder.samples_taken(), 2u);
}

TEST(TimeSeries, ToJsonWrapsTheRingInTheV1Envelope) {
  Registry reg;
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.sample_interval = std::chrono::milliseconds(250);
  TimeSeriesRecorder recorder(config);
  recorder.sample_now();
  recorder.sample_now();

  const util::JsonValue doc = util::json_parse(recorder.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), kTimeSeriesSchema);
  EXPECT_EQ(doc.at("interval_ms").as_uint64(), 250u);
  EXPECT_EQ(doc.at("samples").as_uint64(), 2u);
  ASSERT_EQ(doc.at("ring").as_array().size(), 2u);
  EXPECT_EQ(doc.at("ring").as_array()[1].at("seq").as_uint64(), 1u);
}

TEST(TimeSeries, ExtrasAreSampledByFullSeriesKey) {
  Registry reg;
  reg.counter("ascdg_opt_iterations_total").add(4);
  reg.counter("ascdg_farm_chunks_total", {{"farm", "a"}}).add(9);
  RunState run;
  TimeSeriesConfig config = manual_config(reg, run);
  config.extra_metrics = {"ascdg_opt_iterations_total",
                          "ascdg_farm_chunks_total{farm=\"a\"}",
                          "ascdg_absent_metric"};
  TimeSeriesRecorder recorder(config);
  recorder.sample_now();

  const util::JsonValue doc = util::json_parse(recorder.ring().front());
  const util::JsonValue& extras = doc.at("extras");
  EXPECT_EQ(extras.at("ascdg_opt_iterations_total").as_uint64(), 4u);
  EXPECT_EQ(extras.at("ascdg_farm_chunks_total{farm=\"a\"}").as_uint64(), 9u);
  EXPECT_EQ(extras.find("ascdg_absent_metric"), nullptr);
}

TEST(TimeSeries, HttpEndpointServesTheRecorderVerbatim) {
  Registry reg;
  RunState run;
  TimeSeriesRecorder recorder(manual_config(reg, run));
  recorder.sample_now();

  HttpServerConfig http;
  http.registry = &reg;
  http.timeline = &recorder;
  HttpServer server(http);
  const std::string response = server.handle("GET", "/timeseries");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find(recorder.to_json()), std::string::npos);

  HttpServerConfig bare;
  bare.registry = &reg;
  HttpServer without(bare);
  const std::string missing = without.handle("GET", "/timeseries");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("--timeline"), std::string::npos);
}

// ------------------------------------------------------------ profile

std::string span_line(const char* name, std::uint64_t id,
                      std::uint64_t parent, std::uint64_t dur_us) {
  std::ostringstream os;
  os << R"({"event":"span","span":")" << name << R"(","span_id":)" << id
     << ",\"parent_id\":" << parent << ",\"start_us\":0,\"dur_us\":" << dur_us
     << "}";
  return os.str();
}

TEST(TraceProfile, FoldsTheSpanStreamBackIntoATree) {
  // Children end (and are written) before their parent — the profile
  // must reassemble the tree from span_id/parent_id.
  std::string text;
  text += span_line("eval_batch", 3, 2, 40) + "\n";
  text += span_line("eval_batch", 4, 2, 60) + "\n";
  text += span_line("optimization", 2, 1, 150) + "\n";
  text += span_line("sampling", 5, 1, 50) + "\n";
  text += span_line("flow", 1, 0, 300) + "\n";

  const TraceProfile profile = TraceProfile::from_text(text);
  EXPECT_EQ(profile.spans(), 5u);
  EXPECT_EQ(profile.skipped_lines(), 0u);
  ASSERT_EQ(profile.roots().size(), 1u);
  const TraceProfileNode& flow = profile.roots().front();
  EXPECT_EQ(flow.name, "flow");
  EXPECT_EQ(flow.count, 1u);
  EXPECT_EQ(flow.total_us, 300u);
  EXPECT_EQ(flow.self_us, 100u);  // 300 - (150 + 50)
  EXPECT_EQ(profile.total_us(), 300u);

  // Children are sorted by total time, heaviest first.
  ASSERT_EQ(flow.children.size(), 2u);
  EXPECT_EQ(flow.children[0].name, "optimization");
  EXPECT_EQ(flow.children[0].depth, 1u);
  EXPECT_EQ(flow.children[1].name, "sampling");

  const TraceProfileNode& opt = flow.children[0];
  ASSERT_EQ(opt.children.size(), 1u);
  EXPECT_EQ(opt.children[0].name, "eval_batch");
  EXPECT_EQ(opt.children[0].count, 2u);
  EXPECT_EQ(opt.children[0].total_us, 100u);
  EXPECT_EQ(opt.self_us, 50u);  // 150 - 100

  // flatten() walks parents before children.
  const auto flat = profile.flatten();
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0].name, "flow");
  EXPECT_EQ(flat[1].name, "optimization");
  EXPECT_EQ(flat[2].name, "eval_batch");
  EXPECT_EQ(flat[3].name, "sampling");
}

TEST(TraceProfile, QuantilesAreNearestRankOverEachNamePath) {
  std::string text;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    text += span_line("chunk", i, 0, i) + "\n";
  }
  const TraceProfile profile = TraceProfile::from_text(text);
  ASSERT_EQ(profile.roots().size(), 1u);
  const TraceProfileNode& chunk = profile.roots().front();
  EXPECT_EQ(chunk.count, 100u);
  EXPECT_EQ(chunk.p50_us, 50u);
  EXPECT_EQ(chunk.p95_us, 95u);
  EXPECT_EQ(chunk.p99_us, 99u);
}

TEST(TraceProfile, ToleratesGarbageOrphansAndForeignEvents) {
  std::string text;
  text += span_line("work", 7, 999, 25) + "\n";  // parent never written
  text += "{\"event\":\"flow_end\",\"sims\":12}\n";  // non-span: ignored
  text += "{\"event\":\"span\",\"span\":\"torn";     // crash-truncated
  text += "\nnot json at all\n";

  const TraceProfile profile = TraceProfile::from_text(text);
  EXPECT_EQ(profile.spans(), 1u);
  EXPECT_EQ(profile.skipped_lines(), 2u);
  // The orphan is promoted to a root rather than dropped: a truncated
  // trace (parent span lost in the crash) still profiles its children.
  ASSERT_EQ(profile.roots().size(), 1u);
  EXPECT_EQ(profile.roots().front().name, "work");
  EXPECT_EQ(profile.roots().front().total_us, 25u);
}

TEST(TraceProfile, RenderPrintsTheIndentedTree) {
  std::string text;
  text += span_line("child", 2, 1, 30) + "\n";
  text += span_line("root", 1, 0, 100) + "\n";
  const TraceProfile profile = TraceProfile::from_text(text);
  std::ostringstream os;
  profile.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("root"), std::string::npos);
  EXPECT_NE(out.find("  child"), std::string::npos);
  EXPECT_NE(out.find("n=1"), std::string::npos);
  EXPECT_NE(out.find("(30%)"), std::string::npos);

  std::ostringstream empty_os;
  TraceProfile::from_text("").render(empty_os);
  EXPECT_NE(empty_os.str().find("(no spans)"), std::string::npos);
}

TEST(TraceProfile, FromJsonlThrowsOnMissingFileOnly) {
  EXPECT_THROW(
      (void)TraceProfile::from_jsonl("/nonexistent/ascdg-trace.jsonl"),
      util::Error);
}

}  // namespace
