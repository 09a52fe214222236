// Tests for the report module: status counting, table shapes, color
// coding by hit status, and the ASCII trace/status renderers.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "report/report.hpp"

namespace ascdg::report {
namespace {

using coverage::CoverageVector;
using coverage::EventId;
using coverage::SimStats;

/// A fabricated flow result with controlled per-phase hit counts for
/// three events.
flow::FlowResult fake_flow() {
  flow::FlowResult flow;
  const auto stats_with = [](std::size_t sims, std::size_t h0, std::size_t h1,
                             std::size_t h2) {
    SimStats stats(3);
    for (std::size_t i = 0; i < sims; ++i) {
      CoverageVector vec(3);
      if (i < h0) vec.hit(EventId{0});
      if (i < h1) vec.hit(EventId{1});
      if (i < h2) vec.hit(EventId{2});
      stats.record(vec);
    }
    return stats;
  };
  flow.before = {"Before CDG", 10000, stats_with(10000, 5000, 50, 0)};
  flow.sampling_phase = {"Sampling phase", 2000, stats_with(2000, 1500, 400, 20)};
  flow.optimization_phase = {"Optimization phase", 3000,
                             stats_with(3000, 2500, 1500, 500)};
  flow.harvest_phase = {"Running best test", 1000,
                        stats_with(1000, 950, 800, 400)};
  // Minimal optimization trace for render_trace.
  for (std::size_t i = 0; i < 7; ++i) {
    flow.optimization.trace.push_back(
        {i, 0.1 * static_cast<double>(i), 0.12 * static_cast<double>(i), 0.25,
         (i + 1) * 10, true});
  }
  return flow;
}

coverage::CoverageSpace three_event_space() {
  coverage::CoverageSpace space;
  space.declare_event("fam_a");
  space.declare_event("fam_b");
  space.declare_event("fam_c");
  return space;
}

TEST(CountStatus, ClassifiesPerConvention) {
  const auto flow = fake_flow();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  const auto before = count_status(flow.before.stats, events);
  EXPECT_EQ(before.well, 1u);     // e0: 5000/10000
  EXPECT_EQ(before.lightly, 1u);  // e1: 50 hits (< 100)
  EXPECT_EQ(before.never, 1u);    // e2: 0
  EXPECT_EQ(before.total(), 3u);

  const auto harvest = count_status(flow.harvest_phase.stats, events);
  EXPECT_EQ(harvest.well, 3u);
}

TEST(CountStatus, EmptyStatsAllNever) {
  const SimStats empty(3);
  const std::vector<EventId> events{EventId{0}, EventId{1}};
  const auto counts = count_status(empty, events);
  EXPECT_EQ(counts.never, 2u);
}

TEST(PhaseTable, ShapeAndContent) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  const auto table = phase_table(space, events, flow);
  EXPECT_EQ(table.column_count(), 1u + 4u * 2u);  // name + 4 phases x 2
  EXPECT_EQ(table.row_count(), 3u);
  std::ostringstream os;
  table.render(os, false);
  const std::string text = os.str();
  EXPECT_NE(text.find("fam_a"), std::string::npos);
  EXPECT_NE(text.find("5,000"), std::string::npos);
  EXPECT_NE(text.find("50.000%"), std::string::npos);
}

TEST(PhaseTable, ColorsFollowStatus) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{2}};
  const auto table = phase_table(space, events, flow);
  std::ostringstream os;
  table.render(os, true);
  const std::string text = os.str();
  EXPECT_NE(text.find("\x1b[31m"), std::string::npos);  // never -> red
  EXPECT_NE(text.find("\x1b[32m"), std::string::npos);  // well -> green
}

TEST(StatusTable, OneRowPerPhase) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  const auto table = status_table(space, events, flow);
  EXPECT_EQ(table.row_count(), 4u);
  std::ostringstream os;
  table.render(os, false);
  EXPECT_NE(os.str().find("Optimization phase"), std::string::npos);
}

TEST(StatusBars, RendersOneBarPerPhase) {
  const auto flow = fake_flow();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  std::ostringstream os;
  render_status_bars(os, events, flow, false);
  const std::string text = os.str();
  EXPECT_NE(text.find("Before CDG"), std::string::npos);
  EXPECT_NE(text.find("Running best test"), std::string::npos);
  EXPECT_NE(text.find("never=1"), std::string::npos);
  // 4 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(StatusBars, EmptyEventsNoOutput) {
  const auto flow = fake_flow();
  std::ostringstream os;
  render_status_bars(os, {}, flow, false);
  EXPECT_TRUE(os.str().empty());
}

TEST(Trace, RendersAllIterations) {
  const auto flow = fake_flow();
  std::ostringstream os;
  render_trace(os, flow.optimization, 8);
  const std::string text = os.str();
  // One star per iteration.
  EXPECT_EQ(std::count(text.begin(), text.end(), '*'), 7);
  EXPECT_NE(text.find("(iteration)"), std::string::npos);
}

TEST(Trace, LongTraceIsBucketedIntoAtMostSixtyColumns) {
  // 200 iterations, 4 per column: 50 columns, each plotting its
  // bucket's max and labelled with the bucket's last iteration.
  opt::OptResult long_run;
  for (std::size_t i = 0; i < 200; ++i) {
    const double value = static_cast<double>(i % 7);
    long_run.trace.push_back({i, value, value, 0.1, i + 1, false});
  }
  std::ostringstream os;
  render_trace(os, long_run);
  const std::string text = os.str();
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 260u) << line;
  }
  EXPECT_EQ(std::count(text.begin(), text.end(), '*'), 50);
  EXPECT_NE(text.find(" 200 "), std::string::npos);
  EXPECT_EQ(text.find(" 199 "), std::string::npos);
  EXPECT_NE(text.find("max of up to 4"), std::string::npos);
}

TEST(Trace, EmptyTraceHandled) {
  opt::OptResult empty;
  std::ostringstream os;
  render_trace(os, empty);
  EXPECT_NE(os.str().find("no optimization iterations"), std::string::npos);
}

TEST(Trace, FlatTraceDoesNotDivideByZero) {
  opt::OptResult flat;
  for (std::size_t i = 0; i < 3; ++i) {
    flat.trace.push_back({i, 0.5, 0.5, 0.1, i + 1, false});
  }
  std::ostringstream os;
  EXPECT_NO_THROW(render_trace(os, flat));
}

TEST(Caption, MentionsAllPhases) {
  const auto flow = fake_flow();
  const auto caption = phase_caption(flow);
  EXPECT_NE(caption.find("Before CDG (10,000 sims)"), std::string::npos);
  EXPECT_NE(caption.find("Optimization"), std::string::npos);
  EXPECT_NE(caption.find("Best test (1,000 sims)"), std::string::npos);
}

TEST(Markdown, WriteFlowReport) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  const auto path = std::filesystem::temp_directory_path() /
                    ("ascdg_report_" + std::to_string(::getpid())) /
                    "flow.md";
  write_flow_markdown(path, space, events, flow);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# AS-CDG flow report"), std::string::npos);
  EXPECT_NE(text.find("| fam_a |"), std::string::npos);
  EXPECT_NE(text.find("## Optimization progress"), std::string::npos);
  EXPECT_NE(text.find("```"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(path.parent_path(), ec);
}

TEST(Telemetry, TableCoversFlowPhasesAndTotal) {
  auto flow = fake_flow();
  flow.sampling_phase.wall_ms = 100.0;
  flow.optimization_phase.wall_ms = 300.0;
  flow.harvest_phase.wall_ms = 100.0;
  std::ostringstream os;
  telemetry_table(flow).render_markdown(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Sampling phase"), std::string::npos);
  EXPECT_NE(text.find("Optimization phase"), std::string::npos);
  EXPECT_NE(text.find("Running best test"), std::string::npos);
  EXPECT_NE(text.find("Flow total"), std::string::npos);
  // 2,000 of 6,000 flow sims -> 33.3% share; 2,000 sims / 0.1 s.
  EXPECT_NE(text.find("33.3%"), std::string::npos);
  EXPECT_NE(text.find("20,000"), std::string::npos);
}

TEST(Telemetry, MarkdownReportIncludesFarmCounters) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  exec::TelemetrySnapshot farm;
  farm.simulations = 6000;
  farm.chunks = 94;
  farm.exceptions = 2;
  farm.runs = 3;
  farm.busy_ns = 94'000'000;  // 1,000 us mean chunk
  farm.chunk_latency[9] = 94;
  const auto path = std::filesystem::temp_directory_path() /
                    ("ascdg_report_tele_" + std::to_string(::getpid())) /
                    "flow.md";
  write_flow_markdown(path, space, events, flow, &farm);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("## Run telemetry"), std::string::npos);
  EXPECT_NE(text.find("Farm counters: 6,000 sims in 94 chunks"),
            std::string::npos);
  EXPECT_NE(text.find("(2 exceptions, 3 runs)"), std::string::npos);
  EXPECT_NE(text.find("Mean chunk wall time: 1000.0 us"), std::string::npos);
  EXPECT_NE(text.find("| [512, 1024) us | 94 |"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(path.parent_path(), ec);
}

TEST(Markdown, SessionStageTablePrintsWallMsFixedPoint) {
  const auto flow = fake_flow();
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  flow::SessionSummary session;
  session.dir = "sess";
  session.stages = {{"sampling", "done", 2000, 312.5},
                    {"harvest", "done", 1000, 1234.56},
                    {"optimization", "pending", 0, 0.0}};
  const auto path = std::filesystem::temp_directory_path() /
                    ("ascdg_report_session_" + std::to_string(::getpid())) /
                    "flow.md";
  write_flow_markdown(path, space, events, flow, nullptr, &session);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("| sampling | done | 2000 | 312.5 |"), std::string::npos)
      << text;
  EXPECT_NE(text.find("| harvest | done | 1000 | 1234.6 |"), std::string::npos);
  EXPECT_NE(text.find("| optimization | pending | 0 | 0.0 |"),
            std::string::npos);
  EXPECT_EQ(text.find("e+"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(path.parent_path(), ec);
}

TEST(Convergence, SectionRendersCurveAndCoverageProgress) {
  auto flow = fake_flow();
  flow.first_hits = {{EventId{0}, "before"},
                     {EventId{1}, "optimization"},
                     {EventId{2}, "never"}};
  const auto space = three_event_space();
  std::ostringstream os;
  render_convergence(os, space, flow);
  const std::string text = os.str();
  EXPECT_NE(text.find("## Convergence"), std::string::npos);
  EXPECT_NE(text.find("```"), std::string::npos);  // fenced ASCII curve
  EXPECT_NE(text.find("| phase | newly hit | cumulative |"),
            std::string::npos);
  EXPECT_NE(text.find("| before | 1 | 1 |"), std::string::npos);
  EXPECT_NE(text.find("| sampling | 0 | 1 |"), std::string::npos);
  EXPECT_NE(text.find("| optimization | 1 | 2 |"), std::string::npos);
  EXPECT_NE(text.find("| never | 1 |"), std::string::npos);
  // Small event sets get the per-event first-hit table.
  EXPECT_NE(text.find("| `fam_b` | optimization |"), std::string::npos);
}

TEST(Convergence, MarkdownReportIncludesConvergenceSection) {
  auto flow = fake_flow();
  flow.first_hits = {{EventId{0}, "sampling"}};
  const auto space = three_event_space();
  const std::vector<EventId> events{EventId{0}, EventId{1}, EventId{2}};
  const auto path = std::filesystem::temp_directory_path() /
                    ("ascdg_report_conv_" + std::to_string(::getpid())) /
                    "flow.md";
  write_flow_markdown(path, space, events, flow);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("## Convergence"), std::string::npos);
  EXPECT_NE(text.find("Coverage progress"), std::string::npos);
  // The extended optimization-progress table carries the telemetry
  // columns.
  EXPECT_NE(text.find("| resampled | halved |"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(path.parent_path(), ec);
}

TEST(MetricsJson, CarriesOptSeriesFirstHitsAndRegistry) {
  auto flow = fake_flow();
  flow.seed_template = "seed_tmpl";
  flow.first_hits = {{EventId{0}, "sampling"}, {EventId{2}, "never"}};
  flow.optimization.trace.clear();
  flow.optimization.trace.push_back(
      {0, 0.25, 0.3, 0.4, 12, true, 0, false});
  flow.optimization.trace.push_back(
      {1, 0.3, 0.31, 0.4, 24, false, 1, true});
  const auto space = three_event_space();

  obs::Registry reg;
  reg.counter("ascdg_test_series_total").add(5);
  const auto path = std::filesystem::temp_directory_path() /
                    ("ascdg_report_metrics_" + std::to_string(::getpid())) /
                    "m.json";
  write_metrics_json(path, space, flow, reg.snapshot());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"schema\":\"ascdg-run-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"seed_template\":\"seed_tmpl\""), std::string::npos);
  // Per-iteration implicit-filtering series: objective, step, resamples.
  EXPECT_NE(text.find("\"opt_series\":[{\"iter\":0,\"objective\":0.25,"
                      "\"best\":0.3,\"step\":0.4,\"evals\":12,\"moved\":true,"
                      "\"resamples\":0,\"halved\":false}"),
            std::string::npos);
  EXPECT_NE(text.find("\"resamples\":1,\"halved\":true"), std::string::npos);
  // Per-event first-hit data.
  EXPECT_NE(
      text.find("{\"event\":\"fam_a\",\"event_id\":0,\"phase\":\"sampling\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find("{\"event\":\"fam_c\",\"event_id\":2,\"phase\":\"never\"}"),
      std::string::npos);
  // The registry snapshot rides along under "registry".
  EXPECT_NE(text.find("\"registry\":{\"schema\":\"ascdg-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"ascdg_test_series_total\""),
            std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(path.parent_path(), ec);
}

}  // namespace
}  // namespace ascdg::report
