// Tests for the live-introspection service: resource telemetry, live
// run state, the embedded HTTP server, and the farm's utilization
// gauges.
#include <gtest/gtest.h>

#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <string>

#include "duv/io_unit.hpp"
#include "exec/thread_farm.hpp"
#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_state.hpp"

namespace ascdg::obs {
namespace {

// ----------------------------------------------------------- run state

TEST(RunState, TracksPhaseStackOptimizerAndCoverage) {
  RunState state;
  EXPECT_EQ(state.snapshot().current_phase(), "idle");
  state.start_flow("seed_a");
  state.enter_phase("flow");
  state.enter_phase("sampling");
  RunState::Snapshot snap = state.snapshot();
  EXPECT_EQ(snap.seed_template, "seed_a");
  EXPECT_EQ(snap.current_phase(), "sampling");
  ASSERT_EQ(snap.phase_stack.size(), 2u);
  EXPECT_EQ(snap.phase_stack.front(), "flow");

  state.exit_phase();
  EXPECT_EQ(state.snapshot().current_phase(), "flow");
  state.exit_phase();
  state.exit_phase();  // empty stack: no-op, no underflow
  EXPECT_EQ(state.snapshot().current_phase(), "idle");

  state.set_optimizer(3, 0.5);
  state.set_coverage(4, 2);
  snap = state.snapshot();
  EXPECT_TRUE(snap.opt_started);
  EXPECT_EQ(snap.opt_iteration, 3u);
  EXPECT_DOUBLE_EQ(snap.opt_best_value, 0.5);
  EXPECT_TRUE(snap.coverage_known);
  EXPECT_EQ(snap.targets_hit, 4u);
  EXPECT_EQ(snap.targets_remaining, 2u);
  EXPECT_GE(snap.updates, 8u);

  state.reset();
  snap = state.snapshot();
  EXPECT_EQ(snap.current_phase(), "idle");
  EXPECT_FALSE(snap.opt_started);
  EXPECT_GE(snap.updates, 9u);  // reset itself counts as progress
}

// ------------------------------------------------------------ resource

TEST(Resource, ReadsPlausibleUsageAndPublishesGauges) {
  const ResourceUsage usage = read_resource_usage();
  EXPECT_GT(usage.max_rss_bytes, 0u);
  EXPECT_GT(usage.rss_bytes, 0u);
  EXPECT_GT(usage.cpu_us(), 0u);

  Registry reg;
  const ResourceUsage published = update_resource_gauges(reg);
  EXPECT_GT(published.rss_bytes, 0u);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricSample* rss = snap.find("ascdg_proc_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->gauge, 0);
  EXPECT_NE(snap.find("ascdg_proc_max_rss_bytes"), nullptr);
  EXPECT_NE(snap.find("ascdg_proc_cpu_user_ms"), nullptr);
  EXPECT_NE(snap.find("ascdg_proc_cpu_system_ms"), nullptr);
  const MetricSample* hist = snap.find("ascdg_proc_rss_sample_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
}

TEST(Resource, MissingStatmSkipsRssGaugesInsteadOfPublishingZero) {
  // Platforms without /proc/self/statm must not report RSS as 0 —
  // the gauges are skipped entirely and the getrusage-backed ones stay.
  const ResourceUsage usage =
      read_resource_usage_at("/nonexistent/statm-for-ascdg-test");
  EXPECT_FALSE(usage.rss_available);
  EXPECT_EQ(usage.rss_bytes, 0u);
  EXPECT_GT(usage.max_rss_bytes, 0u);  // getrusage still works

  Registry reg;
  update_resource_gauges(reg, usage);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("ascdg_proc_rss_bytes"), nullptr);
  EXPECT_EQ(snap.find("ascdg_proc_vm_bytes"), nullptr);
  EXPECT_EQ(snap.find("ascdg_proc_rss_sample_bytes"), nullptr);
  EXPECT_NE(snap.find("ascdg_proc_max_rss_bytes"), nullptr);
  EXPECT_NE(snap.find("ascdg_proc_cpu_user_ms"), nullptr);

  // Phase footprints degrade the same way.
  ResourceUsage start;
  ResourceUsage end;
  end.user_cpu_us = 1000;
  update_phase_resource_gauges(reg, "sampling", start, end);
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.find("ascdg_phase_rss_bytes", "phase=\"sampling\""), nullptr);
  EXPECT_NE(after.find("ascdg_phase_cpu_ms", "phase=\"sampling\""), nullptr);
}

TEST(Resource, StatmBackedReadMarksRssAvailable) {
  const ResourceUsage usage = read_resource_usage();
  EXPECT_TRUE(usage.rss_available);
}

TEST(Resource, PhaseFootprintGaugesAreLabeledPerPhase) {
  Registry reg;
  ResourceUsage start;
  ResourceUsage end;
  start.user_cpu_us = 1000;
  end.user_cpu_us = 3500;
  end.rss_bytes = 8ull << 20;
  end.rss_available = true;
  update_phase_resource_gauges(reg, "sampling", start, end);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricSample* cpu = snap.find("ascdg_phase_cpu_ms", "phase=\"sampling\"");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->gauge, 2);  // 2500 us -> 2 ms
  const MetricSample* rss =
      snap.find("ascdg_phase_rss_bytes", "phase=\"sampling\"");
  ASSERT_NE(rss, nullptr);
  EXPECT_EQ(rss->gauge, 8ll << 20);
}

// ---------------------------------------------------------------- http

TEST(HttpServer, MetricsEndpointMatchesTheExporterByteForByte) {
  Registry reg;
  reg.counter("ascdg_demo_total", {{"farm", "9"}}).add(41);
  HttpServerConfig config;
  config.registry = &reg;
  HttpServer server(config);
  EXPECT_NE(server.port(), 0);

  const std::string response = server.handle("GET", "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  // The served body and a direct registry export are the same snapshot
  // (the request counter ticks before the snapshot, so both sides see
  // this request).
  EXPECT_EQ(response.substr(split + 4), to_prometheus(reg.snapshot()));
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServer, MetricsJsonServesTheV1Schema) {
  Registry reg;
  reg.counter("ascdg_demo_total").add(7);
  HttpServerConfig config;
  config.registry = &reg;
  HttpServer server(config);
  const std::string response = server.handle("GET", "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"schema\":\"ascdg-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(response.find("\"name\":\"ascdg_demo_total\""), std::string::npos);
}

TEST(HttpServer, HealthzReportsOk) {
  Registry reg;
  HttpServerConfig config;
  config.registry = &reg;
  HttpServer server(config);
  const std::string response = server.handle("GET", "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"schema\":\"ascdg-healthz-v1\""),
            std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

TEST(HttpServer, RunzServesThePrivateRunState) {
  Registry reg;
  RunState state;
  state.start_flow("seed_x");
  state.enter_phase("flow");
  state.enter_phase("optimization");
  state.set_optimizer(5, 1.25);
  HttpServerConfig config;
  config.registry = &reg;
  config.run_state = &state;
  HttpServer server(config);
  const std::string response = server.handle("GET", "/runz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"schema\":\"ascdg-runz-v1\""), std::string::npos);
  EXPECT_NE(response.find("\"phase\":\"optimization\""), std::string::npos);
  EXPECT_NE(response.find("\"phase_stack\":[\"flow\",\"optimization\"]"),
            std::string::npos);
  EXPECT_NE(response.find("\"seed_template\":\"seed_x\""), std::string::npos);
  EXPECT_NE(response.find("\"opt_iteration\":5"), std::string::npos);
  EXPECT_NE(response.find("\"opt_best_value\":1.25"), std::string::npos);
}

TEST(HttpServer, RejectsUnknownPathsAndNonGetMethods) {
  Registry reg;
  HttpServerConfig config;
  config.registry = &reg;
  HttpServer server(config);
  const std::string missing = server.handle("GET", "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(missing.find("/timeseries"), std::string::npos);  // hint
  const std::string post = server.handle("POST", "/metrics");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  // Query strings are ignored, not 404ed.
  const std::string query = server.handle("GET", "/healthz?verbose=1");
  EXPECT_NE(query.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST(HttpServer, ServesARealSocketClient) {
  Registry reg;
  reg.counter("ascdg_socket_total").add(1);
  HttpServerConfig config;
  config.registry = &reg;
  HttpServer server(config);
  ASSERT_NE(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr), 0);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("ascdg_socket_total 1"), std::string::npos);
}

TEST(Introspection, FarmPublishesBusyFraction) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  (void)farm.run(io, io.defaults(), 64, 0xFA53);
  const exec::TelemetrySnapshot after = farm.telemetry();
  EXPECT_GT(after.busy_ns, 0u);
  EXPECT_GT(after.busy_fraction, 0.0);
  EXPECT_LE(after.busy_fraction, 1.0);
  // The ppm gauge mirror of the same number is in the registry.
  bool found = false;
  for (const auto& sample : registry().snapshot().samples) {
    if (sample.name == "ascdg_farm_worker_busy_fraction" &&
        sample.gauge > 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ascdg::obs
