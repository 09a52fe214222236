// Embedded live-introspection HTTP server.
//
// A production CDG service runs for hours under a regression farm's
// load; waiting for the post-run `--metrics` file to know whether it
// is healthy does not scale. This server is the standard scrape
// pattern with zero dependencies: one listener socket on 127.0.0.1,
// one poll-loop thread, HTTP/1.1 with Connection: close. Endpoints:
//
//   GET /metrics          Prometheus text exposition (obs::to_prometheus)
//   GET /metrics.json     ascdg-metrics-v1 JSON snapshot
//   GET /healthz          liveness: always 200 {"status":"ok"} while the
//                         server runs
//   GET /runz             live flow state: phase span stack, optimizer
//                         iteration + best value, coverage progress
//   GET /timeseries       ascdg-timeseries-v1 telemetry ring (the live
//                         tail of the session's telemetry.jsonl)
//
// Request handling is deliberately single-threaded and bounded (4 KiB
// request cap, per-connection timeout): a scrape every few seconds is
// the design load, and a slow or malicious client can only delay the
// next scrape, never the flow (the flow never blocks on this thread).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"

namespace ascdg::obs {

class RunState;
class TimeSeriesRecorder;

struct HttpServerConfig {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back via HttpServer::port()).
  std::uint16_t port = 0;
  /// Registry served by /metrics + /metrics.json; nullptr selects the
  /// process-wide obs::registry().
  Registry* registry = nullptr;
  /// Live flow state for /runz; nullptr selects obs::run_state().
  RunState* run_state = nullptr;
  /// Telemetry ring for /timeseries (404 when absent).
  TimeSeriesRecorder* timeline = nullptr;
};

class HttpServer {
 public:
  /// Binds and starts serving; throws util::Error when the port cannot
  /// be bound.
  explicit HttpServer(HttpServerConfig config);

  /// Stops the poll loop and joins the serving thread.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the kernel's pick when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests answered so far (any status).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Renders the full HTTP response for one request line — the routing
  /// logic, exposed so tests can hit endpoints without a socket.
  [[nodiscard]] std::string handle(std::string_view method,
                                   std::string_view path);

 private:
  void serve_loop();

  HttpServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<bool> stopping_{false};
  Counter* requests_total_;
  std::thread thread_;
};

}  // namespace ascdg::obs
