#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/export.hpp"
#include "obs/run_state.hpp"
#include "obs/timeline.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"

namespace ascdg::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 4096;
constexpr int kPollTimeoutMs = 200;
constexpr int kClientTimeoutMs = 2000;

const char* reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
  }
  return "Internal Server Error";
}

std::string make_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' +
                    reason_phrase(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string json_response(int status, const util::JsonObject& object) {
  return make_response(status, "application/json", object.str() + "\n");
}

using Fp = util::FailurePoint;

/// accept(2) with EINTR retry: a signal landing on the serve thread
/// must not drop a pending connection. The FailurePoint simulates a
/// failing accept for the fault tests.
int accept_retry(int listen_fd) noexcept {
  for (;;) {
    int client = -1;
    if (const int e = Fp::check(Fp::Id::kHttpAccept); e != 0) {
      errno = e;
    } else {
      client = ::accept(listen_fd, nullptr, nullptr);
    }
    if (client >= 0 || errno != EINTR) return client;
  }
}

/// recv(2) that retries EINTR but surfaces everything else — in
/// particular EAGAIN/EWOULDBLOCK from SO_RCVTIMEO, which means the
/// client stalled and the connection should be abandoned, not retried.
ssize_t recv_retry(int fd, char* buffer, std::size_t size) noexcept {
  for (;;) {
    ssize_t n = -1;
    if (const int e = Fp::check(Fp::Id::kHttpRecv); e != 0) {
      errno = e;
    } else {
      n = ::recv(fd, buffer, size, 0);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t send_retry(int fd, const char* data, std::size_t size) noexcept {
  for (;;) {
    ssize_t n = -1;
    if (const int e = Fp::check(Fp::Id::kHttpSend); e != 0) {
      errno = e;
    } else {
      n = ::send(fd, data, size, MSG_NOSIGNAL);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

}  // namespace

HttpServer::HttpServer(HttpServerConfig config)
    : config_(config), started_(std::chrono::steady_clock::now()) {
  if (config_.registry == nullptr) config_.registry = &registry();
  if (config_.run_state == nullptr) config_.run_state = &run_state();
  requests_total_ =
      &config_.registry->counter("ascdg_http_requests_total");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw util::Error("introspection server: socket() failed: " +
                      std::string(std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw util::Error("introspection server: cannot listen on 127.0.0.1:" +
                      std::to_string(config_.port) + ": " + detail);
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  thread_ = std::thread([this] { serve_loop(); });
}

HttpServer::~HttpServer() {
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::string HttpServer::handle(std::string_view method,
                               std::string_view path) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_total_->inc();

  // Ignore any query string: /metrics?x=y scrapes the same as /metrics.
  if (const auto query = path.find('?'); query != std::string_view::npos) {
    path = path.substr(0, query);
  }

  if (method != "GET") {
    return make_response(
        405, "application/json",
        util::JsonObject{}.add("error", "only GET is supported").str() + "\n");
  }

  if (path == "/metrics") {
    return make_response(200, "text/plain; version=0.0.4",
                         to_prometheus(config_.registry->snapshot()));
  }

  if (path == "/metrics.json") {
    std::ostringstream body;
    write_json(body, config_.registry->snapshot());
    return make_response(200, "application/json", body.str());
  }

  if (path == "/healthz") {
    const auto uptime_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started_)
            .count();
    return json_response(200, util::JsonObject{}
                                  .add("schema", "ascdg-healthz-v1")
                                  .add("status", "ok")
                                  .add("uptime_ms", uptime_ms));
  }

  if (path == "/runz") {
    const RunState::Snapshot run = config_.run_state->snapshot();
    std::string stack = "[";
    for (std::size_t i = 0; i < run.phase_stack.size(); ++i) {
      if (i != 0) stack += ',';
      stack += '"' + util::json_escape(run.phase_stack[i]) + '"';
    }
    stack += ']';
    util::JsonObject body;
    body.add("schema", "ascdg-runz-v1")
        .add("phase", run.current_phase())
        .add_raw("phase_stack", stack)
        .add("seed_template", run.seed_template)
        .add("backend", run.backend)
        .add("resumed", !run.resumed_from.empty())
        .add("resumed_from", run.resumed_from)
        .add("opt_started", run.opt_started)
        .add("opt_iteration", run.opt_iteration)
        .add("opt_best_value", run.opt_best_value)
        .add("coverage_known", run.coverage_known)
        .add("targets_hit", run.targets_hit)
        .add("targets_remaining", run.targets_remaining)
        .add("updates", run.updates);
    return json_response(200, body);
  }

  if (path == "/timeseries") {
    if (config_.timeline == nullptr) {
      return json_response(
          404, util::JsonObject{}.add(
                   "error", "no telemetry recorder (run with --timeline)"));
    }
    // to_json() splices the recorder's rendered ring lines verbatim —
    // the scrape is bit-identical to the telemetry.jsonl tail.
    return make_response(200, "application/json",
                         config_.timeline->to_json() + "\n");
  }

  return json_response(
      404,
      util::JsonObject{}
          .add("error", "unknown path")
          .add("endpoints",
               "/metrics /metrics.json /healthz /runz /timeseries"));
}

void HttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;

    const int client = accept_retry(listen_fd_);
    if (client < 0) continue;

    // Bounded read of the request head; a client that trickles bytes
    // only delays itself (per-connection timeout), never the flow.
    timeval timeout = {};
    timeout.tv_sec = kClientTimeoutMs / 1000;
    timeout.tv_usec = (kClientTimeoutMs % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);

    std::string request;
    char buffer[1024];
    while (request.size() < kMaxRequestBytes &&
           request.find("\r\n\r\n") == std::string::npos &&
           request.find("\n\n") == std::string::npos) {
      const ssize_t n = recv_retry(client, buffer, sizeof buffer);
      if (n <= 0) break;
      request.append(buffer, static_cast<std::size_t>(n));
    }

    std::string response;
    const std::size_t line_end = request.find_first_of("\r\n");
    std::istringstream line(request.substr(0, line_end));
    std::string method;
    std::string path;
    if (line >> method >> path) {
      response = handle(method, path);
    } else {
      response = make_response(
          400, "application/json",
          util::JsonObject{}.add("error", "malformed request line").str() +
              "\n");
    }

    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n = send_retry(client, response.data() + sent,
                                   response.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace ascdg::obs
