#include "exec/process_farm.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include "duv/registry.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ascdg::exec {

namespace {

/// Simulations per worker chunk — same granularity as the thread farm
/// (the batch ≡ scalar contract makes results independent of chunk
/// size either way; matching keeps simulate_batch widths comparable).
constexpr std::size_t kChunk = 64;

/// Frame-size sanity cap: a length prefix beyond this means the stream
/// is desynchronized, not that a 1 GiB batch is in flight.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Reads exactly `n` bytes; false on EOF or a non-EINTR error.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, out, n);
    if (got > 0) {
      out += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return false;  // EOF: peer closed
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Writes exactly `n` bytes; false on a non-EINTR error (e.g. EPIPE).
bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* in = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, in, n);
    if (put > 0) {
      in += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Length-prefixed (u32 little-endian) frame I/O.
bool read_frame_fd(int fd, std::string& payload) {
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof prefix)) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(prefix[0]) |
      (static_cast<std::uint32_t>(prefix[1]) << 8) |
      (static_cast<std::uint32_t>(prefix[2]) << 16) |
      (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (length > kMaxFrameBytes) return false;
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length);
}

bool write_frame_fd(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(length & 0xff),
      static_cast<std::uint8_t>((length >> 8) & 0xff),
      static_cast<std::uint8_t>((length >> 16) & 0xff),
      static_cast<std::uint8_t>((length >> 24) & 0xff),
  };
  if (!write_exact(fd, prefix, sizeof prefix)) return false;
  return payload.empty() || write_exact(fd, payload.data(), payload.size());
}

/// seed_root travels as a decimal string: JSON numbers lose precision
/// beyond 2^53 and seed roots are full 64-bit values.
std::uint64_t parse_seed_root(const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw util::Error("process backend: malformed seed_root '" + text + "'");
  }
  return value;
}

std::string describe_errno(int error_number) {
  return std::string(std::strerror(error_number)) + " (errno " +
         std::to_string(error_number) + ")";
}

}  // namespace

ProcessFarm::ProcessFarm(std::size_t num_workers) {
  // Writes to a dead worker must fail with EPIPE, not kill the parent.
  // Process-wide, set once; SIG_IGN is what every other part of the
  // system (the HTTP server uses MSG_NOSIGNAL) already assumes is safe.
  std::signal(SIGPIPE, SIG_IGN);

  const std::size_t worker_n =
      num_workers != 0
          ? num_workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  static std::atomic<std::uint64_t> next_farm_id{0};
  const std::string id =
      std::to_string(next_farm_id.fetch_add(1, std::memory_order_relaxed));
  obs::Registry& reg = obs::registry();
  metrics_.simulations = &reg.counter("ascdg_farm_simulations_total",
                                      {{"backend", "process"}, {"farm", id}});
  metrics_.runs = &reg.counter("ascdg_farm_runs_total",
                               {{"backend", "process"}, {"farm", id}});
  metrics_.exceptions = &reg.counter("ascdg_farm_exceptions_total",
                                     {{"backend", "process"}, {"farm", id}});
  metrics_.respawns = &reg.counter("ascdg_farm_worker_respawns_total",
                                   {{"backend", "process"}, {"farm", id}});
  metrics_.workers_alive = &reg.gauge("ascdg_farm_workers_alive",
                                      {{"backend", "process"}, {"farm", id}});
  metrics_.active_runs = &reg.gauge("ascdg_farm_active_runs",
                                    {{"backend", "process"}, {"farm", id}});
  created_ns_ = util::monotonic_ns();

  workers_.resize(worker_n);
  for (std::size_t slot = 0; slot < worker_n; ++slot) spawn_worker(slot);
}

ProcessFarm::~ProcessFarm() {
  // Wait out an in-flight run_all (caller bug to still be submitting,
  // same as SimFarm), then tear the pool down promptly: workers are
  // stateless, so SIGKILL loses nothing.
  const std::scoped_lock lock(run_mutex_);
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    retire_worker(slot);
  }
}

void ProcessFarm::spawn_worker(std::size_t slot) {
  int request_pipe[2];
  int response_pipe[2];
  if (::pipe(request_pipe) != 0) {
    throw util::Error("process backend: pipe() failed: " +
                      describe_errno(errno));
  }
  if (::pipe(response_pipe) != 0) {
    const int saved = errno;
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    throw util::Error("process backend: pipe() failed: " +
                      describe_errno(saved));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    ::close(response_pipe[1]);
    throw util::Error("process backend: fork() failed: " +
                      describe_errno(saved));
  }
  if (pid == 0) {
    // Child. Close the parent's ends and every sibling's fds so a dead
    // worker's pipes actually reach EOF in the parent, then serve.
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    for (const Worker& other : workers_) {
      if (other.to_child >= 0) ::close(other.to_child);
      if (other.from_child >= 0) ::close(other.from_child);
    }
    worker_main(request_pipe[0], response_pipe[1]);
  }
  ::close(request_pipe[0]);
  ::close(response_pipe[1]);
  workers_[slot] =
      Worker{pid, request_pipe[1], response_pipe[0], /*alive=*/true};
  metrics_.workers_alive->set(static_cast<std::int64_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const Worker& w) { return w.alive; })));
}

void ProcessFarm::retire_worker(std::size_t slot) {
  Worker& worker = workers_[slot];
  if (worker.to_child >= 0) ::close(worker.to_child);
  if (worker.from_child >= 0) ::close(worker.from_child);
  worker.to_child = -1;
  worker.from_child = -1;
  if (worker.pid > 0) {
    // SIGKILL is a no-op on an already-exited (zombie) child; the
    // blocking waitpid then reaps promptly in either case.
    ::kill(worker.pid, SIGKILL);
    ::waitpid(worker.pid, nullptr, 0);
    worker.pid = -1;
  }
  worker.alive = false;
  metrics_.workers_alive->set(static_cast<std::int64_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const Worker& w) { return w.alive; })));
}

void ProcessFarm::ensure_workers() {
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    Worker& worker = workers_[slot];
    if (worker.alive && worker.pid > 0) {
      // A worker killed between runs heals silently: reap and respawn.
      if (::waitpid(worker.pid, nullptr, WNOHANG) == worker.pid) {
        worker.pid = -1;
        retire_worker(slot);
      }
    }
    if (!worker.alive) {
      spawn_worker(slot);
      metrics_.respawns->inc();
    }
  }
}

bool ProcessFarm::write_frame(Worker& worker, const std::string& payload) {
  if (const int injected =
          util::FailurePoint::check(util::FailurePoint::Id::kExecPipeWrite)) {
    errno = injected;
    return false;
  }
  return write_frame_fd(worker.to_child, payload);
}

bool ProcessFarm::read_frame(Worker& worker, std::string& payload) {
  if (const int injected =
          util::FailurePoint::check(util::FailurePoint::Id::kExecPipeRead)) {
    errno = injected;
    return false;
  }
  return read_frame_fd(worker.from_child, payload);
}

std::vector<coverage::SimStats> ProcessFarm::run_all(const duv::Duv& duv,
                                                     std::span<const Job> jobs) {
  const std::scoped_lock lock(run_mutex_);
  metrics_.active_runs->add(1);
  struct RunGuard {
    obs::Gauge* active;
    ~RunGuard() { active->sub(1); }
  } run_guard{metrics_.active_runs};

  const std::size_t event_count = duv.space().size();
  const std::size_t job_n = jobs.size();

  // Workers rebuild the unit by name; refuse up front (not per worker)
  // when the registry cannot resolve it.
  const std::string unit_name(duv.name());
  if (std::find(validated_units_.begin(), validated_units_.end(),
                unit_name) == validated_units_.end()) {
    if (duv::make_unit(unit_name) == nullptr) {
      throw util::ConfigError(
          "process backend requires a registry-resolvable unit: "
          "duv::make_unit(\"" +
          unit_name + "\") knows no such unit (see docs/backends.md)");
    }
    validated_units_.push_back(unit_name);
  }

  ensure_workers();

  std::size_t chunk_count = 0;
  for (const Job& job : jobs) {
    ASCDG_ASSERT(job.tmpl != nullptr, "job with null template");
    chunk_count += (job.count + kChunk - 1) / kChunk;
  }
  if (chunk_count == 0) {
    metrics_.runs->inc();
    return std::vector<coverage::SimStats>(job_n,
                                           coverage::SimStats(event_count));
  }

  // Round-robin the chunks across workers; each worker gets at most one
  // slice per job (its share of that job's seed ranges).
  const std::size_t worker_n = workers_.size();
  constexpr std::size_t kNoSlice = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<WorkerJobSlice>> plan(worker_n);
  std::vector<std::vector<std::size_t>> slice_of(
      worker_n, std::vector<std::size_t>(job_n, kNoSlice));
  std::size_t next_worker = 0;
  for (std::size_t j = 0; j < job_n; ++j) {
    for (std::size_t begin = 0; begin < jobs[j].count; begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, jobs[j].count);
      const std::size_t w = next_worker++ % worker_n;
      std::size_t& slice = slice_of[w][j];
      if (slice == kNoSlice) {
        slice = plan[w].size();
        plan[w].push_back(WorkerJobSlice{j, {}});
      }
      plan[w][slice].chunks.emplace_back(begin, end);
    }
  }

  // One request frame per participating worker. Template text is
  // serialized once per job and shared across workers' frames.
  std::vector<std::string> tmpl_text(job_n);
  for (std::size_t j = 0; j < job_n; ++j) {
    tmpl_text[j] = tgen::to_text(*jobs[j].tmpl);
  }

  // Phase 1 — ship every request before reading any response. Workers
  // read their whole request before writing, so the parent's writes
  // never depend on its reads: no cycle, no deadlock.
  std::string first_error;
  std::vector<bool> awaiting(worker_n, false);
  for (std::size_t w = 0; w < worker_n; ++w) {
    if (plan[w].empty()) continue;
    std::string payload = "{\"op\":\"run\",\"unit\":\"" +
                          util::json_escape(unit_name) + "\",\"jobs\":[";
    for (std::size_t s = 0; s < plan[w].size(); ++s) {
      const WorkerJobSlice& slice = plan[w][s];
      if (s != 0) payload += ',';
      payload += "{\"id\":" + std::to_string(slice.job) + ",\"tmpl\":\"" +
                 util::json_escape(tmpl_text[slice.job]) +
                 "\",\"seed_root\":\"" +
                 std::to_string(jobs[slice.job].seed_root) +
                 "\",\"chunks\":[";
      for (std::size_t c = 0; c < slice.chunks.size(); ++c) {
        if (c != 0) payload += ',';
        payload += '[' + std::to_string(slice.chunks[c].first) + ',' +
                   std::to_string(slice.chunks[c].second) + ']';
      }
      payload += "]}";
    }
    payload += "]}";
    if (write_frame(workers_[w], payload)) {
      awaiting[w] = true;
    } else {
      if (first_error.empty()) {
        first_error = "process backend: worker " + std::to_string(w) +
                      " (pid " + std::to_string(workers_[w].pid) +
                      ") died while receiving work: " + describe_errno(errno);
      }
      retire_worker(w);
    }
  }

  // Phase 2 — collect every live worker's response (draining keeps the
  // streams synchronized for the next run), then merge or raise.
  std::vector<coverage::SimStats> out(job_n, coverage::SimStats(event_count));
  std::size_t merged_sims = 0;
  std::string payload;
  for (std::size_t w = 0; w < worker_n; ++w) {
    if (!awaiting[w]) continue;
    if (!read_frame(workers_[w], payload)) {
      if (first_error.empty()) {
        first_error = "process backend: worker " + std::to_string(w) +
                      " (pid " + std::to_string(workers_[w].pid) +
                      ") died mid-batch: " + describe_errno(errno);
      }
      retire_worker(w);
      continue;
    }
    try {
      const util::JsonValue response = util::json_parse(payload);
      if (!response.at("ok").as_bool()) {
        // The worker is alive and its stream is synchronized; the batch
        // itself failed (simulation threw). Report, keep the worker.
        if (first_error.empty()) {
          first_error =
              "process backend: worker " + std::to_string(w) +
              " reported: " + response.at("error").as_string();
        }
        continue;
      }
      for (const util::JsonValue& partial :
           response.at("partials").as_array()) {
        const std::size_t job = partial.at("id").as_size();
        ASCDG_ASSERT(job < job_n, "worker partial for unknown job");
        const std::size_t sims = partial.at("sims").as_size();
        const util::JsonValue::Array& hit_values =
            partial.at("hits").as_array();
        std::vector<std::size_t> hits(hit_values.size());
        for (std::size_t i = 0; i < hit_values.size(); ++i) {
          hits[i] = hit_values[i].as_size();
        }
        ASCDG_ASSERT(hits.size() == event_count,
                     "worker partial with wrong event count");
        out[job].merge(coverage::SimStats::from_counts(sims, std::move(hits)));
        merged_sims += sims;
      }
    } catch (const std::exception& e) {
      // Malformed frame: the stream can no longer be trusted.
      if (first_error.empty()) {
        first_error = "process backend: worker " + std::to_string(w) +
                      " sent a malformed response: " + e.what();
      }
      retire_worker(w);
    }
  }

  metrics_.simulations->add(merged_sims);
  metrics_.runs->inc();
  if (!first_error.empty()) {
    metrics_.exceptions->inc();
    throw util::Error(first_error);
  }
  return out;
}

void ProcessFarm::worker_main(int request_fd, int response_fd) {
  // Units are rebuilt by name once and cached; compiled tables are
  // per-job, exactly like the thread farm.
  std::map<std::string, std::unique_ptr<duv::Duv>, std::less<>> units;
  std::string payload;
  std::vector<std::uint64_t> seeds;
  std::vector<coverage::CoverageVector> vectors;
  for (;;) {
    if (!read_frame_fd(request_fd, payload)) {
      ::_exit(0);  // EOF: parent closed the request pipe — clean shutdown
    }
    std::string response;
    try {
      const util::JsonValue request = util::json_parse(payload);
      const std::string& unit_name = request.at("unit").as_string();
      auto it = units.find(unit_name);
      if (it == units.end()) {
        auto unit = duv::make_unit(unit_name);
        if (unit == nullptr) {
          throw util::ConfigError("unknown unit '" + unit_name + "'");
        }
        it = units.emplace(unit_name, std::move(unit)).first;
      }
      const duv::Duv& duv = *it->second;
      const std::size_t event_count = duv.space().size();
      response = "{\"ok\":true,\"partials\":[";
      bool first_partial = true;
      for (const util::JsonValue& job : request.at("jobs").as_array()) {
        const tgen::TestTemplate tmpl =
            tgen::parse_template(job.at("tmpl").as_string());
        const std::uint64_t seed_root =
            parse_seed_root(job.at("seed_root").as_string());
        const auto compiled = duv.compile(tmpl);
        coverage::SimStats stats(event_count);
        const util::SeedStream stream(seed_root);
        for (const util::JsonValue& chunk : job.at("chunks").as_array()) {
          const util::JsonValue::Array& range = chunk.as_array();
          if (range.size() != 2) {
            throw util::Error("malformed chunk range");
          }
          const std::size_t begin = range[0].as_size();
          const std::size_t end = range[1].as_size();
          if (end < begin) throw util::Error("malformed chunk range");
          const std::size_t n = end - begin;
          seeds.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            seeds[i] = stream.at(begin + i);
          }
          if (vectors.size() < n) {
            vectors.resize(n, coverage::CoverageVector(0));
          }
          duv.simulate_batch(
              tmpl, compiled.get(),
              std::span<const std::uint64_t>(seeds.data(), n),
              std::span<coverage::CoverageVector>(vectors.data(), n));
          for (std::size_t i = 0; i < n; ++i) stats.record(vectors[i]);
        }
        if (!first_partial) response += ',';
        first_partial = false;
        response += "{\"id\":" + std::to_string(job.at("id").as_size()) +
                    ",\"sims\":" + std::to_string(stats.sims()) +
                    ",\"hits\":[";
        const std::vector<std::size_t>& hits = stats.hit_counts();
        for (std::size_t i = 0; i < hits.size(); ++i) {
          if (i != 0) response += ',';
          response += std::to_string(hits[i]);
        }
        response += "]}";
      }
      response += "]}";
    } catch (const std::exception& e) {
      response = std::string("{\"ok\":false,\"error\":\"") +
                 util::json_escape(e.what()) + "\"}";
    }
    if (!write_frame_fd(response_fd, response)) {
      ::_exit(1);  // parent gone mid-response
    }
  }
}

batch::TelemetrySnapshot ProcessFarm::telemetry() const {
  batch::TelemetrySnapshot snap;
  snap.simulations = metrics_.simulations->value();
  snap.runs = metrics_.runs->value();
  snap.exceptions = metrics_.exceptions->value();
  snap.active_runs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, metrics_.active_runs->value()));
  // Thread-pool scheduling counters (chunks, steals, queue depth, chunk
  // latency, busy time) have no process-backend equivalent yet; they
  // read zero.
  return snap;
}

double ProcessFarm::worker_busy_fraction() const noexcept {
  // Workers run in their own processes; the parent does not observe
  // their busy time. 0 = "unknown", and the report omits the line.
  return 0.0;
}

std::vector<pid_t> ProcessFarm::worker_pids() const {
  std::vector<pid_t> pids;
  for (const Worker& worker : workers_) {
    if (worker.alive && worker.pid > 0) pids.push_back(worker.pid);
  }
  return pids;
}

}  // namespace ascdg::exec
