#include "exec/process_farm.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "duv/registry.hpp"
#include "exec/frame.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ascdg::exec {

namespace {

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
  created_ns_ = util::monotonic_ns();

  workers_.resize(worker_n);
  for (std::size_t slot = 0; slot < worker_n; ++slot) spawn_worker(slot);
}

ProcessFarm::~ProcessFarm() {
  // Wait out an in-flight run_all, then tear the pool down promptly:
  // workers are stateless, so SIGKILL loses nothing.
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
  return frame::write_frame(worker.to_child, payload);
}

bool ProcessFarm::read_frame(Worker& worker, std::string& payload) {
  if (const int injected =
          util::FailurePoint::check(util::FailurePoint::Id::kExecPipeRead)) {
    errno = injected;
    return false;
  }
  return frame::read_frame(worker.from_child, payload);
}

std::vector<coverage::SimStats> ProcessFarm::run_all(const duv::Duv& duv,
                                                     std::span<const Job> jobs) {
  const std::scoped_lock lock(run_mutex_);

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
    chunk_count += (job.count + frame::kChunk - 1) / frame::kChunk;
  }
  if (chunk_count == 0) {
    metrics_.runs->inc();
    return std::vector<coverage::SimStats>(job_n,
                                           coverage::SimStats(event_count));
  }

  // Each distinct template is serialized once; a worker's request
  // carries the texts of the bases its jobs use, viewing these bytes.
  std::unordered_map<const tgen::TestTemplate*, std::size_t> base_of;
  std::vector<std::string> base_text;
  std::vector<std::size_t> job_base(job_n);
  for (std::size_t j = 0; j < job_n; ++j) {
    const auto [it, fresh] = base_of.try_emplace(jobs[j].tmpl, base_text.size());
    if (fresh) base_text.push_back(tgen::to_text(*jobs[j].tmpl));
    job_base[j] = it->second;
  }

  // Round-robin the chunks across workers. Jobs are visited in order,
  // so a worker's entry for job j, if it has one, is its last.
  const std::size_t worker_n = workers_.size();
  std::vector<frame::Request> plan(worker_n, frame::Request{unit_name, {}, {}});
  // local_base[w][b]: base b's index in worker w's request, or kAbsent.
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> local_base(
      worker_n, std::vector<std::size_t>(base_text.size(), kAbsent));
  std::size_t next_worker = 0;
  for (std::size_t j = 0; j < job_n; ++j) {
    for (std::size_t begin = 0; begin < jobs[j].count;
         begin += frame::kChunk) {
      const std::size_t end = std::min(begin + frame::kChunk, jobs[j].count);
      const std::size_t w = next_worker++ % worker_n;
      frame::Request& request = plan[w];
      if (request.jobs.empty() || request.jobs.back().id != j) {
        std::size_t& base = local_base[w][job_base[j]];
        if (base == kAbsent) {
          base = request.bases.size();
          request.bases.push_back(base_text[job_base[j]]);
        }
        request.jobs.push_back(frame::JobRequest{
            j,
            jobs[j].seed_root,
            base,
            {jobs[j].weights.begin(), jobs[j].weights.end()},
            {}});
      }
      request.jobs.back().chunks.emplace_back(begin, end);
    }
  }

  // Phase 1 — ship every request before reading any response. Workers
  // read their whole request before writing, so the parent's writes
  // never depend on its reads: no cycle, no deadlock.
  std::string first_error;
  std::vector<bool> awaiting(worker_n, false);
  for (std::size_t w = 0; w < worker_n; ++w) {
    if (plan[w].jobs.empty()) continue;
    if (write_frame(workers_[w], frame::encode_request(plan[w]))) {
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
  // streams synchronized for the next run), then merge or raise. A
  // job's first partial is moved in, later ones are added.
  std::vector<coverage::SimStats> out(job_n);
  std::size_t merged_sims = 0;
  std::string payload;
  for (std::size_t w = 0; w < worker_n; ++w) {
    if (!awaiting[w]) continue;
    try {
      if (!read_frame(workers_[w], payload)) {
        if (first_error.empty()) {
          first_error = "process backend: worker " + std::to_string(w) +
                        " (pid " + std::to_string(workers_[w].pid) +
                        ") died mid-batch: " + describe_errno(errno);
        }
        retire_worker(w);
        continue;
      }
      frame::Response response =
          frame::decode_response(payload, job_n, event_count);
      if (!response.ok) {
        // The worker is alive and its stream is synchronized; the batch
        // itself failed (simulation threw). Report, keep the worker.
        if (first_error.empty()) {
          first_error = "process backend: worker " + std::to_string(w) +
                        " reported: " + response.error;
        }
        continue;
      }
      for (frame::JobPartial& partial : response.partials) {
        out[partial.id].merge(coverage::SimStats::from_counts(
            partial.sims, std::move(partial.hits)));
        merged_sims += partial.sims;
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
  for (coverage::SimStats& stats : out) {
    if (stats.event_count() == 0) stats = coverage::SimStats(event_count);
  }
  return out;
}

void ProcessFarm::worker_main(int request_fd, int response_fd) {
  // Units are rebuilt by name once and cached. A request's bases are
  // parsed once and each is compiled once; a job with weights only
  // reweights its base's tables, exactly like the thread farm.
  std::map<std::string, std::unique_ptr<duv::Duv>, std::less<>> units;
  std::string payload;
  std::vector<std::uint64_t> seeds;
  std::vector<coverage::CoverageVector> vectors;
  std::vector<double> weights;
  JobTables tables;
  for (;;) {
    bool got_request = false;
    try {
      got_request = frame::read_frame(request_fd, payload);
    } catch (const util::Error&) {
      // Oversized length prefix: the stream is desynchronized.
    }
    if (!got_request) {
      ::_exit(0);  // EOF: parent closed the request pipe — clean shutdown
    }
    frame::Response response;
    try {
      const frame::Request request = frame::decode_request(payload);
      auto it = units.find(request.unit);
      if (it == units.end()) {
        std::string unit_name(request.unit);
        auto unit = duv::make_unit(unit_name);
        if (unit == nullptr) {
          throw util::ConfigError("unknown unit '" + unit_name + "'");
        }
        it = units.emplace(std::move(unit_name), std::move(unit)).first;
      }
      const duv::Duv& duv = *it->second;
      const std::size_t event_count = duv.space().size();
      std::vector<tgen::TestTemplate> bases;
      bases.reserve(request.bases.size());
      for (const std::string_view text : request.bases) {
        bases.push_back(tgen::parse_template(text));
      }
      response.partials.reserve(request.jobs.size());
      for (const frame::JobRequest& job : request.jobs) {
        weights.resize(job.weights.size());
        for (std::size_t i = 0; i < weights.size(); ++i) {
          weights[i] = frame::text_rounded_weight(job.weights[i]);
        }
        const tgen::TestTemplate& tmpl =
            tables.load(duv, bases[job.base], weights);
        coverage::SimStats stats(event_count);
        const util::SeedStream stream(job.seed_root);
        for (const auto& [begin, end] : job.chunks) {
          // decode_request bounds every chunk to at most kChunk seeds.
          const std::size_t n = end - begin;
          seeds.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            seeds[i] = stream.at(begin + i);
          }
          if (vectors.size() < n) {
            vectors.resize(n, coverage::CoverageVector(0));
          }
          duv.simulate_batch(
              tmpl, tables.compiled(),
              std::span<const std::uint64_t>(seeds.data(), n),
              std::span<coverage::CoverageVector>(vectors.data(), n));
          for (std::size_t i = 0; i < n; ++i) stats.record(vectors[i]);
        }
        response.partials.push_back(
            frame::JobPartial{job.id, stats.sims(), stats.hit_counts()});
      }
    } catch (const std::exception& e) {
      response = frame::Response{false, e.what(), {}};
    }
    // The tables borrow this request's bases, which die here.
    tables.clear();
    if (!frame::write_frame(response_fd, frame::encode_response(response))) {
      ::_exit(1);  // parent gone mid-response
    }
  }
}

TelemetrySnapshot ProcessFarm::telemetry() const {
  TelemetrySnapshot snap;
  snap.simulations = metrics_.simulations->value();
  snap.runs = metrics_.runs->value();
  snap.exceptions = metrics_.exceptions->value();
  // Chunks, chunk latency and busy time are observed inside the worker
  // processes only; they read zero.
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
