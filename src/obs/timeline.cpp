#include "obs/timeline.hpp"

#include <algorithm>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "obs/resource.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"

namespace ascdg::obs {

namespace {

/// Sum of every series in `snap` named `name` (counters may be split
/// into labeled families, e.g. one per farm).
std::uint64_t sum_counters(const MetricsSnapshot& snap, std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name == name && sample.kind == MetricKind::kCounter) {
      total += sample.counter;
    }
  }
  return total;
}

/// Mean over every gauge series named `name`; false when none exist.
bool mean_gauge(const MetricsSnapshot& snap, std::string_view name,
                std::int64_t& out) {
  std::int64_t total = 0;
  std::uint64_t n = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name == name && sample.kind == MetricKind::kGauge) {
      total += sample.gauge;
      ++n;
    }
  }
  if (n == 0) return false;
  out = total / static_cast<std::int64_t>(n);
  return true;
}

/// Splits a full series key (`name` or `name{labels}`) for
/// MetricsSnapshot::find().
std::pair<std::string_view, std::string_view> split_series_key(
    std::string_view key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos) return {key, {}};
  std::string_view labels = key.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
  return {key.substr(0, brace), labels};
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config)
    : config_(std::move(config)),
      registry_(config_.registry ? config_.registry : &registry()),
      run_state_(config_.run_state ? config_.run_state : &run_state()) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  start_ns_ = util::monotonic_ns();
  open_sink();
  if (config_.start_thread) {
    thread_ = std::thread([this] { run(); });
  }
}

TimeSeriesRecorder::~TimeSeriesRecorder() { stop(); }

void TimeSeriesRecorder::open_sink() {
  if (config_.jsonl_path.empty()) return;
  try {
    std::error_code ec;
    const auto parent = config_.jsonl_path.parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    if (config_.append) {
      // Resume: seq continues after the lines already on disk, and the
      // file tail is preloaded so /timeseries shows one continuous
      // history across the restart. The (possibly stale) index is
      // ignored — the file itself is the source of truth.
      std::ifstream in(config_.jsonl_path);
      std::vector<std::string> tail;
      std::uint64_t lines = 0;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        ++lines;
        tail.push_back(std::move(line));
        if (tail.size() > config_.ring_capacity) {
          tail.erase(tail.begin());
        }
      }
      seq_ = lines;
      if (lines >= config_.ring_capacity) {
        // Place each absolute line index j at slot j % capacity so the
        // wrap arithmetic stays uniform with live sampling.
        ring_.resize(config_.ring_capacity);
        std::uint64_t j = lines - tail.size();
        for (auto& kept : tail) {
          ring_[j % config_.ring_capacity] = std::move(kept);
          ++j;
        }
      } else {
        ring_ = std::move(tail);
      }
    }
    const auto mode = config_.append ? std::ios::app : std::ios::trunc;
    sink_.open(config_.jsonl_path, std::ios::out | mode);
    if (!sink_) sink_failed_ = true;
  } catch (const std::exception& e) {
    util::log_warn("timeline: telemetry sink unavailable (",
                   config_.jsonl_path.string(), "): ", e.what());
    sink_failed_ = true;
  }
}

void TimeSeriesRecorder::run() {
  // First sample on start, before the first wait: a process that dies
  // inside its first interval still leaves one line of history.
  sample_now();
  std::unique_lock lock(stop_mutex_);
  while (!stopping_) {
    stop_cv_.wait_for(lock, config_.sample_interval,
                      [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

void TimeSeriesRecorder::sample_now() {
  const std::scoped_lock lock(mutex_);
  sample_locked();
}

void TimeSeriesRecorder::stop() {
  {
    const std::scoped_lock lock(stop_mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
    stop_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  // Final sample: even a run shorter than one interval records its end
  // state, and the index is marked complete for offline readers.
  const std::scoped_lock lock(mutex_);
  sample_locked();
  write_index_locked(/*final=*/true);
  if (sink_.is_open()) sink_.close();
}

std::string TimeSeriesRecorder::render_sample_locked() {
  const MetricsSnapshot snap = registry_->snapshot();
  const RunState::Snapshot run = run_state_->snapshot();
  const std::uint64_t t_ms = (util::monotonic_ns() - start_ns_) / 1'000'000u;
  const std::uint64_t sims = sum_counters(snap, "ascdg_farm_simulations_total");

  util::JsonObject obj;
  obj.add("seq", seq_);
  obj.add("t_ms", t_ms);
  obj.add("phase", run.current_phase());
  obj.add("sims", sims);
  double sims_per_sec = 0.0;
  if (have_prev_ && t_ms > prev_t_ms_ && sims >= prev_sims_) {
    sims_per_sec = static_cast<double>(sims - prev_sims_) * 1000.0 /
                   static_cast<double>(t_ms - prev_t_ms_);
  }
  obj.add("sims_per_sec", sims_per_sec);
  prev_t_ms_ = t_ms;
  prev_sims_ = sims;
  have_prev_ = true;

  if (run.opt_started) {
    obj.add("opt_iteration", run.opt_iteration);
    obj.add("opt_best_value", run.opt_best_value);
  }
  if (run.coverage_known) {
    obj.add("targets_hit", run.targets_hit);
    obj.add("targets_remaining", run.targets_remaining);
  }

  std::int64_t busy_ppm = 0;
  if (mean_gauge(snap, "ascdg_farm_worker_busy_fraction", busy_ppm)) {
    obj.add("worker_busy_ppm", busy_ppm);
  }

  if (config_.sample_resources) {
    const ResourceUsage usage = read_resource_usage();
    if (usage.rss_available) {
      obj.add("rss_bytes", usage.rss_bytes);
      obj.add("vm_bytes", usage.vm_bytes);
    }
    obj.add("max_rss_bytes", usage.max_rss_bytes);
    obj.add("cpu_user_ms", usage.user_cpu_us / 1000u);
    obj.add("cpu_system_ms", usage.system_cpu_us / 1000u);
  }

  if (!config_.extra_metrics.empty()) {
    util::JsonObject extras;
    for (const std::string& key : config_.extra_metrics) {
      const auto [name, labels] = split_series_key(key);
      const MetricSample* sample = snap.find(name, labels);
      if (sample == nullptr) continue;
      switch (sample->kind) {
        case MetricKind::kCounter:
          extras.add(key, sample->counter);
          break;
        case MetricKind::kGauge:
          extras.add(key, sample->gauge);
          break;
        case MetricKind::kHistogram:
          extras.add(key, sample->count);
          break;
      }
    }
    if (!extras.empty()) obj.add_raw("extras", extras.str());
  }
  return obj.str();
}

void TimeSeriesRecorder::sample_locked() {
  std::string line = render_sample_locked();
  if (sink_.is_open() && !sink_failed_) {
    try {
      sink_ << line << '\n';
      sink_.flush();
      if (!sink_) sink_failed_ = true;
    } catch (const std::exception&) {
      sink_failed_ = true;
    }
  }
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(std::move(line));
  } else {
    ring_[seq_ % config_.ring_capacity] = std::move(line);
  }
  ++seq_;
  write_index_locked(/*final=*/false);
}

void TimeSeriesRecorder::write_index_locked(bool final) {
  if (config_.index_path.empty()) return;
  util::JsonObject index;
  index.add("schema", kTimeSeriesSchema);
  index.add("interval_ms",
            static_cast<std::uint64_t>(config_.sample_interval.count()));
  index.add("samples", seq_);
  index.add("file", config_.jsonl_path.filename().string());
  index.add("final", final);
  try {
    // util::atomic_write_file directly (not the flow-layer crash-hook
    // wrapper): telemetry must not shift ASCDG_CRASH_AFTER_WRITES
    // counts in the durability tests. Injected failures
    // (ASCDG_FAIL_POINTS) land here too; telemetry absorbs them.
    util::atomic_write_file(config_.index_path, index.str() + "\n");
  } catch (const std::exception& e) {
    // Not latched: a session reap can unlink the temp file under a
    // write, and the next sample (or stop()) rewrites the index whole.
    if (!index_warned_) {
      util::log_warn("timeline: index write failed (",
                     config_.index_path.string(), "): ", e.what());
      index_warned_ = true;
    }
  }
}

std::vector<std::string> TimeSeriesRecorder::ring() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  const std::size_t n = ring_.size();
  out.reserve(n);
  const std::size_t start =
      (seq_ >= config_.ring_capacity && n != 0)
          ? static_cast<std::size_t>(seq_ % config_.ring_capacity)
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % n]);
  }
  return out;
}

std::uint64_t TimeSeriesRecorder::samples_taken() const {
  const std::scoped_lock lock(mutex_);
  return seq_;
}

bool TimeSeriesRecorder::writing_file() const {
  const std::scoped_lock lock(mutex_);
  return sink_.is_open() && !sink_failed_;
}

std::string TimeSeriesRecorder::to_json() const {
  const std::scoped_lock lock(mutex_);
  std::string body = "{\"schema\":\"";
  body += kTimeSeriesSchema;
  body += "\",\"interval_ms\":";
  body += std::to_string(config_.sample_interval.count());
  body += ",\"samples\":";
  body += std::to_string(seq_);
  body += ",\"ring\":[";
  const std::size_t n = ring_.size();
  const std::size_t start =
      (seq_ >= config_.ring_capacity && n != 0)
          ? static_cast<std::size_t>(seq_ % config_.ring_capacity)
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) body += ',';
    body += ring_[(start + i) % n];
  }
  body += "]}";
  return body;
}

}  // namespace ascdg::obs
