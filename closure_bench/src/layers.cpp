#include "layers.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>

namespace closure_bench {

namespace {

std::atomic<std::uint64_t> g_next_log_id{1};

/// The calling thread's buffer in the log identified by `log_id`. Keyed
/// by id, not address, so a log allocated where a dead one lived never
/// inherits its buffers.
struct LocalSlot {
  std::uint64_t log_id = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot tls_slot;

/// Records [start, now) on destruction, so a call that throws is
/// recorded too.
class SpanTimer {
 public:
  SpanTimer(SpanLog& log, SpanKind kind, std::uint32_t parent,
            std::uint64_t sims, std::uint64_t jobs = 0)
      : log_(log) {
    span_.id = log.next_id();
    span_.parent = parent;
    span_.kind = kind;
    span_.sims = sims;
    span_.jobs = jobs;
    span_.start_ns = log.now_ns();
  }
  ~SpanTimer() {
    span_.end_ns = log_.now_ns();
    log_.record(span_);
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

}  // namespace

std::string_view span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kSetup: return "bench.setup";
    case SpanKind::kExecStartup: return "exec.startup";
    case SpanKind::kCoverageBefore: return "coverage.before";
    case SpanKind::kFlow: return "flow.run";
    case SpanKind::kRunAll: return "exec.run_all";
    case SpanKind::kCompile: return "stimgen.compile";
    case SpanKind::kSimulateBatch: return "duv.simulate_batch";
    case SpanKind::kSimulate: return "duv.simulate";
  }
  return "unknown";
}

SpanLog::SpanLog()
    : log_id_(g_next_log_id.fetch_add(1, std::memory_order_relaxed)),
      origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::ThreadBuffer& SpanLog::local_buffer() {
  if (tls_slot.log_id != log_id_) {
    const std::scoped_lock lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(4096);
    tls_slot = {log_id_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(tls_slot.buffer);
}

void SpanLog::record(const Span& span) {
  ThreadBuffer& buffer = local_buffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  {
    const std::scoped_lock lock(mutex_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

SpanLog::Scope::Scope(SpanLog* log, SpanKind kind) : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.parent = log_->caller_parent_;
  span_.kind = kind;
  span_.start_ns = log_->now_ns();
  saved_parent_ = log_->caller_parent_;
  log_->caller_parent_ = span_.id;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  log_->caller_parent_ = saved_parent_;
  log_->record(span_);
}

std::vector<ascdg::coverage::SimStats> TracedBackend::run_all(
    const ascdg::duv::Duv& duv, std::span<const ascdg::exec::Job> jobs) {
  std::uint64_t sims = 0;
  for (const auto& job : jobs) sims += job.count;
  const SpanTimer timer(log_, SpanKind::kRunAll, log_.caller_parent(), sims,
                        jobs.size());
  log_.set_run_all(timer.id());
  struct Reset {
    SpanLog& log;
    ~Reset() { log.set_run_all(0); }
  } reset{log_};
  return inner_.run_all(duv, jobs);
}

ascdg::coverage::CoverageVector TracedDuv::simulate(
    const ascdg::tgen::TestTemplate& tmpl, std::uint64_t seed) const {
  const SpanTimer timer(log_, SpanKind::kSimulate, log_.run_all_parent(), 1);
  return inner_.simulate(tmpl, seed);
}

std::unique_ptr<ascdg::duv::Duv::Compiled> TracedDuv::compile(
    const ascdg::tgen::TestTemplate& tmpl) const {
  const SpanTimer timer(log_, SpanKind::kCompile, log_.run_all_parent(), 0);
  return inner_.compile(tmpl);
}

void TracedDuv::simulate_batch(
    const ascdg::tgen::TestTemplate& tmpl, const Compiled* compiled,
    std::span<const std::uint64_t> seeds,
    std::span<ascdg::coverage::CoverageVector> out) const {
  const SpanTimer timer(log_, SpanKind::kSimulateBatch, log_.run_all_parent(),
                        seeds.size());
  inner_.simulate_batch(tmpl, compiled, seeds, out);
}

std::vector<SelfTimeRow> self_time_table(std::span<const Span> spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string_view, SelfTimeRow> rows;
  for (const Span& span : spans) {
    // Children on several threads overlap, so subtract the union of
    // their intervals (clipped to the parent), not their sum.
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      intervals.reserve(it->second.size());
      for (const Span* child : it->second) {
        const auto lo = std::max(child->start_ns, span.start_ns);
        const auto hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : intervals) {
        const auto from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    SelfTimeRow& row = rows[span_name(span.kind)];
    row.name = span_name(span.kind);
    ++row.count;
    row.total_s += static_cast<double>(span.duration_ns()) * 1e-9;
    row.self_s += static_cast<double>(span.duration_ns() - covered) * 1e-9;
  }
  std::vector<SelfTimeRow> out;
  for (const auto& [name, row] : rows) out.push_back(row);
  return out;
}

void write_spans_jsonl(std::ostream& out, std::span<const Span> spans) {
  for (const Span& span : spans) {
    out << "{\"name\":\"" << span_name(span.kind) << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"thread\":" << span.thread
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"sims\":" << span.sims << ",\"jobs\":" << span.jobs << "}\n";
  }
}

}  // namespace closure_bench
