#include "obs/trace.hpp"

#include <chrono>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"

namespace ascdg::obs {

namespace {
/// Innermost live span id on this thread; parents new spans and log
/// lines (via util::set_log_context).
thread_local std::uint64_t tls_current_span = 0;
}  // namespace

Span::Span(Tracer* tracer, std::string_view name)
    : tracer_(tracer),
      name_(name),
      id_(tracer->next_span_id_.fetch_add(1, std::memory_order_relaxed)),
      parent_(tls_current_span),
      start_ns_(util::monotonic_ns()) {
  tls_current_span = id_;
  util::set_log_context(id_);
}

Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      name_(std::move(other.name_)),
      id_(other.id_),
      parent_(other.parent_),
      start_ns_(other.start_ns_),
      fields_(std::move(other.fields_)) {}

Span::~Span() { end(); }

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = std::exchange(tracer_, nullptr);
  const std::uint64_t end_ns = util::monotonic_ns();
  // Restore the parent as this thread's context. Spans end in LIFO
  // order on their owning thread, so the innermost one is ours.
  tls_current_span = parent_;
  util::set_log_context(parent_);
  util::JsonObject event;
  event.add("event", "span")
      .add("span", name_)
      .add("span_id", id_)
      .add("parent_id", parent_)
      .add("start_us", start_ns_ / 1000)
      .add("dur_us", (end_ns - start_ns_) / 1000)
      .merge(fields_);
  tracer->emit(event);
}

Tracer::Tracer(const std::filesystem::path& path)
    : owned_(path, std::ios::trunc), os_(&owned_) {
  if (!owned_) {
    throw util::Error("cannot open trace file '" + path.string() +
                      "' for writing");
  }
}

Tracer::Tracer(std::ostream& os) : os_(&os) {}

void Tracer::emit(const util::JsonObject& object) {
  const auto ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  const std::scoped_lock lock(mutex_);
  const std::size_t seq = lines_.fetch_add(1, std::memory_order_relaxed);
  util::JsonObject stamped;
  stamped.add("seq", seq).add("ts_ms", static_cast<std::int64_t>(ts_ms));
  // Splice the caller's fields after the stamps: "{...stamps...}" +
  // "{...fields...}" -> one flat object.
  std::string line = stamped.str();
  const std::string body = object.str();
  if (body.size() > 2) {  // non-empty object
    line.pop_back();
    line += ',';
    line.append(body.begin() + 1, body.end());
  }
  *os_ << line << '\n';
  os_->flush();
  if (!*os_) throw util::Error("failed writing trace line");
}

Span Tracer::span(std::string_view name) { return Span(this, name); }

Span make_span(Tracer* tracer, std::string_view name) {
  if (tracer == nullptr) return Span();
  return tracer->span(name);
}

}  // namespace ascdg::obs
