// Span-based JSONL run tracing.
//
// Tracer is the process's trace sink: one util::JsonObject per line,
// each stamped with a monotone per-sink sequence number ("seq") and a
// wall-clock timestamp in milliseconds since the Unix epoch ("ts_ms").
// Point events (emit()) carry the flow_start / flow_end schema the
// CDG-Runner writes, and RAII spans sit on top.
//
// A Span measures one scoped unit of work: it records its start on the
// shared monotonic clock (util::monotonic_ns, the same timebase log
// lines carry) and emits one "span" event when it ends:
//
//   {"seq":N,"ts_ms":...,"event":"span","span":"optimization",
//    "span_id":3,"parent_id":1,"start_us":1200,"dur_us":84211, ...}
//
// Parent ids come from a thread-local stack: the innermost live span on
// the current thread is the parent of any span (or log line — the span
// id doubles as the util::log context) started on that thread. Spans
// must therefore end on the thread that started them.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "util/jsonl.hpp"

namespace ascdg::obs {

class Tracer;

/// RAII trace scope. Obtain via Tracer::span() (live) or make_span()
/// (inert when the tracer is null, so call sites need no branching).
/// Extra fields attached through fields() ride on the end event.
class Span {
 public:
  Span(Span&& other) noexcept;
  Span& operator=(Span&&) = delete;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Emits the span event early (idempotent; the destructor is a no-op
  /// afterwards).
  void end();

  /// Fields appended to the span's end event.
  [[nodiscard]] util::JsonObject& fields() noexcept { return fields_; }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t parent() const noexcept { return parent_; }
  [[nodiscard]] bool live() const noexcept { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  friend Span make_span(Tracer* tracer, std::string_view name);

  Span() = default;  // inert
  Span(Tracer* tracer, std::string_view name);

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  util::JsonObject fields_;
};

/// Thread-safe JSONL trace sink with span support.
class Tracer {
 public:
  /// Opens (truncating) `path`; throws util::Error on failure.
  explicit Tracer(const std::filesystem::path& path);

  /// Writes to a caller-owned stream (not owned; must outlive the
  /// tracer).
  explicit Tracer(std::ostream& os);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends one line: the object plus seq / ts_ms stamps. Flushes so a
  /// crashed run still leaves a usable trace.
  void emit(const util::JsonObject& object);

  /// Opens a live span named `name`, child of the thread's current span.
  [[nodiscard]] Span span(std::string_view name);

  /// Lines written so far.
  [[nodiscard]] std::size_t lines() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  friend class Span;

  std::ofstream owned_;
  std::ostream* os_;
  std::mutex mutex_;
  std::atomic<std::size_t> lines_{0};
  std::atomic<std::uint64_t> next_span_id_{1};
};

/// Span factory tolerating a null tracer: returns an inert span that
/// costs nothing and emits nothing, so optionally-traced code paths
/// read identically to always-traced ones.
[[nodiscard]] Span make_span(Tracer* tracer, std::string_view name);

}  // namespace ascdg::obs
