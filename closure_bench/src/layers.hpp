// Per-layer tracing for the closure benchmark.
//
// The benchmark never instruments the program itself: it wraps the two
// public seams the flow talks through — exec::Backend (one span per
// run_all) and duv::Duv (one span per compile / simulate_batch, recorded
// on whichever thread calls it) — and the benchmark opens the setup, before
// and flow spans around its own calls. Spans stay in memory, in one
// buffer per recording thread, and are collected once the traced flows
// are over.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "duv/duv.hpp"
#include "exec/backend.hpp"

namespace closure_bench {

/// Span names. Each is "<layer>.<operation>"; the layer prefix is the
/// repository module the span measures.
enum class SpanKind : std::uint8_t {
  kSetup,          ///< bench.setup: unit + backend + before-CDG
  kExecStartup,    ///< exec.startup: backend construction (forks, threads)
  kCoverageBefore, ///< coverage.before: the before-CDG repository
  kFlow,           ///< flow.run: CdgRunner::run, coarse search to harvest
  kRunAll,         ///< exec.run_all: one Backend::run_all call
  kCompile,        ///< stimgen.compile: Duv::compile of one job's template
  kSimulateBatch,  ///< duv.simulate_batch: one kernel call
  kSimulate,       ///< duv.simulate: one scalar simulation
};

[[nodiscard]] std::string_view span_name(SpanKind kind) noexcept;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: root
  std::uint32_t thread = 0;  ///< recording thread, in order of first record
  SpanKind kind = SpanKind::kSetup;
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = 0;
  /// Simulations for duv spans and run_all; 0 elsewhere.
  std::uint64_t sims = 0;
  /// Jobs for run_all; 0 elsewhere.
  std::uint64_t jobs = 0;

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Thread-safe in-memory span recorder. Recording appends to the calling
/// thread's own buffer without locking (the lock is taken once per
/// thread, on its first record). collect() must not race a recording
/// thread: call it only while no Backend::run_all is in flight.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] std::int64_t now_ns() const noexcept;
  [[nodiscard]] std::uint32_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);

  /// Parent for spans the calling thread opens (setup, before, flow,
  /// run_all); maintained by Scope.
  [[nodiscard]] std::uint32_t caller_parent() const noexcept {
    return caller_parent_;
  }
  /// Parent for Duv spans recorded on farm worker threads: the run_all
  /// span in flight, published by TracedBackend before it forwards.
  [[nodiscard]] std::uint32_t run_all_parent() const noexcept {
    return run_all_.load(std::memory_order_acquire);
  }
  void set_run_all(std::uint32_t id) noexcept {
    run_all_.store(id, std::memory_order_release);
  }

  /// RAII span on the calling thread; nested Scopes become children.
  class Scope {
   public:
    Scope(SpanLog* log, SpanKind kind);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    Span span_;
    std::uint32_t saved_parent_ = 0;
  };

  /// Every span recorded so far, ordered by start time.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer& local_buffer();

  const std::uint64_t log_id_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> run_all_{0};
  std::uint32_t caller_parent_ = 0;
  mutable std::mutex mutex_;  ///< guards buffers_ (the vector, not its spans)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// exec::Backend decorator: one exec.run_all span per call, every other
/// member forwarded unchanged.
class TracedBackend final : public ascdg::exec::Backend {
 public:
  TracedBackend(ascdg::exec::Backend& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return inner_.worker_count();
  }
  [[nodiscard]] std::vector<ascdg::coverage::SimStats> run_all(
      const ascdg::duv::Duv& duv,
      std::span<const ascdg::exec::Job> jobs) override;
  [[nodiscard]] std::size_t total_simulations() const noexcept override {
    return inner_.total_simulations();
  }
  [[nodiscard]] ascdg::batch::TelemetrySnapshot telemetry() const override {
    return inner_.telemetry();
  }
  [[nodiscard]] double worker_busy_fraction() const noexcept override {
    return inner_.worker_busy_fraction();
  }

 private:
  ascdg::exec::Backend& inner_;
  SpanLog& log_;
};

/// duv::Duv decorator: stimgen.compile, duv.simulate_batch and
/// duv.simulate spans on the calling thread; everything else forwarded.
/// name() forwards too, so the process backend's workers rebuild the
/// plain unit (their kernels are not traced).
class TracedDuv final : public ascdg::duv::Duv {
 public:
  TracedDuv(const ascdg::duv::Duv& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] const ascdg::coverage::CoverageSpace& space()
      const noexcept override {
    return inner_.space();
  }
  [[nodiscard]] const ascdg::tgen::TestTemplate& defaults()
      const noexcept override {
    return inner_.defaults();
  }
  [[nodiscard]] ascdg::coverage::CoverageVector simulate(
      const ascdg::tgen::TestTemplate& tmpl,
      std::uint64_t seed) const override;
  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const ascdg::tgen::TestTemplate& tmpl) const override;
  void simulate_batch(
      const ascdg::tgen::TestTemplate& tmpl, const Compiled* compiled,
      std::span<const std::uint64_t> seeds,
      std::span<ascdg::coverage::CoverageVector> out) const override;
  [[nodiscard]] std::vector<ascdg::tgen::TestTemplate> suite()
      const override {
    return inner_.suite();
  }

 private:
  const ascdg::duv::Duv& inner_;
  SpanLog& log_;
};

/// Per-span-name totals: count, summed duration, and self time (the
/// duration minus the union of its children's intervals).
struct SelfTimeRow {
  std::string_view name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::vector<SelfTimeRow> self_time_table(
    std::span<const Span> spans);

/// Writes one JSON object per span.
void write_spans_jsonl(std::ostream& out, std::span<const Span> spans);

}  // namespace closure_bench
