// RAII marker for one flow stage: the stage's trace span, its place on
// obs::run_state()'s phase stack (visible at /runz), its wall clock, and
// its CPU/RSS footprint, published on exit as ascdg_phase_*{phase=...}
// gauges. flow::Pipeline opens one around each stage it runs and the
// CDG runner one named "flow" around a whole entry point; nothing else
// does, so a span name, a /runz phase and a gauge label are one string.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_state.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace ascdg::obs {

class PhaseScope {
 public:
  /// `tracer` may be null: the scope then keeps time and publishes
  /// /runz and gauges but writes no span.
  PhaseScope(Tracer* tracer, std::string_view name)
      : span_(make_span(tracer, name)),
        name_(name),
        start_ns_(util::monotonic_ns()),
        start_(read_resource_usage()) {
    run_state().enter_phase(name_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    try {
      end();
    } catch (const std::exception& e) {
      // Only reached while a stage's exception unwinds (the flow ends
      // its scopes explicitly): that error is the one to report.
      util::log_warn("phase '", name_, "': ", e.what());
    }
  }

  /// Wall time since the scope opened.
  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(util::monotonic_ns() - start_ns_) / 1e6;
  }

  /// Fields appended to the scope's span record.
  [[nodiscard]] util::JsonObject& fields() noexcept { return span_.fields(); }

  /// Idempotent early exit (the destructor is a no-op afterwards):
  /// publishes the gauges, pops the phase and writes the span.
  void end() {
    if (ended_) return;
    ended_ = true;
    try {
      update_phase_resource_gauges(registry(), name_, start_,
                                   read_resource_usage());
    } catch (...) {
      // Telemetry must never fail the flow.
    }
    run_state().exit_phase();
    span_.end();
  }

 private:
  Span span_;
  std::string name_;
  std::uint64_t start_ns_;
  ResourceUsage start_;
  bool ended_ = false;
};

}  // namespace ascdg::obs
