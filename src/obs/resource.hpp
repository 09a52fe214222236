// Process resource telemetry: RSS and CPU time read from getrusage(2)
// and /proc/self/statm, published into the metrics registry as
// `ascdg_proc_*` gauges so the HTTP endpoint, the report's "Run
// health" section, and the telemetry timeline all read the same
// numbers.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace ascdg::obs {

/// One point-in-time sample of the process's resource usage.
struct ResourceUsage {
  std::uint64_t rss_bytes = 0;        ///< resident set (/proc/self/statm)
  std::uint64_t vm_bytes = 0;         ///< virtual size (/proc/self/statm)
  std::uint64_t max_rss_bytes = 0;    ///< lifetime peak (ru_maxrss)
  std::uint64_t user_cpu_us = 0;      ///< ru_utime, microseconds
  std::uint64_t system_cpu_us = 0;    ///< ru_stime, microseconds
  std::uint64_t minor_faults = 0;     ///< ru_minflt
  std::uint64_t major_faults = 0;     ///< ru_majflt
  std::uint64_t vol_ctx_switches = 0;    ///< ru_nvcsw
  std::uint64_t invol_ctx_switches = 0;  ///< ru_nivcsw
  /// True when rss_bytes/vm_bytes were actually read from statm. On a
  /// platform without /proc they are UNKNOWN, not zero — publishers
  /// must skip the rss gauges rather than report a made-up number.
  bool rss_available = false;

  [[nodiscard]] std::uint64_t cpu_us() const noexcept {
    return user_cpu_us + system_cpu_us;
  }
};

/// Samples the current process. Never throws; fields that cannot be
/// read (no /proc, say) stay zero with rss_available false.
[[nodiscard]] ResourceUsage read_resource_usage() noexcept;

/// read_resource_usage() with the statm path injectable — the test
/// seam for exercising the no-/proc degradation on a Linux box.
[[nodiscard]] ResourceUsage read_resource_usage_at(
    const char* statm_path) noexcept;

/// Publishes one sample into `reg`:
///   ascdg_proc_rss_bytes        gauge (peak watermark = observed max)
///   ascdg_proc_vm_bytes         gauge
///   ascdg_proc_max_rss_bytes    gauge (kernel-reported lifetime peak)
///   ascdg_proc_cpu_user_ms      gauge
///   ascdg_proc_cpu_system_ms    gauge
///   ascdg_proc_major_faults     gauge
///   ascdg_proc_ctx_switches_involuntary gauge
/// and observes the RSS into the ascdg_proc_rss_sample_bytes histogram
/// (the sampling distribution over the run). When the sample's
/// rss_available is false the rss/vm series are skipped entirely — a
/// missing gauge is honest, a zero gauge is a lie. Returns the sample.
ResourceUsage update_resource_gauges(Registry& reg);

/// Publishes a caller-provided sample (same series and skip rules).
void update_resource_gauges(Registry& reg, const ResourceUsage& usage);

/// Publishes one flow phase's resource footprint into `reg`:
///   ascdg_phase_cpu_ms{phase=...}    gauge — CPU time spent in the phase
///   ascdg_phase_rss_bytes{phase=...} gauge — RSS at phase end
/// `start` is the sample taken when the phase began.
void update_phase_resource_gauges(Registry& reg, std::string_view phase,
                                  const ResourceUsage& start,
                                  const ResourceUsage& end);

}  // namespace ascdg::obs
