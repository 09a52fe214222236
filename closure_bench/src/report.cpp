#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace closure_bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

namespace {
/// Nearest-rank percentile `pct` (0 < pct <= 100) of `values`.
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}
}  // namespace

TailPercentile tail_percentile(std::vector<double> values) {
  TailPercentile out;
  out.samples = values.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(values.size())));
    if (values.size() >= rank + 10) {
      out.pct = pct;
      out.value = percentile(std::move(values), pct);
      return out;
    }
  }
  out.value = median(std::move(values));
  return out;
}

const std::vector<MetricSpec>& metric_catalogue() {
  static const std::vector<MetricSpec> kCatalogue = {
      // End to end: what a user running a closure flow sees.
      {"flow_wall_s", "s", "lower", true},
      {"sims_per_s", "1/s", "higher", true},
      {"setup_s", "s", "lower", true},
      {"sims_per_target_hit", "sims", "lower", true},
      {"targets_hit", "count", "higher", true},
      {"best_target_rate", "hits/sim", "higher", true},
      {"peak_rss_mb", "MB", "lower", true},
      {"verified_ratio", "ratio", "higher", true},
      // Per layer (traced runs only).
      {"duv.sims", "count", "lower", false},
      {"duv.calls", "count", "lower", false},
      {"duv.batch_width", "sims", "higher", false},
      {"duv.busy_s", "s", "lower", false},
      {"duv.us_per_sim", "us", "lower", false},
      {"stimgen.compiles", "count", "lower", false},
      {"stimgen.compile_us", "us", "lower", false},
      {"stimgen.compile_s", "s", "lower", false},
      {"exec.startup_ms", "ms", "lower", false},
      {"exec.batches", "count", "lower", false},
      {"exec.jobs", "count", "lower", false},
      {"exec.sims_per_job", "sims", "higher", false},
      {"exec.wall_s", "s", "lower", false},
      {"exec.us_per_job", "us", "lower", false},
      {"exec.batch_ms.p50", "ms", "lower", false},
      {"exec.batch_ms.tail", "ms", "lower", false},
      {"exec.batch_ms.tail_pct", "pct", "higher", false},
      {"exec.batch_ms.samples", "count", "higher", false},
      {"exec.idle_s", "s", "lower", false},
      {"exec.utilization", "ratio", "higher", false},
      {"cdg.self_s", "s", "lower", false},
      {"cdg.self_share", "ratio", "lower", false},
      {"cdg.cache_hit_ratio", "ratio", "higher", false},
      {"flow.sampling_s", "s", "lower", false},
      {"flow.optimization_s", "s", "lower", false},
      {"flow.harvest_s", "s", "lower", false},
      {"flow.session_bytes", "bytes", "lower", false},
      {"coverage.before_s", "s", "lower", false},
      {"coverage.before_sims", "count", "lower", false},
      {"obs.trace_overhead_pct", "%", "lower", false},
  };
  return kCatalogue;
}

const MetricSpec* find_metric(std::string_view name) {
  for (const auto& spec : metric_catalogue()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

bool valid_metric_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) throw std::invalid_argument("unprintable metric value");
  return std::string(buf, end);
}

void print_record_table(std::ostream& out, const MetricValues& values) {
  out << std::left << std::setw(26) << "metric" << std::setw(24) << "value"
      << std::setw(10) << "unit" << std::setw(8) << "better" << std::setw(9)
      << "samples" << "note\n";
  for (const auto& [name, m] : values) {
    const MetricSpec* spec = find_metric(name);
    out << std::setw(26) << name << std::setw(24) << json_number(m.value)
        << std::setw(10) << spec->unit << std::setw(8) << spec->better
        << std::setw(9) << m.samples << m.note << '\n';
  }
}

void print_result_line(std::ostream& out, bool correct, std::size_t attempted,
                       std::size_t failed, const MetricValues& values) {
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : values) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << json_number(m.value) << ", \"unit\": \"" << find_metric(name)->unit
        << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

}  // namespace closure_bench
