// Statistics, the metric catalogue and the result line of the closure
// benchmark.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace closure_bench {

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at
/// least ten samples beyond it; p50 when even that has fewer.
struct TailPercentile {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> values);

/// One metric of the catalogue (closure_bench/README.md).
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "lower" or "higher"
  bool end_to_end;
};
[[nodiscard]] const std::vector<MetricSpec>& metric_catalogue();
[[nodiscard]] const MetricSpec* find_metric(std::string_view name);
/// True when `name` matches [A-Za-z0-9_.-]+.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// A measured value with the number of samples behind it.
struct Measured {
  double value = 0.0;
  std::size_t samples = 0;
  std::string note;
};
using MetricValues = std::map<std::string, Measured, std::less<>>;

/// Shortest decimal text that reads back as exactly `value`.
[[nodiscard]] std::string json_number(double value);

/// Human-readable run record: metric, value, unit, direction, samples.
void print_record_table(std::ostream& out, const MetricValues& values);

/// The benchmark's final stdout line.
void print_result_line(std::ostream& out, bool correct, std::size_t attempted,
                       std::size_t failed, const MetricValues& values);

}  // namespace closure_bench
