// Parameter kinds of the test-template model (paper §III):
//
//  * WeightParameter  — a set of value/weight pairs; the stimuli
//    generator uses the weights as a distribution when drawing a value.
//  * RangeParameter   — an integer range [lo, hi]; values are drawn
//    uniformly.
//  * SubrangeParameter — a weighted partition of a range into subranges;
//    produced by the Skeletonizer from a RangeParameter so the
//    CDG-Runner can control the distribution over the range (§IV-C).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "tgen/value.hpp"

namespace ascdg::tgen {

/// One value/weight pair of a weight parameter.
struct WeightEntry {
  Value value;
  double weight = 0.0;

  friend bool operator==(const WeightEntry&, const WeightEntry&) = default;
};

/// A distribution over discrete values.
struct WeightParameter {
  std::string name;
  std::vector<WeightEntry> entries;

  /// Sum of all (non-negative) weights.
  [[nodiscard]] double total_weight() const noexcept {
    double total = 0.0;
    for (const auto& e : entries) total += e.weight > 0.0 ? e.weight : 0.0;
    return total;
  }

  friend bool operator==(const WeightParameter&,
                         const WeightParameter&) = default;
};

/// A uniform integer range [lo, hi] (inclusive).
struct RangeParameter {
  std::string name;
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  friend bool operator==(const RangeParameter&, const RangeParameter&) = default;
};

/// One weighted subrange [lo, hi] (inclusive) of a SubrangeParameter.
struct SubrangeEntry {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  double weight = 0.0;

  friend bool operator==(const SubrangeEntry&, const SubrangeEntry&) = default;
};

/// A distribution over subranges; within the chosen subrange the value
/// is drawn uniformly.
struct SubrangeParameter {
  std::string name;
  std::vector<SubrangeEntry> entries;

  [[nodiscard]] double total_weight() const noexcept {
    double total = 0.0;
    for (const auto& e : entries) total += e.weight > 0.0 ? e.weight : 0.0;
    return total;
  }

  friend bool operator==(const SubrangeParameter&,
                         const SubrangeParameter&) = default;
};

using Parameter = std::variant<WeightParameter, RangeParameter, SubrangeParameter>;

/// Name of a parameter regardless of its kind.
[[nodiscard]] inline const std::string& parameter_name(const Parameter& p) {
  return std::visit([](const auto& alt) -> const std::string& { return alt.name; },
                    p);
}

/// Number of weighted entries: a weight or subrange parameter's entry
/// count, 0 for a range parameter.
[[nodiscard]] inline std::size_t weight_count(const Parameter& p) noexcept {
  if (const auto* wp = std::get_if<WeightParameter>(&p)) {
    return wp->entries.size();
  }
  if (const auto* sp = std::get_if<SubrangeParameter>(&p)) {
    return sp->entries.size();
  }
  return 0;
}

/// Validates a parameter: non-empty identifier name, at least one entry,
/// non-negative finite weights, ordered non-overlapping ranges.
/// Throws util::ValidationError on violation.
void validate(const Parameter& p);

}  // namespace ascdg::tgen
