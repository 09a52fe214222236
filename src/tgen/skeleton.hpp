// Skeletons (paper §IV-C): a test-template in which the tunable settings
// are replaced by marks ("<W>" in the DSL). The CDG-Runner instantiates
// a skeleton by assigning a concrete weight to every mark, yielding a
// valid test-template. The mark vector is exactly the search space of
// the fine-grained phase: a point in [0,1]^d, d = mark_count().
#pragma once

#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "tgen/test_template.hpp"

namespace ascdg::tgen {

/// Weight entry whose weight may be a mark (nullopt) or fixed (value).
struct SkeletonWeightEntry {
  Value value;
  std::optional<double> weight;  ///< nullopt == marked <W>

  friend bool operator==(const SkeletonWeightEntry&,
                         const SkeletonWeightEntry&) = default;
};

struct SkeletonWeightParameter {
  std::string name;
  std::vector<SkeletonWeightEntry> entries;

  friend bool operator==(const SkeletonWeightParameter&,
                         const SkeletonWeightParameter&) = default;
};

struct SkeletonSubrangeEntry {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::optional<double> weight;  ///< nullopt == marked <W>

  friend bool operator==(const SkeletonSubrangeEntry&,
                         const SkeletonSubrangeEntry&) = default;
};

struct SkeletonSubrangeParameter {
  std::string name;
  std::vector<SkeletonSubrangeEntry> entries;

  friend bool operator==(const SkeletonSubrangeParameter&,
                         const SkeletonSubrangeParameter&) = default;
};

/// A skeleton parameter: marked weight/subrange distributions, or a
/// fixed range parameter the Skeletonizer chose to leave untouched.
using SkeletonParameter = std::variant<SkeletonWeightParameter,
                                       SkeletonSubrangeParameter, RangeParameter>;

/// Identifies one mark for reporting: the parameter it lives in and a
/// human-readable slot label ("load" or "[0..333]").
struct MarkInfo {
  std::string parameter;
  std::string slot;

  [[nodiscard]] std::string to_string() const {
    return parameter + "[" + slot + "]";
  }
};

class Skeleton {
 public:
  Skeleton() = default;
  explicit Skeleton(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a parameter; rejects duplicate names and parameters with
  /// no entries. Throws util::ValidationError.
  void add(SkeletonParameter parameter);

  [[nodiscard]] const std::vector<SkeletonParameter>& parameters() const noexcept {
    return params_;
  }
  [[nodiscard]] bool empty() const noexcept { return params_.empty(); }

  /// Number of marks (== dimension of the fine-grained search space).
  [[nodiscard]] std::size_t mark_count() const noexcept;

  /// Description of each mark, in instantiation order.
  [[nodiscard]] std::vector<MarkInfo> marks() const;

  /// The template every point instantiates, named `name`: the fixed
  /// weights as given and every mark at weight 1. Throws
  /// util::ValidationError when a fixed weight makes it invalid.
  [[nodiscard]] TestTemplate base(std::string name) const;

  /// The weights of point `point` for base(): one per weight or
  /// subrange entry, in template order (tgen::TestTemplate::set_weights,
  /// exec::Job::weights). The i-th mark takes point[i], negative
  /// values clamped to zero; a fixed entry keeps its weight. If a
  /// parameter ends up with zero total weight, all of its marks fall
  /// back to 1.0 (uniform) so the template stays generatable. Throws
  /// util::ValidationError when point.size() != mark_count().
  [[nodiscard]] std::vector<double> weights(std::span<const double> point) const;

  /// base(instance_name) with weights(point): the concrete template of
  /// `point`.
  [[nodiscard]] TestTemplate instantiate(std::string instance_name,
                                         std::span<const double> point) const;

  friend bool operator==(const Skeleton& a, const Skeleton& b) {
    return a.name_ == b.name_ && a.params_ == b.params_;
  }

 private:
  std::string name_;
  std::vector<SkeletonParameter> params_;
};

/// Serializes to the skeleton DSL text ("skeleton <name> { ... }" with
/// <W> marks). Round-trips with parse_skeleton().
[[nodiscard]] std::string to_text(const Skeleton& skeleton);

}  // namespace ascdg::tgen
