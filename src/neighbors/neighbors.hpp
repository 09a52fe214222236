// Neighbor discovery and the approximated target (paper §IV-A).
//
// The complete lack of positive evidence for the target events means any
// search starts "in the dark". The fix mimics verification experts: take
// events *near* the target — events whose hitting exercises the same
// area of the DUV — and optimize a (weighted) sum of their hit rates,
// giving more weight to events closer to the target.
//
// Implemented discovery strategies (the paper cites one per reference):
//   * FamilyOrderStrategy  — the natural order inside an event family
//     (buffer-fill / threshold families like crc_004..crc_096), after
//     Wagner et al. [8];
//   * CrossProductStrategy — the structure of a cross-product coverage
//     model (Hamming ball around the target tuple), after Fine & Ziv [15];
//   * NamePrefixStrategy   — lexical proximity of event names, a cheap
//     structural stand-in for the "Friends" formal analysis [16].
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "coverage/repository.hpp"
#include "coverage/space.hpp"
#include "tac/tac.hpp"

namespace ascdg::neighbors {

/// A weighted set of events standing in for an uncovered target.
/// `events` always contains the targets themselves (so that once real
/// evidence appears it dominates the objective) plus their neighbors.
class ApproximatedTarget {
 public:
  ApproximatedTarget() = default;
  ApproximatedTarget(std::vector<coverage::EventId> targets,
                     std::vector<tac::WeightedEvent> events);

  [[nodiscard]] const std::vector<coverage::EventId>& targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<tac::WeightedEvent>& events() const noexcept {
    return events_;
  }

  /// The approximated objective: weighted sum of empirical hit rates,
  /// T_N(t) = sum_e w_e * e_N(t).
  [[nodiscard]] double value(const coverage::SimStats& stats) const;

  /// The real objective: summed hit rate of the target events only.
  [[nodiscard]] double real_value(const coverage::SimStats& stats) const;

 private:
  std::vector<coverage::EventId> targets_;
  std::vector<tac::WeightedEvent> events_;
  /// One past the largest event id of targets_ and events_: the least
  /// event count a SimStats must have to be scored.
  std::size_t event_bound_ = 0;
};

class NeighborStrategy {
 public:
  virtual ~NeighborStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Neighbors of `target` (excluding `target` itself), with weights in
  /// (0, 1]; closer neighbors get larger weights.
  [[nodiscard]] virtual std::vector<tac::WeightedEvent> neighbors(
      const coverage::CoverageSpace& space, coverage::EventId target) const = 0;
};

/// Neighbors by position within a declared event family: weight
/// 1 / (1 + order distance).
class FamilyOrderStrategy final : public NeighborStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "family-order";
  }
  [[nodiscard]] std::vector<tac::WeightedEvent> neighbors(
      const coverage::CoverageSpace& space,
      coverage::EventId target) const override;
};

/// Neighbors inside a cross-product model: all events within Hamming
/// distance `radius` of the target tuple, weight 1 / (1 + distance).
class CrossProductStrategy final : public NeighborStrategy {
 public:
  explicit CrossProductStrategy(std::size_t radius = 1) : radius_(radius) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "cross-product";
  }
  [[nodiscard]] std::vector<tac::WeightedEvent> neighbors(
      const coverage::CoverageSpace& space,
      coverage::EventId target) const override;

 private:
  std::size_t radius_;
};

/// Neighbors by shared name prefix: events sharing at least
/// `min_prefix` leading characters with the target, weight proportional
/// to the shared-prefix fraction.
class NamePrefixStrategy final : public NeighborStrategy {
 public:
  explicit NamePrefixStrategy(std::size_t min_prefix = 4)
      : min_prefix_(min_prefix) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "name-prefix";
  }
  [[nodiscard]] std::vector<tac::WeightedEvent> neighbors(
      const coverage::CoverageSpace& space,
      coverage::EventId target) const override;

 private:
  std::size_t min_prefix_;
};

/// Union of several strategies; a neighbor found by more than one keeps
/// its maximum weight.
class CompositeStrategy final : public NeighborStrategy {
 public:
  explicit CompositeStrategy(
      std::vector<std::unique_ptr<NeighborStrategy>> strategies)
      : strategies_(std::move(strategies)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "composite";
  }
  [[nodiscard]] std::vector<tac::WeightedEvent> neighbors(
      const coverage::CoverageSpace& space,
      coverage::EventId target) const override;

 private:
  std::vector<std::unique_ptr<NeighborStrategy>> strategies_;
};

/// Data-driven neighbor expansion, a statistical stand-in for the
/// formal "Friends" analysis the paper cites [16]: events whose
/// per-template hit profile correlates with the profile of an already
/// known neighbor are probably exercised by the same mechanism, so they
/// join the approximated target too.
///
/// Expansion works on evidence: the target itself has no hits, so the
/// correlation is computed against the *weighted profile* of the seed
/// neighbors (sum of their per-template hit-rate vectors, weighted).
/// An event joins when the cosine similarity of its profile with that
/// seed profile reaches `min_similarity`; its weight is
/// `expansion_weight * similarity`.
class CorrelationExpansion {
 public:
  /// `repo` must outlive the expansion object.
  CorrelationExpansion(const coverage::CoverageRepository& repo,
                       double min_similarity = 0.8,
                       double expansion_weight = 0.25) noexcept
      : repo_(&repo),
        min_similarity_(min_similarity),
        expansion_weight_(expansion_weight) {}

  /// Returns a new target containing every event of `base` plus the
  /// correlated events (existing events keep their weights; an event
  /// found by both keeps the larger weight).
  [[nodiscard]] ApproximatedTarget expand(const ApproximatedTarget& base) const;

  /// The cosine similarity between an event's per-template hit-rate
  /// profile and the base target's weighted seed profile (exposed for
  /// tests; 0 when either profile is all-zero).
  [[nodiscard]] double similarity(const ApproximatedTarget& base,
                                  coverage::EventId event) const;

 private:
  [[nodiscard]] std::vector<double> seed_profile(
      const ApproximatedTarget& base) const;
  [[nodiscard]] std::vector<double> event_profile(coverage::EventId event) const;

  const coverage::CoverageRepository* repo_;
  double min_similarity_;
  double expansion_weight_;
};

/// Builds the approximated target for a set of uncovered targets: each
/// target contributes itself (weight `target_weight`) plus its neighbors
/// under `strategy`. Duplicate events keep their maximum weight.
[[nodiscard]] ApproximatedTarget build_target(
    const coverage::CoverageSpace& space,
    std::span<const coverage::EventId> targets,
    const NeighborStrategy& strategy, double target_weight = 2.0);

/// How family_target weights the family members.
enum class FamilyWeighting {
  /// Unit weights — the plain "sum of the hit counts for all the events
  /// in the family" (§V). Simple, but on steep families the optimizer
  /// can plateau maximizing the easy head of the family.
  kUniform,
  /// Weight 1/(1 + order distance to the nearest uncovered target),
  /// with `target_weight` on the targets themselves — the §IV-A
  /// "weighted sum of these events, giving more weight to events closer
  /// to our target". This is the default: it keeps a usable gradient
  /// while pulling the optimum toward the uncovered tail.
  kDistance,
};

/// Convenience: an approximated target over a whole family; targets =
/// the events currently uncovered per `baseline` (or the rarest event
/// when everything is covered).
[[nodiscard]] ApproximatedTarget family_target(
    const coverage::CoverageSpace& space, std::string_view family,
    const coverage::SimStats& baseline,
    FamilyWeighting weighting = FamilyWeighting::kDistance,
    double target_weight = 2.0);

}  // namespace ascdg::neighbors
