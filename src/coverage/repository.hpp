// Aggregated coverage statistics.
//
// SimStats accumulates, over many simulations, how many simulations hit
// each event (the paper's "#hits"; hit rate = #hits / #sims). The
// CoverageRepository keys SimStats by test-template name — the summary
// "stored in a coverage repository" that the verification team (and the
// TAC tool) queries during coverage closure (paper §III).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/event.hpp"
#include "coverage/vector.hpp"

namespace ascdg::coverage {

class SimStats {
 public:
  SimStats() = default;
  explicit SimStats(std::size_t event_count) : hits_(event_count, 0) {}

  /// Reconstructs an accumulator from persisted counts (see
  /// repository_io). Throws util::ValidationError when any per-event
  /// count exceeds `sims`.
  [[nodiscard]] static SimStats from_counts(std::size_t sims,
                                            std::vector<std::size_t> hits);

  /// Folds one simulation's coverage vector into the stats.
  void record(const CoverageVector& vec);

  /// Adds another accumulator (associative, commutative).
  void merge(const SimStats& other);
  /// As above; into an empty accumulator, `other` is moved in instead
  /// of copied.
  void merge(SimStats&& other);

  [[nodiscard]] std::size_t sims() const noexcept { return sims_; }
  [[nodiscard]] std::size_t event_count() const noexcept { return hits_.size(); }
  [[nodiscard]] std::size_t hits(EventId id) const;

  /// Empirical hit probability e_N(t) (paper §IV-D): hits / sims.
  [[nodiscard]] double hit_rate(EventId id) const;

  /// Sum of hit rates over an event set — the empirical approximated
  /// target T_N(t) = sum_{e in E} e_N(t) (unweighted form).
  [[nodiscard]] double target_value(std::span<const EventId> events) const;

  [[nodiscard]] HitStatus status(EventId id) const {
    return classify_hits(hits(id), sims_);
  }

  [[nodiscard]] const std::vector<std::size_t>& hit_counts() const noexcept {
    return hits_;
  }

  friend bool operator==(const SimStats&, const SimStats&) = default;

 private:
  std::size_t sims_ = 0;
  std::vector<std::size_t> hits_;
};

class CoverageRepository {
 public:
  explicit CoverageRepository(std::size_t event_count)
      : event_count_(event_count), first_hit_record_(event_count, 0) {}

  [[nodiscard]] std::size_t event_count() const noexcept { return event_count_; }

  /// Records one simulation of a test-instance from `template_name`.
  void record(std::string_view template_name, const CoverageVector& vec);

  /// Folds pre-aggregated stats for `template_name`.
  void record(std::string_view template_name, const SimStats& stats);

  /// Per-template stats; throws util::NotFoundError for unknown names.
  [[nodiscard]] const SimStats& stats(std::string_view template_name) const;

  [[nodiscard]] bool contains(std::string_view template_name) const noexcept;

  /// All template names, sorted.
  [[nodiscard]] std::vector<std::string> template_names() const;

  /// Stats aggregated over every template (the "Before CDG" totals).
  [[nodiscard]] SimStats total() const;

  [[nodiscard]] std::size_t total_sims() const noexcept;

  // --- Closure telemetry ---------------------------------------------------
  // The repository keeps per-event first-hit ordinals: `records()` counts
  // every record() fold (a single simulation or one pre-aggregated batch),
  // and each event remembers the ordinal of the fold that first hit it.

  /// Number of record() calls folded into the repository so far.
  [[nodiscard]] std::size_t records() const noexcept { return records_; }

  /// Events hit at least once across all templates.
  [[nodiscard]] std::size_t events_hit() const noexcept { return events_hit_; }

  /// Events never hit so far.
  [[nodiscard]] std::size_t events_remaining() const noexcept {
    return event_count_ - events_hit_;
  }

  /// 1-based ordinal of the record() fold that first hit `id`, or
  /// nullopt when the event has never been hit.
  [[nodiscard]] std::optional<std::size_t> first_hit_record(EventId id) const;

 private:
  void note_hit(std::size_t index);

  std::size_t event_count_;
  std::size_t records_ = 0;
  std::size_t events_hit_ = 0;
  /// 0 = never hit; otherwise the 1-based fold ordinal of the first hit.
  std::vector<std::size_t> first_hit_record_;
  std::map<std::string, SimStats, std::less<>> by_template_;
};

}  // namespace ascdg::coverage
