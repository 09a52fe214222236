#include "coverage/repository.hpp"

#include <bit>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ascdg::coverage {

namespace {

/// Process-wide count of record() folds across every repository. A
/// per-instance series would bloat the registry (tests and flows create
/// many short-lived repositories), so per-event closure data stays on
/// the repository itself — see first_hit_record().
obs::Counter& records_counter() {
  static obs::Counter& counter =
      obs::registry().counter("ascdg_coverage_records_total");
  return counter;
}

}  // namespace

SimStats SimStats::from_counts(std::size_t sims,
                               std::vector<std::size_t> hits) {
  for (const std::size_t h : hits) {
    if (h > sims) {
      throw util::ValidationError(
          "per-event hit count exceeds the simulation count");
    }
  }
  SimStats out;
  out.sims_ = sims;
  out.hits_ = std::move(hits);
  return out;
}

void SimStats::record(const CoverageVector& vec) {
  if (hits_.empty()) hits_.assign(vec.size(), 0);
  ASCDG_ASSERT(vec.size() == hits_.size(), "coverage vector size mismatch");
  ++sims_;
  // Word-at-a-time: only set bits cost anything, so sparse vectors (the
  // common case — a simulation hits a fraction of the space) fold in
  // far fewer than event_count() steps.
  for (std::size_t w = 0; w < vec.word_count(); ++w) {
    std::uint64_t bits = vec.word(w);
    while (bits != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      ++hits_[w * 64 + bit];
      bits &= bits - 1;
    }
  }
}

void SimStats::merge(const SimStats& other) {
  if (other.sims_ == 0 && other.hits_.empty()) return;
  if (hits_.empty()) {
    *this = other;
    return;
  }
  ASCDG_ASSERT(hits_.size() == other.hits_.size(), "stats size mismatch");
  sims_ += other.sims_;
  for (std::size_t i = 0; i < hits_.size(); ++i) hits_[i] += other.hits_[i];
}

void SimStats::merge(SimStats&& other) {
  if (hits_.empty()) {
    *this = std::move(other);
    return;
  }
  merge(other);
}

std::size_t SimStats::hits(EventId id) const {
  ASCDG_ASSERT(id.value < hits_.size(), "event id out of range");
  return hits_[id.value];
}

double SimStats::hit_rate(EventId id) const {
  if (sims_ == 0) return 0.0;
  return static_cast<double>(hits(id)) / static_cast<double>(sims_);
}

double SimStats::target_value(std::span<const EventId> events) const {
  double total = 0.0;
  for (const EventId id : events) total += hit_rate(id);
  return total;
}

void CoverageRepository::record(std::string_view template_name,
                                const CoverageVector& vec) {
  auto [it, inserted] =
      by_template_.try_emplace(std::string(template_name), event_count_);
  (void)inserted;
  it->second.record(vec);
  ++records_;
  records_counter().inc();
  for (std::size_t i = 0; i < event_count_; ++i) {
    if (vec.was_hit(EventId{static_cast<std::uint32_t>(i)})) note_hit(i);
  }
}

void CoverageRepository::record(std::string_view template_name,
                                const SimStats& stats) {
  ASCDG_ASSERT(stats.event_count() == event_count_ || stats.sims() == 0,
               "stats event count mismatch");
  auto [it, inserted] =
      by_template_.try_emplace(std::string(template_name), event_count_);
  (void)inserted;
  it->second.merge(stats);
  ++records_;
  records_counter().inc();
  if (stats.sims() != 0) {
    for (std::size_t i = 0; i < event_count_; ++i) {
      if (stats.hits(EventId{static_cast<std::uint32_t>(i)}) > 0) note_hit(i);
    }
  }
}

void CoverageRepository::note_hit(std::size_t index) {
  if (first_hit_record_[index] != 0) return;
  first_hit_record_[index] = records_;
  ++events_hit_;
}

std::optional<std::size_t> CoverageRepository::first_hit_record(
    EventId id) const {
  ASCDG_ASSERT(id.value < event_count_, "event id out of range");
  const std::size_t ordinal = first_hit_record_[id.value];
  if (ordinal == 0) return std::nullopt;
  return ordinal;
}

const SimStats& CoverageRepository::stats(std::string_view template_name) const {
  const auto it = by_template_.find(template_name);
  if (it == by_template_.end()) {
    throw util::NotFoundError("no coverage recorded for template '" +
                              std::string(template_name) + "'");
  }
  return it->second;
}

bool CoverageRepository::contains(std::string_view template_name) const noexcept {
  return by_template_.find(template_name) != by_template_.end();
}

std::vector<std::string> CoverageRepository::template_names() const {
  std::vector<std::string> names;
  names.reserve(by_template_.size());
  for (const auto& [name, stats] : by_template_) names.push_back(name);
  return names;
}

SimStats CoverageRepository::total() const {
  SimStats out(event_count_);
  for (const auto& [name, stats] : by_template_) out.merge(stats);
  return out;
}

std::size_t CoverageRepository::total_sims() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, stats] : by_template_) total += stats.sims();
  return total;
}

}  // namespace ascdg::coverage
