#include "neighbors/neighbors.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/error.hpp"

namespace ascdg::neighbors {

ApproximatedTarget::ApproximatedTarget(std::vector<coverage::EventId> targets,
                                       std::vector<tac::WeightedEvent> events)
    : targets_(std::move(targets)), events_(std::move(events)) {
  for (const auto event : targets_) {
    event_bound_ = std::max<std::size_t>(event_bound_, event.value + 1ULL);
  }
  for (const auto& [event, weight] : events_) {
    event_bound_ = std::max<std::size_t>(event_bound_, event.value + 1ULL);
  }
}

// Both objectives sum the terms SimStats::hit_rate gives, in the same
// order and rounding; the range check and the sims == 0 case (every
// rate 0, so the sum of finite weights times 0 is +0.0) are hoisted out
// of the loop.

double ApproximatedTarget::value(const coverage::SimStats& stats) const {
  if (stats.sims() == 0) return 0.0;
  const std::vector<std::size_t>& hits = stats.hit_counts();
  ASCDG_ASSERT(event_bound_ <= hits.size(), "event id out of range");
  const auto sims = static_cast<double>(stats.sims());
  double total = 0.0;
  for (const auto& [event, weight] : events_) {
    total += weight * (static_cast<double>(hits[event.value]) / sims);
  }
  return total;
}

double ApproximatedTarget::real_value(const coverage::SimStats& stats) const {
  if (stats.sims() == 0) return 0.0;
  const std::vector<std::size_t>& hits = stats.hit_counts();
  ASCDG_ASSERT(event_bound_ <= hits.size(), "event id out of range");
  const auto sims = static_cast<double>(stats.sims());
  double total = 0.0;
  for (const auto event : targets_) {
    total += static_cast<double>(hits[event.value]) / sims;
  }
  return total;
}

std::vector<tac::WeightedEvent> FamilyOrderStrategy::neighbors(
    const coverage::CoverageSpace& space, coverage::EventId target) const {
  for (const auto& family : space.family_names()) {
    const auto events = space.family_events(family);
    const auto it = std::find(events.begin(), events.end(), target);
    if (it == events.end()) continue;
    const auto pos = static_cast<std::size_t>(it - events.begin());
    std::vector<tac::WeightedEvent> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i == pos) continue;
      const std::size_t dist = i > pos ? i - pos : pos - i;
      out.push_back({events[i], 1.0 / (1.0 + static_cast<double>(dist))});
    }
    return out;
  }
  return {};
}

std::vector<tac::WeightedEvent> CrossProductStrategy::neighbors(
    const coverage::CoverageSpace& space, coverage::EventId target) const {
  const coverage::CrossProduct* cp = space.cross_product_of(target);
  if (cp == nullptr) return {};
  const auto target_coords = space.coords_of(*cp, target);
  std::vector<tac::WeightedEvent> out;
  for (std::size_t offset = 0; offset < cp->count; ++offset) {
    const coverage::EventId id{cp->first.value +
                               static_cast<std::uint32_t>(offset)};
    if (id == target) continue;
    const auto coords = space.coords_of(*cp, id);
    std::size_t hamming = 0;
    for (std::size_t d = 0; d < coords.size(); ++d) {
      if (coords[d] != target_coords[d]) ++hamming;
    }
    if (hamming <= radius_) {
      out.push_back({id, 1.0 / (1.0 + static_cast<double>(hamming))});
    }
  }
  return out;
}

std::vector<tac::WeightedEvent> NamePrefixStrategy::neighbors(
    const coverage::CoverageSpace& space, coverage::EventId target) const {
  const std::string& target_name = space.name(target);
  std::vector<tac::WeightedEvent> out;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const coverage::EventId id{static_cast<std::uint32_t>(i)};
    if (id == target) continue;
    const std::string& name = space.name(id);
    std::size_t shared = 0;
    const std::size_t limit = std::min(name.size(), target_name.size());
    while (shared < limit && name[shared] == target_name[shared]) ++shared;
    if (shared >= min_prefix_) {
      out.push_back({id, static_cast<double>(shared) /
                             static_cast<double>(target_name.size())});
    }
  }
  return out;
}

std::vector<tac::WeightedEvent> CompositeStrategy::neighbors(
    const coverage::CoverageSpace& space, coverage::EventId target) const {
  std::unordered_map<coverage::EventId, double> best;
  for (const auto& strategy : strategies_) {
    for (const auto& [event, weight] : strategy->neighbors(space, target)) {
      auto [it, inserted] = best.try_emplace(event, weight);
      if (!inserted) it->second = std::max(it->second, weight);
    }
  }
  std::vector<tac::WeightedEvent> out;
  out.reserve(best.size());
  for (const auto& [event, weight] : best) out.push_back({event, weight});
  std::sort(out.begin(), out.end(),
            [](const tac::WeightedEvent& a, const tac::WeightedEvent& b) {
              return a.event < b.event;
            });
  return out;
}

std::vector<double> CorrelationExpansion::event_profile(
    coverage::EventId event) const {
  std::vector<double> profile;
  for (const auto& name : repo_->template_names()) {
    profile.push_back(repo_->stats(name).hit_rate(event));
  }
  return profile;
}

std::vector<double> CorrelationExpansion::seed_profile(
    const ApproximatedTarget& base) const {
  std::vector<double> profile(repo_->template_names().size(), 0.0);
  for (const auto& [event, weight] : base.events()) {
    const auto ep = event_profile(event);
    for (std::size_t i = 0; i < profile.size(); ++i) {
      profile[i] += weight * ep[i];
    }
  }
  return profile;
}

namespace {
double cosine(const std::vector<double>& a, const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}
}  // namespace

double CorrelationExpansion::similarity(const ApproximatedTarget& base,
                                        coverage::EventId event) const {
  return cosine(seed_profile(base), event_profile(event));
}

ApproximatedTarget CorrelationExpansion::expand(
    const ApproximatedTarget& base) const {
  const auto seed = seed_profile(base);
  std::unordered_map<coverage::EventId, double> weights;
  for (const auto& [event, weight] : base.events()) weights[event] = weight;

  for (std::size_t e = 0; e < repo_->event_count(); ++e) {
    const coverage::EventId id{static_cast<std::uint32_t>(e)};
    if (weights.contains(id)) continue;
    const double sim = cosine(seed, event_profile(id));
    if (sim >= min_similarity_) {
      weights.emplace(id, expansion_weight_ * sim);
    }
  }

  std::vector<tac::WeightedEvent> events;
  events.reserve(weights.size());
  for (const auto& [event, weight] : weights) events.push_back({event, weight});
  std::sort(events.begin(), events.end(),
            [](const tac::WeightedEvent& a, const tac::WeightedEvent& b) {
              return a.event < b.event;
            });
  return ApproximatedTarget{base.targets(), std::move(events)};
}

ApproximatedTarget build_target(const coverage::CoverageSpace& space,
                                std::span<const coverage::EventId> targets,
                                const NeighborStrategy& strategy,
                                double target_weight) {
  if (targets.empty()) {
    throw util::ValidationError("approximated target needs at least one target");
  }
  std::unordered_map<coverage::EventId, double> weights;
  for (const auto target : targets) weights[target] = target_weight;
  for (const auto target : targets) {
    for (const auto& [event, weight] : strategy.neighbors(space, target)) {
      auto [it, inserted] = weights.try_emplace(event, weight);
      if (!inserted) it->second = std::max(it->second, weight);
    }
  }
  std::vector<tac::WeightedEvent> events;
  events.reserve(weights.size());
  for (const auto& [event, weight] : weights) events.push_back({event, weight});
  std::sort(events.begin(), events.end(),
            [](const tac::WeightedEvent& a, const tac::WeightedEvent& b) {
              return a.event < b.event;
            });
  return ApproximatedTarget{
      std::vector<coverage::EventId>(targets.begin(), targets.end()),
      std::move(events)};
}

ApproximatedTarget family_target(const coverage::CoverageSpace& space,
                                 std::string_view family,
                                 const coverage::SimStats& baseline,
                                 FamilyWeighting weighting,
                                 double target_weight) {
  const auto events = space.family_events(family);
  if (events.empty()) {
    throw util::NotFoundError("unknown event family '" + std::string(family) +
                              "'");
  }
  std::vector<coverage::EventId> targets;
  std::vector<std::size_t> target_positions;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (baseline.sims() == 0 || baseline.hits(events[i]) == 0) {
      targets.push_back(events[i]);
      target_positions.push_back(i);
    }
  }
  if (targets.empty()) {
    // Everything already covered: target the rarest event so the flow
    // still has a well-defined objective.
    const auto rarest_it = std::min_element(
        events.begin(), events.end(),
        [&baseline](coverage::EventId a, coverage::EventId b) {
          return baseline.hits(a) < baseline.hits(b);
        });
    targets.push_back(*rarest_it);
    target_positions.push_back(
        static_cast<std::size_t>(rarest_it - events.begin()));
  }

  std::vector<tac::WeightedEvent> weighted;
  weighted.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    double weight = 1.0;
    if (weighting == FamilyWeighting::kDistance) {
      std::size_t dist = events.size();
      for (const std::size_t pos : target_positions) {
        const std::size_t d = pos > i ? pos - i : i - pos;
        dist = std::min(dist, d);
      }
      weight = dist == 0 ? target_weight
                         : 1.0 / (1.0 + static_cast<double>(dist));
    }
    weighted.push_back({events[i], weight});
  }
  return ApproximatedTarget{std::move(targets), std::move(weighted)};
}

}  // namespace ascdg::neighbors
