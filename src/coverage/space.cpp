#include "coverage/space.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ascdg::coverage {

using util::ValidationError;

std::size_t CrossProduct::tuple_count() const noexcept {
  std::size_t total = 1;
  for (const auto& f : features) total *= f.cardinality;
  return total;
}

EventId CoverageSpace::declare_event(std::string name) {
  if (!util::is_identifier(name)) {
    throw ValidationError("invalid event name: '" + name + "'");
  }
  if (by_name_.contains(name)) {
    throw ValidationError("duplicate event name: '" + name + "'");
  }
  if (names_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw ValidationError("coverage space is full");
  }
  const EventId id{static_cast<std::uint32_t>(names_.size())};
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  event_cross_.push_back(-1);
  return id;
}

std::vector<EventId> CoverageSpace::declare_family(
    std::string_view family, std::span<const std::string> suffixes) {
  if (suffixes.empty()) {
    throw ValidationError("family '" + std::string(family) +
                          "' declared with no events");
  }
  std::vector<EventId> ids;
  ids.reserve(suffixes.size());
  for (const auto& suffix : suffixes) {
    ids.push_back(declare_event(std::string(family) + "_" + suffix));
  }
  families_.push_back({std::string(family), ids});
  return ids;
}

const CrossProduct& CoverageSpace::declare_cross_product(
    std::string family, std::vector<CrossFeature> features) {
  if (features.empty()) {
    throw ValidationError("cross product '" + family + "' has no features");
  }
  for (const auto& f : features) {
    if (f.cardinality == 0) {
      throw ValidationError("cross product '" + family + "' feature '" +
                            f.name + "' has zero cardinality");
    }
  }
  CrossProduct cp;
  cp.family = family;
  cp.features = std::move(features);
  cp.count = cp.tuple_count();
  cp.first = EventId{static_cast<std::uint32_t>(names_.size())};

  const auto cp_index = static_cast<std::int32_t>(cross_products_.size());
  std::vector<std::size_t> coords(cp.features.size(), 0);
  std::vector<EventId> ids;
  ids.reserve(cp.count);
  for (std::size_t i = 0; i < cp.count; ++i) {
    std::string name = family;
    for (std::size_t d = 0; d < cp.features.size(); ++d) {
      name += "_" + cp.features[d].name + std::to_string(coords[d]);
    }
    const EventId id = declare_event(std::move(name));
    event_cross_[id.value] = cp_index;
    ids.push_back(id);
    // Row-major increment.
    for (std::size_t d = cp.features.size(); d-- > 0;) {
      if (++coords[d] < cp.features[d].cardinality) break;
      coords[d] = 0;
    }
  }
  families_.push_back({family, std::move(ids)});
  cross_products_.push_back(std::move(cp));
  return cross_products_.back();
}

const std::string& CoverageSpace::name(EventId id) const {
  ASCDG_ASSERT(id.value < names_.size(), "event id out of range");
  return names_[id.value];
}

std::optional<EventId> CoverageSpace::find(std::string_view name) const noexcept {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::vector<EventId> CoverageSpace::events_with_prefix(
    std::string_view prefix) const {
  std::vector<EventId> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].starts_with(prefix)) {
      out.push_back(EventId{static_cast<std::uint32_t>(i)});
    }
  }
  return out;
}

std::vector<EventId> CoverageSpace::family_events(std::string_view family) const {
  for (const auto& record : families_) {
    if (record.name == family) return record.events;
  }
  return {};
}

std::vector<std::string> CoverageSpace::family_names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& record : families_) out.push_back(record.name);
  return out;
}

const CrossProduct* CoverageSpace::cross_product_of(EventId id) const noexcept {
  if (id.value >= event_cross_.size()) return nullptr;
  const std::int32_t index = event_cross_[id.value];
  return index < 0 ? nullptr
                   : &cross_products_[static_cast<std::size_t>(index)];
}

const CrossProduct* CoverageSpace::find_cross_product(
    std::string_view family) const noexcept {
  for (const auto& cp : cross_products_) {
    if (cp.family == family) return &cp;
  }
  return nullptr;
}

void CoverageSpace::throw_cross_arity(const CrossProduct& cp) {
  throw ValidationError("cross product '" + cp.family + "' expects " +
                        std::to_string(cp.features.size()) + " coordinates");
}

void CoverageSpace::throw_cross_coordinate(const CrossProduct& cp,
                                           std::size_t feature,
                                           std::size_t coord) {
  throw ValidationError("coordinate " + std::to_string(coord) +
                        " out of range for feature '" +
                        cp.features[feature].name + "'");
}

std::vector<std::size_t> CoverageSpace::coords_of(const CrossProduct& cp,
                                                  EventId id) const {
  if (id.value < cp.first.value || id.value >= cp.first.value + cp.count) {
    throw ValidationError("event '" + name(id) + "' is not in cross product '" +
                          cp.family + "'");
  }
  std::size_t offset = id.value - cp.first.value;
  std::vector<std::size_t> coords(cp.features.size());
  for (std::size_t d = cp.features.size(); d-- > 0;) {
    coords[d] = offset % cp.features[d].cardinality;
    offset /= cp.features[d].cardinality;
  }
  return coords;
}

}  // namespace ascdg::coverage
