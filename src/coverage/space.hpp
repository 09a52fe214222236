// CoverageSpace: the declaration of all coverage events of a DUV,
// including structural metadata — named families (ordered lists of
// related events, e.g. crc_004..crc_096) and cross-product models
// (paper §V: entry x thread x sector x branch on the IFU). The
// neighbor-discovery strategies (§IV-A) consume this structure.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "coverage/event.hpp"

namespace ascdg::coverage {

/// One feature (dimension) of a cross-product coverage model.
struct CrossFeature {
  std::string name;
  std::size_t cardinality = 0;
};

/// A cross-product block of events: one event per coordinate tuple,
/// laid out contiguously in row-major order starting at `first`.
struct CrossProduct {
  std::string family;
  std::vector<CrossFeature> features;
  EventId first{0};
  std::size_t count = 0;

  /// Product of all feature cardinalities.
  [[nodiscard]] std::size_t tuple_count() const noexcept;
};

class CoverageSpace {
 public:
  /// Declares a single event; names must be unique identifiers.
  /// Throws util::ValidationError on duplicates or empty names.
  EventId declare_event(std::string name);

  /// Declares a named family: a contiguous, ordered list of events with
  /// names `<family>_<suffix>` for each given suffix. The family order
  /// is meaningful (easier -> harder), as in crc_004..crc_096.
  /// Returns the event ids in order.
  std::vector<EventId> declare_family(std::string_view family,
                                      std::span<const std::string> suffixes);

  /// Declares a cross-product block. Event names are
  /// `<family>_<f0><v0>_<f1><v1>_...`. Returns the block descriptor.
  const CrossProduct& declare_cross_product(std::string family,
                                            std::vector<CrossFeature> features);

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& name(EventId id) const;
  [[nodiscard]] std::optional<EventId> find(std::string_view name) const noexcept;

  /// All events whose name starts with `prefix`, in declaration order.
  [[nodiscard]] std::vector<EventId> events_with_prefix(
      std::string_view prefix) const;

  /// The ordered events of a declared family; empty if unknown.
  [[nodiscard]] std::vector<EventId> family_events(std::string_view family) const;

  /// Declared family names, in declaration order.
  [[nodiscard]] std::vector<std::string> family_names() const;

  /// The cross product an event belongs to, or nullptr.
  [[nodiscard]] const CrossProduct* cross_product_of(EventId id) const noexcept;

  /// Cross-product lookup by family name, or nullptr.
  [[nodiscard]] const CrossProduct* find_cross_product(
      std::string_view family) const noexcept;

  /// Event at the given coordinates of a cross product.
  /// Throws util::ValidationError on arity/bounds violations. Inline:
  /// unit kernels call it once per simulated request.
  [[nodiscard]] EventId cross_event(const CrossProduct& cp,
                                    std::span<const std::size_t> coords) const;

  /// Coordinates of a cross-product event.
  /// Throws util::ValidationError if `id` is not in `cp`.
  [[nodiscard]] std::vector<std::size_t> coords_of(const CrossProduct& cp,
                                                   EventId id) const;

 private:
  // cross_event's cold paths, out of line in space.cpp.
  [[noreturn]] static void throw_cross_arity(const CrossProduct& cp);
  [[noreturn]] static void throw_cross_coordinate(const CrossProduct& cp,
                                                  std::size_t feature,
                                                  std::size_t coord);

  std::vector<std::string> names_;
  std::unordered_map<std::string, EventId> by_name_;
  struct FamilyRecord {
    std::string name;
    std::vector<EventId> events;
  };
  std::vector<FamilyRecord> families_;
  // deque: we hand out references to declared cross products, so their
  // addresses must survive later declarations.
  std::deque<CrossProduct> cross_products_;
  std::vector<std::int32_t> event_cross_;  // index into cross_products_ or -1
};

inline EventId CoverageSpace::cross_event(
    const CrossProduct& cp, std::span<const std::size_t> coords) const {
  if (coords.size() != cp.features.size()) [[unlikely]] throw_cross_arity(cp);
  std::size_t offset = 0;
  for (std::size_t d = 0; d < coords.size(); ++d) {
    if (coords[d] >= cp.features[d].cardinality) [[unlikely]] {
      throw_cross_coordinate(cp, d, coords[d]);
    }
    offset = offset * cp.features[d].cardinality + coords[d];
  }
  return EventId{cp.first.value + static_cast<std::uint32_t>(offset)};
}

}  // namespace ascdg::coverage
