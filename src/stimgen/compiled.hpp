// Compiled template→distribution tables: the one draw implementation.
//
// Resolving a parameter by name means a lookup over the override
// template, a fallback lookup over the defaults, and a weights vector
// per weighted draw. The result never changes within a job, so
// CompiledTemplate performs that resolution once per (overrides,
// defaults) pair and exposes allocation-free draw routines. Unit
// kernels hold CompiledParam pointers resolved at compile time and draw
// through them; ParameterSampler (sampler.hpp) is a by-name view over
// the same tables for generators that look parameters up by name.
//
// Draw semantics: one generator output per weighted pick, threshold-
// modulo rejection per range pick (util::UniformIntRange, the same
// draws as Xoshiro256::uniform_i64), nothing consumed on a zero-total
// weight; kind mismatches and zero total weights throw
// util::ValidationError at draw time, not compile time. Every draw
// counts once on the active ScopedDrawProfiler.
//
// The weighted pick is defined by the sequential walk
//
//   p = uniform() * total;              // uniform() = k * 2^-53
//   for i: if (p < w[i]) return i; p -= w[i];
//   return the last positive-weight index;   // floating-point slack
//
// over the clamped weights w (w > 0 ? w : 0) and their entry-order sum
// total, but it does not run that walk. IEEE rounding is monotone, so
// for a finite total the first p is a non-decreasing function of
// k = rng() >> 11 and every later p a non-decreasing function of the
// one before; a total that overflowed to inf makes every p NaN or inf,
// which passes every entry. So whether the walk gets past entries
// 0..i is a monotone predicate of the integer k. Compile (and
// set_weights) store cuts_[i], the least k for which it holds, found
// by evaluating that same walk (same operations, same order): a gallop
// from the cumulative-share estimate 2^53 * (w[0] + ... + w[i]) / total
// brackets it, and a bisection closes it. The cuts are non-decreasing,
// so the number of cuts at or below k is the number of entries the walk
// gets past, which is the index it returns. Only the cuts of the
// entries before the last positive one, L, are counted: a k past them
// all reaches L, and the walk returns L whether it stops there or
// slides past L and the zero weights after it into the slack. The pick
// therefore equals the walk for every k, by construction. The clamped
// weights are read from the template (or the set_weights vector) while
// the cuts are computed and not kept: the cuts and the total are the
// whole table.
//
// The draw fast path is inline, so a unit kernel's per-request loop
// makes no calls. Only the throws and the active profiler's
// record_draw are out of line (compiled.cpp, profile.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "stimgen/profile.hpp"
#include "tgen/test_template.hpp"
#include "util/rng.hpp"

namespace ascdg::stimgen {

/// One resolved, draw-ready distribution. Referenced templates must
/// outlive the compiled form (it borrows names, values and entries).
class CompiledParam {
 public:
  enum class Kind : std::uint8_t { kWeight, kRange, kSubrange };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Source weight parameter (kWeight only, else nullptr) — unit
  /// kernels read entry values through it when precomputing codes.
  [[nodiscard]] const tgen::WeightParameter* weight() const noexcept {
    return weight_;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return cuts_.size();
  }

  /// Draws the entry index of a weight parameter. Throws
  /// util::ValidationError on kind mismatch or zero total weight
  /// (consuming no randomness in the latter case).
  [[nodiscard]] std::size_t draw_index(util::Xoshiro256& rng) const;

  /// The drawn entry's value.
  [[nodiscard]] const tgen::Value& draw_value(util::Xoshiro256& rng) const {
    // Draw first: draw_index throws on a non-weight kind, whose weight_
    // is null.
    const std::size_t index = draw_index(rng);
    return weight_->entries[index].value;
  }

  /// The drawn entry's integer payload; throws util::ValidationError
  /// naming the offending value when the entry is a symbol.
  [[nodiscard]] std::int64_t draw_int(util::Xoshiro256& rng) const;

  /// Uniform within a range parameter, or weighted-subrange-then-
  /// uniform within a subrange parameter.
  [[nodiscard]] std::int64_t draw_range(util::Xoshiro256& rng) const;

 private:
  friend class CompiledTemplate;

  /// Weighted pick through cuts_ (see the file comment): returns
  /// entry_count() on zero total, consuming nothing.
  [[nodiscard]] std::size_t pick(util::Xoshiro256& rng) const noexcept;

  /// Sums the clamped weight_at(i) (w > 0 ? w : 0) into total_ in
  /// entry order and recomputes cuts_: the one place compile and
  /// set_weights turn template weights into draw tables (compiled.cpp).
  template <class WeightAt>
  void set_table(const WeightAt& weight_at);

  // Cold paths, out of line in compiled.cpp.
  [[noreturn]] void throw_wrong_kind(const char* expected) const;
  [[noreturn]] void throw_zero_total() const;
  [[noreturn]] void throw_non_integer(std::size_t index) const;

  std::string_view name_;
  Kind kind_ = Kind::kRange;
  // kWeight / kSubrange: one slot per entry, holding the pick's cuts
  // in its first cut_count_ slots (the entries before the last positive
  // one; none on zero total), and the clamped weights' sum, added in
  // entry order.
  std::vector<std::uint64_t> cuts_;
  std::size_t cut_count_ = 0;
  double total_ = 0.0;
  const tgen::WeightParameter* weight_ = nullptr;
  // kWeight: per-entry integer payloads for draw_int.
  std::vector<std::int64_t> int_values_;
  std::vector<std::uint8_t> entry_is_int_;
  // kRange: its range; kSubrange: one range per entry.
  util::UniformIntRange range_{0, 0};
  std::vector<util::UniformIntRange> ranges_;
};

inline std::size_t CompiledParam::pick(util::Xoshiro256& rng) const noexcept {
  if (total_ <= 0.0) return cuts_.size();
  // The 53 bits behind uniform(); counting is branch-free and has no
  // chain through the entries, unlike the walk it replaces.
  const std::uint64_t k = rng() >> 11;
  std::size_t index = 0;
  for (std::size_t i = 0; i < cut_count_; ++i) {
    index += static_cast<std::size_t>(k >= cuts_[i]);
  }
  return index;
}

inline std::size_t CompiledParam::draw_index(util::Xoshiro256& rng) const {
  note_draw(name_);
  if (kind_ != Kind::kWeight) [[unlikely]] throw_wrong_kind("weight");
  const std::size_t index = pick(rng);
  if (index >= cuts_.size()) [[unlikely]] throw_zero_total();
  return index;
}

inline std::int64_t CompiledParam::draw_int(util::Xoshiro256& rng) const {
  const std::size_t index = draw_index(rng);
  if (entry_is_int_[index] == 0) [[unlikely]] throw_non_integer(index);
  return int_values_[index];
}

// always_inline: a weighted pick plus a rejection loop is past GCC's
// -O2 inlining limits, which would leave draw_range out of line in the
// unit kernels.
[[gnu::always_inline]] inline std::int64_t CompiledParam::draw_range(
    util::Xoshiro256& rng) const {
  note_draw(name_);
  const util::UniformIntRange* range = &range_;
  if (kind_ != Kind::kRange) {
    if (kind_ != Kind::kSubrange) [[unlikely]] {
      throw_wrong_kind("range or subrange");
    }
    const std::size_t index = pick(rng);
    if (index >= cuts_.size()) [[unlikely]] throw_zero_total();
    range = &ranges_[index];
  }
  return range->draw(rng);
}

/// All of a DUV's parameters resolved against one override template,
/// in the defaults' declaration order. Built once per batch job.
class CompiledTemplate {
 public:
  /// `overrides` may be null (defaults only); both templates must
  /// outlive the compiled form.
  CompiledTemplate(const tgen::TestTemplate* overrides,
                   const tgen::TestTemplate& defaults);

  /// Number of compiled parameters (== defaults().size()).
  [[nodiscard]] std::size_t size() const noexcept { return params_.size(); }

  /// Parameter by defaults-order handle.
  [[nodiscard]] const CompiledParam& param(std::size_t handle) const {
    return params_[handle];
  }

  /// Parameter by name, or nullptr when the defaults do not declare it.
  /// Pointers stay valid for the CompiledTemplate's lifetime.
  [[nodiscard]] const CompiledParam* find(std::string_view name) const noexcept;

  /// Recompiles the tables as if the override template's weight and
  /// subrange entries had weights[i] (in template order, see
  /// tgen::TestTemplate::set_weights): each weight of a parameter the
  /// overrides resolved is clamped and its total summed in entry order,
  /// exactly as the constructor does; entries the tables do not use
  /// (a parameter the defaults do not declare) are skipped. Throws
  /// util::ValidationError, changing nothing, when weights.size() is
  /// not the overrides' weight_count().
  void set_weights(std::span<const double> weights);

 private:
  /// A resolved override parameter whose entry weights start at
  /// `first` in a set_weights() vector.
  struct WeightSlot {
    std::size_t param = 0;
    std::size_t first = 0;
  };

  std::vector<CompiledParam> params_;
  std::vector<WeightSlot> slots_;
  std::size_t weight_count_ = 0;  ///< overrides' weight_count()
};

/// Sentinel code for a weight entry whose value is an integer where a
/// symbol is expected; entry_code() throws Value::as_symbol()'s
/// std::bad_variant_access when such an entry is drawn.
inline constexpr std::int32_t kNonSymbolEntry = -1;

/// Per-entry codes for a weight parameter: index into `symbols` of the
/// entry's symbol, `unmatched` for symbols not listed, kNonSymbolEntry
/// for integer values. Precomputed once so kernels compare small ints
/// instead of strings per draw.
[[nodiscard]] std::vector<std::int32_t> entry_codes(
    const CompiledParam& param, std::span<const std::string_view> symbols,
    std::int32_t unmatched);

/// Resolves a drawn entry's precomputed code; throws as as_symbol()
/// does for integer entries.
[[nodiscard]] inline std::int32_t entry_code(
    const CompiledParam& param, std::span<const std::int32_t> codes,
    std::size_t index) {
  const std::int32_t code = codes[index];
  if (code == kNonSymbolEntry) {
    (void)param.weight()->entries[index].value.as_symbol();  // throws
  }
  return code;
}

}  // namespace ascdg::stimgen
