#include "stimgen/compiled.hpp"

#include <algorithm>
#include <string>
#include <variant>

#include "util/error.hpp"

namespace ascdg::stimgen {

using util::ValidationError;

void CompiledParam::throw_wrong_kind(const char* expected) const {
  throw ValidationError("parameter '" + std::string(name_) + "' is not a " +
                        expected + " parameter");
}

void CompiledParam::throw_zero_total() const {
  throw ValidationError(
      std::string(kind_ == Kind::kWeight ? "weight" : "subrange") +
      " parameter '" + std::string(name_) + "' has zero total weight");
}

void CompiledParam::throw_non_integer(std::size_t index) const {
  throw ValidationError("parameter '" + std::string(name_) +
                        "' produced non-integer value '" +
                        weight_->entries[index].value.to_string() + "'");
}

namespace {

/// One past the largest k = rng() >> 11: a cut no draw reaches.
constexpr std::uint64_t kNoDraw = std::uint64_t{1} << 53;

/// The least k in [lo, kNoDraw) for which the walk over the clamped
/// weights weight(0..last) gets past entry `last`, or kNoDraw when none
/// does; every k below `lo` must fail. Gallops from `estimate` to
/// bracket the cut, then bisects: the walk's rounding keeps the cut
/// within a few units of the estimate, so a cut costs a handful of
/// walks rather than 53.
template <class Weight>
std::uint64_t find_cut(const Weight& weight, double total, std::size_t last,
                       std::uint64_t lo, std::uint64_t estimate) {
  // The same floating-point operations in the same order as the walk
  // the pick stands for (compiled.hpp).
  const auto passes = [&](std::uint64_t k) {
    double p = static_cast<double>(k) * 0x1.0p-53 * total;
    for (std::size_t i = 0; i <= last; ++i) {
      const double w = weight(i);
      if (p < w) return false;
      p -= w;
    }
    return true;
  };
  // Invariant: the cut is in [lo, hi], every k < lo fails, and hi
  // passes (kNoDraw by convention).
  std::uint64_t hi = kNoDraw;
  const std::uint64_t start = std::clamp(estimate, lo, hi);
  if (start < hi && passes(start)) {
    hi = start;
    for (std::uint64_t step = 1; lo < hi; step <<= 1) {
      const std::uint64_t probe = hi - std::min(step, hi - lo);
      if (!passes(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  } else if (start < hi) {
    lo = start + 1;
    for (std::uint64_t step = 1; lo < hi; step <<= 1) {
      const std::uint64_t probe = std::min(lo - 1 + step, hi - 1);
      if (passes(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace

template <class WeightAt>
void CompiledParam::set_table(const WeightAt& weight_at) {
  const auto weight = [&](std::size_t i) {
    const double w = weight_at(i);
    return w > 0.0 ? w : 0.0;
  };
  // One cut per entry before the last positive one, L: cut_count_ = L.
  total_ = 0.0;
  cut_count_ = 0;
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    total_ += weight(i);
    if (weight(i) > 0.0) cut_count_ = i;
  }
  if (total_ <= 0.0) return;
  // The cuts are non-decreasing, so each search starts at the previous
  // cut.
  double cumulative = 0.0;
  std::uint64_t cut = 0;
  for (std::size_t i = 0; i < cut_count_; ++i) {
    cumulative += weight(i);
    // A NaN share (inf / inf) starts the search at the previous cut.
    const double share = std::clamp(cumulative / total_, 0.0, 1.0);
    const double estimate = share == share ? share * 0x1.0p53 : 0.0;
    cut = find_cut(weight, total_, i, cut,
                   static_cast<std::uint64_t>(estimate));
    cuts_[i] = cut;
  }
}

CompiledTemplate::CompiledTemplate(const tgen::TestTemplate* overrides,
                                   const tgen::TestTemplate& defaults) {
  // Where each override parameter's entries start in a set_weights()
  // vector.
  std::vector<std::size_t> first_weight;
  if (overrides != nullptr) {
    first_weight.reserve(overrides->size());
    for (const tgen::Parameter& p : overrides->parameters()) {
      first_weight.push_back(weight_count_);
      weight_count_ += tgen::weight_count(p);
    }
  }
  params_.reserve(defaults.size());
  for (const tgen::Parameter& fallback : defaults.parameters()) {
    const std::string& name = tgen::parameter_name(fallback);
    // The override template wins, whatever its kind: a template may
    // redeclare a parameter with a different kind, and the mismatch
    // then surfaces as a ValidationError at draw time.
    const tgen::Parameter* resolved =
        overrides != nullptr ? overrides->find(name) : nullptr;
    if (resolved != nullptr && tgen::weight_count(*resolved) != 0) {
      slots_.push_back(
          {params_.size(),
           first_weight[static_cast<std::size_t>(
               resolved - overrides->parameters().data())]});
    }
    if (resolved == nullptr) resolved = &fallback;

    CompiledParam cp;
    cp.name_ = tgen::parameter_name(*resolved);
    if (const auto* wp = std::get_if<tgen::WeightParameter>(resolved)) {
      cp.kind_ = CompiledParam::Kind::kWeight;
      cp.weight_ = wp;
      cp.cuts_.resize(wp->entries.size());
      cp.set_table([wp](std::size_t i) { return wp->entries[i].weight; });
      cp.int_values_.reserve(wp->entries.size());
      cp.entry_is_int_.reserve(wp->entries.size());
      for (const auto& entry : wp->entries) {
        cp.entry_is_int_.push_back(entry.value.is_int() ? 1 : 0);
        cp.int_values_.push_back(entry.value.is_int() ? entry.value.as_int()
                                                      : 0);
      }
    } else if (const auto* rp = std::get_if<tgen::RangeParameter>(resolved)) {
      cp.kind_ = CompiledParam::Kind::kRange;
      cp.range_ = util::UniformIntRange(rp->lo, rp->hi);
    } else {
      const auto& sp = std::get<tgen::SubrangeParameter>(*resolved);
      cp.kind_ = CompiledParam::Kind::kSubrange;
      cp.cuts_.resize(sp.entries.size());
      cp.set_table([&sp](std::size_t i) { return sp.entries[i].weight; });
      cp.ranges_.reserve(sp.entries.size());
      for (const auto& entry : sp.entries) {
        cp.ranges_.emplace_back(entry.lo, entry.hi);
      }
    }
    params_.push_back(std::move(cp));
  }
}

void CompiledTemplate::set_weights(std::span<const double> weights) {
  if (weights.size() != weight_count_) {
    throw ValidationError("set_weights: the template has " +
                          std::to_string(weight_count_) + " weights but " +
                          std::to_string(weights.size()) + " given");
  }
  for (const WeightSlot& slot : slots_) {
    params_[slot.param].set_table(
        [&](std::size_t i) { return weights[slot.first + i]; });
  }
}

const CompiledParam* CompiledTemplate::find(
    std::string_view name) const noexcept {
  for (const CompiledParam& cp : params_) {
    if (cp.name() == name) return &cp;
  }
  return nullptr;
}

std::vector<std::int32_t> entry_codes(const CompiledParam& param,
                                      std::span<const std::string_view> symbols,
                                      std::int32_t unmatched) {
  std::vector<std::int32_t> codes;
  if (param.kind() != CompiledParam::Kind::kWeight) return codes;
  codes.reserve(param.entry_count());
  for (const auto& entry : param.weight()->entries) {
    if (entry.value.is_int()) {
      codes.push_back(kNonSymbolEntry);
      continue;
    }
    std::int32_t code = unmatched;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      if (entry.value.as_symbol() == symbols[s]) {
        code = static_cast<std::int32_t>(s);
        break;
      }
    }
    codes.push_back(code);
  }
  return codes;
}

}  // namespace ascdg::stimgen
