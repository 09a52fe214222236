#include "stimgen/compiled.hpp"

#include <string>
#include <variant>

#include "util/error.hpp"

namespace ascdg::stimgen {

using util::ValidationError;

std::size_t CompiledParam::pick_slack() const noexcept {
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights_.size(); i-- > 0;) {
    if (weights_[i] > 0.0) return i;
  }
  return weights_.size();
}

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

/// Clamps entry weights into `weights` (w > 0 ? w : 0) and returns
/// their sum, added in entry order: the one place compile and
/// set_weights turn template weights into draw tables.
template <class WeightAt>
double clamp_weights(const WeightAt& weight_at, std::span<double> weights) {
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weight_at(i);
    weights[i] = w > 0.0 ? w : 0.0;
    total += weights[i];
  }
  return total;
}

}  // namespace

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
      cp.weights_.resize(wp->entries.size());
      cp.total_ = clamp_weights(
          [wp](std::size_t i) { return wp->entries[i].weight; }, cp.weights_);
      cp.int_values_.reserve(wp->entries.size());
      cp.entry_is_int_.reserve(wp->entries.size());
      for (const auto& entry : wp->entries) {
        cp.entry_is_int_.push_back(entry.value.is_int() ? 1 : 0);
        cp.int_values_.push_back(entry.value.is_int() ? entry.value.as_int()
                                                      : 0);
      }
    } else if (const auto* rp = std::get_if<tgen::RangeParameter>(resolved)) {
      cp.kind_ = CompiledParam::Kind::kRange;
      cp.lo_ = rp->lo;
      cp.hi_ = rp->hi;
    } else {
      const auto& sp = std::get<tgen::SubrangeParameter>(*resolved);
      cp.kind_ = CompiledParam::Kind::kSubrange;
      cp.subrange_ = &sp;
      cp.weights_.resize(sp.entries.size());
      cp.total_ = clamp_weights(
          [&sp](std::size_t i) { return sp.entries[i].weight; }, cp.weights_);
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
    CompiledParam& cp = params_[slot.param];
    cp.total_ = clamp_weights(
        [&](std::size_t i) { return weights[slot.first + i]; }, cp.weights_);
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
