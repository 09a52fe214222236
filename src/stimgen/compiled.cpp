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

CompiledTemplate::CompiledTemplate(const tgen::TestTemplate* overrides,
                                   const tgen::TestTemplate& defaults) {
  params_.reserve(defaults.size());
  for (const tgen::Parameter& fallback : defaults.parameters()) {
    const std::string& name = tgen::parameter_name(fallback);
    // The override template wins, whatever its kind: a template may
    // redeclare a parameter with a different kind, and the mismatch
    // then surfaces as a ValidationError at draw time.
    const tgen::Parameter* resolved =
        overrides != nullptr ? overrides->find(name) : nullptr;
    if (resolved == nullptr) resolved = &fallback;

    CompiledParam cp;
    cp.name_ = tgen::parameter_name(*resolved);
    if (const auto* wp = std::get_if<tgen::WeightParameter>(resolved)) {
      cp.kind_ = CompiledParam::Kind::kWeight;
      cp.weight_ = wp;
      cp.weights_.reserve(wp->entries.size());
      cp.int_values_.reserve(wp->entries.size());
      cp.entry_is_int_.reserve(wp->entries.size());
      for (const auto& entry : wp->entries) {
        cp.weights_.push_back(entry.weight > 0.0 ? entry.weight : 0.0);
        cp.total_ += cp.weights_.back();
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
      cp.weights_.reserve(sp.entries.size());
      for (const auto& entry : sp.entries) {
        cp.weights_.push_back(entry.weight > 0.0 ? entry.weight : 0.0);
        cp.total_ += cp.weights_.back();
      }
    }
    params_.push_back(std::move(cp));
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
