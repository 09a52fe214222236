// The biased-random stimuli generator's parameter-sampling facade
// (paper §III): draws by parameter name over a CompiledTemplate. A
// test-template overrides the defaults for a subset of parameters; every
// random decision the generator makes consults the template first and
// falls back to the DUV's default template.
//
// The same parameter may be consulted any number of times per
// test-instance ("the mnemonic parameter is used for every instruction
// generation, while CacheDelay is used only when the cache is
// accessed"), so draws are cheap and stateless apart from the RNG. The
// sampler is only a name lookup: every draw runs CompiledParam's code,
// the same code the bundled units' kernels call directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "stimgen/compiled.hpp"
#include "stimgen/profile.hpp"
#include "tgen/test_template.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::stimgen {

class ParameterSampler {
 public:
  /// Both `table` and `rng` must outlive the sampler.
  ParameterSampler(const CompiledTemplate& table, util::Xoshiro256& rng) noexcept
      : table_(&table), rng_(&rng) {}
  ParameterSampler(const CompiledTemplate&& table, util::Xoshiro256& rng) = delete;

  /// Draws a value from the weight parameter `name`.
  /// Throws util::NotFoundError if the defaults do not declare it, and
  /// util::ValidationError if it resolves to a different kind.
  [[nodiscard]] tgen::Value draw(std::string_view name) {
    return param(name).draw_value(*rng_);
  }

  /// Draws a value from the weight parameter `name` and returns it as an
  /// integer; throws util::ValidationError if the drawn value is a symbol.
  [[nodiscard]] std::int64_t draw_int_value(std::string_view name) {
    return param(name).draw_int(*rng_);
  }

  /// Draws an integer from the range or subrange parameter `name`.
  /// For a subrange parameter the subrange is first selected by weight,
  /// then the value is drawn uniformly within it.
  [[nodiscard]] std::int64_t draw_range(std::string_view name) {
    return param(name).draw_range(*rng_);
  }

  /// True when the defaults declare `name`.
  [[nodiscard]] bool has(std::string_view name) const noexcept {
    return table_->find(name) != nullptr;
  }

  /// Underlying RNG, for generator-local decisions that are not
  /// template parameters.
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return *rng_; }

 private:
  /// The compiled parameter `name`. An undeclared name still counts as
  /// one draw on the active profiler before it throws NotFoundError.
  [[nodiscard]] const CompiledParam& param(std::string_view name) const {
    const CompiledParam* p = table_->find(name);
    if (p == nullptr) {
      note_draw(name);
      throw util::NotFoundError("no parameter named '" + std::string(name) + "'");
    }
    return *p;
  }

  const CompiledTemplate* table_;
  util::Xoshiro256* rng_;
};

}  // namespace ascdg::stimgen
