// The Duv glue shared by the bundled units.
//
// Each bundled unit compiles a template into its own `Tables` (resolved
// stimgen::CompiledTemplate draw tables plus precomputed entry codes)
// and simulates one seed at a time with a scalar kernel over them.
// KernelDuv implements the three Duv entry points around that kernel
// once:
//   * compile()        builds the unit's Tables;
//   * simulate()       builds them and runs the kernel for one seed;
//   * simulate_batch() runs the kernel seed by seed over the given
//                      tables, compiling its own when handed nullptr.
// A unit supplies `Tables` (a KernelTables constructible from
// (overrides*, defaults)) and run(). Tables types live in the unit's
// .cpp, so each unit header declares `extern template class
// KernelDuv<Tables>;` and its .cpp instantiates it once the type is
// complete.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "duv/duv.hpp"
#include "stimgen/compiled.hpp"
#include "util/error.hpp"

namespace ascdg::duv {

/// The base of a bundled unit's Tables: the resolved draw tables, which
/// reweight() updates in place. A unit's precomputed entry codes and
/// parameter pointers stay valid, since a reweight changes only the
/// weights, never an entry's value.
struct KernelTables : Duv::Compiled {
  stimgen::CompiledTemplate table;

  KernelTables(const tgen::TestTemplate* overrides,
               const tgen::TestTemplate& defaults)
      : table(overrides, defaults) {}

  bool reweight(std::span<const double> weights) override {
    table.set_weights(weights);
    return true;
  }
};

template <class Tables>
class KernelDuv : public Duv {
 public:
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const final;
  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const final;
  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const final;

 protected:
  KernelDuv() = default;

  /// The unit's kernel: generates the test-instance of `seed` from the
  /// compiled tables and simulates it into `out` (overwritten).
  virtual void run(const Tables& tables, std::uint64_t seed,
                   coverage::CoverageVector& out) const = 0;
};

template <class Tables>
coverage::CoverageVector KernelDuv<Tables>::simulate(
    const tgen::TestTemplate& tmpl, std::uint64_t seed) const {
  coverage::CoverageVector vec;
  run(Tables(&tmpl, defaults()), seed, vec);
  return vec;
}

template <class Tables>
std::unique_ptr<Duv::Compiled> KernelDuv<Tables>::compile(
    const tgen::TestTemplate& tmpl) const {
  return std::make_unique<Tables>(&tmpl, defaults());
}

template <class Tables>
void KernelDuv<Tables>::simulate_batch(
    const tgen::TestTemplate& tmpl, const Compiled* compiled,
    std::span<const std::uint64_t> seeds,
    std::span<coverage::CoverageVector> out) const {
  ASCDG_ASSERT(seeds.size() == out.size(), "batch seed/out size mismatch");
  const auto owned = compiled == nullptr ? compile(tmpl) : nullptr;
  const auto* tables =
      dynamic_cast<const Tables*>(owned != nullptr ? owned.get() : compiled);
  ASCDG_ASSERT(tables != nullptr, "compiled tables do not belong to this unit");
  for (std::size_t i = 0; i < seeds.size(); ++i) run(*tables, seeds[i], out[i]);
}

}  // namespace ascdg::duv
