#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace ascdg::util {

double Xoshiro256::normal() noexcept {
  // Box–Muller; discard the second variate for simplicity.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace ascdg::util
