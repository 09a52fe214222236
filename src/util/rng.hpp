// Deterministic random number generation for AS-CDG.
//
// Everything random in the system flows through these generators so that
// any experiment is exactly reproducible from a single root seed,
// independent of thread count or evaluation order. We use xoshiro256**
// (Blackman & Vigna) as the workhorse generator and splitmix64 both to
// seed it and to derive independent child streams ("seed streams") for
// parallel jobs.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ascdg::util {

/// splitmix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and for deriving statistically independent substreams.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  constexpr explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) using the top 53 bits.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  /// Threshold-modulo rejection: outputs below (2^64 - bound) % bound
  /// are redrawn, so `r % bound` carries no modulo bias.
  constexpr std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
    const std::uint64_t span = hi - lo;
    if (span == std::numeric_limits<std::uint64_t>::max()) return (*this)();
    const std::uint64_t bound = span + 1;
    // Rejection sampling on the bottom of the range.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return lo + r % bound;
    }
  }

  /// Uniform integer in [lo, hi] (inclusive) for signed 64-bit bounds.
  constexpr std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi) noexcept {
    const auto ulo = static_cast<std::uint64_t>(lo);
    const auto uhi = static_cast<std::uint64_t>(hi);
    return static_cast<std::int64_t>(ulo + uniform_u64(0, uhi - ulo));
  }

  /// Bernoulli draw with success probability p.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box–Muller (polar form not needed; precision fine).
  double normal() noexcept;

  /// The raw 256-bit state, for checkpointing a generator mid-stream
  /// (the optimizer's resume path). restore(state()) round-trips.
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }
  constexpr void restore(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// uniform_i64(lo, hi) with its divisions done once: the same draws
/// from the same generator outputs, and the same number of outputs
/// consumed, for a range fixed ahead of many draws.
///
/// Precomputes uniform_u64's rejection threshold (2^64 - bound) % bound
/// and the reciprocal m = floor((2^64 - 1) / bound), and reduces an
/// accepted output r by q = mulhi(r, m), r - q * bound, minus one more
/// bound when that is still >= bound. Exact for every bound in
/// [1, 2^64 - 1]: writing 2^64 - 1 = m * bound + s with s < bound,
/// r * m / 2^64 = r / bound - r * (1 + s) / (bound * 2^64), and the
/// subtracted term lies in [0, 1) because r < 2^64 and 1 + s <= bound,
/// so q is floor(r / bound) or one less. The full 2^64 range offsets
/// the raw output, as uniform_i64 does.
class UniformIntRange {
 public:
  /// Requires lo <= hi.
  constexpr UniformIntRange(std::int64_t lo, std::int64_t hi) noexcept
      : lo_(static_cast<std::uint64_t>(lo)),
        bound_(static_cast<std::uint64_t>(hi) - lo_ + 1) {
    if (bound_ == 0) return;  // the full 2^64 range: no reduction
    threshold_ = (0 - bound_) % bound_;
    reciprocal_ = std::numeric_limits<std::uint64_t>::max() / bound_;
  }

  [[nodiscard]] constexpr std::int64_t draw(Xoshiro256& rng) const noexcept {
    if (bound_ == 0) return static_cast<std::int64_t>(lo_ + rng());
    for (;;) {
      const std::uint64_t r = rng();
      if (r >= threshold_) {
        std::uint64_t rem = r - mulhi(r, reciprocal_) * bound_;
        if (rem >= bound_) rem -= bound_;
        return static_cast<std::int64_t>(lo_ + rem);
      }
    }
  }

 private:
  /// High 64 bits of the 128-bit product a * b.
  static constexpr std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) noexcept {
    __extension__ typedef unsigned __int128 wide;
    return static_cast<std::uint64_t>((static_cast<wide>(a) * b) >> 64);
  }

  std::uint64_t lo_;
  std::uint64_t bound_;  ///< hi - lo + 1; 0 for the full 2^64 range
  std::uint64_t threshold_ = 0;
  std::uint64_t reciprocal_ = 0;
};

/// Derives reproducible, statistically independent child seeds from a
/// root seed. Child i is a pure function of (root, i), so parallel
/// consumers can be seeded without any ordering dependence.
class SeedStream {
 public:
  /// `start` positions the sequential counter — resuming a checkpointed
  /// consumer continues its seed sequence exactly.
  constexpr explicit SeedStream(std::uint64_t root,
                                std::uint64_t start = 0) noexcept
      : root_(root), counter_(start) {}

  /// Child seed for index i (pure; no internal state mutation).
  [[nodiscard]] constexpr std::uint64_t at(std::uint64_t i) const noexcept {
    // Mix root and index through two rounds of splitmix64.
    std::uint64_t s = root_ ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    (void)splitmix64_next(s);
    return splitmix64_next(s);
  }

  /// Next sequential child seed (stateful convenience).
  constexpr std::uint64_t next() noexcept { return at(counter_++); }

  /// Seeds handed out so far via next() — checkpoint alongside root().
  [[nodiscard]] constexpr std::uint64_t counter() const noexcept {
    return counter_;
  }

  [[nodiscard]] constexpr std::uint64_t root() const noexcept { return root_; }

 private:
  std::uint64_t root_;
  std::uint64_t counter_ = 0;
};

/// Fisher–Yates shuffle of a vector-like span.
template <typename T>
void shuffle(std::span<T> items, Xoshiro256& rng) {
  if (items.size() < 2) return;
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_u64(0, i));
    using std::swap;
    swap(items[i], items[j]);
  }
}

}  // namespace ascdg::util
