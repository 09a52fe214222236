// Tests for the one draw implementation (stimgen::CompiledParam) and
// the by-name ParameterSampler view over it: override/default fallback,
// draw semantics per parameter kind, and distribution correctness
// (chi-square goodness of fit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <vector>

#include "stimgen/compiled.hpp"
#include "stimgen/profile.hpp"
#include "stimgen/sampler.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ascdg::stimgen {
namespace {

using tgen::parse_template;
using tgen::TestTemplate;
using tgen::Value;
using util::NotFoundError;
using util::ValidationError;

TestTemplate defaults_template() {
  return parse_template(R"(
    template defaults {
      weight Cmd { read: 50, write: 50 }
      range Delay [0, 9]
      weight Thr { 0: 1, 1: 1 }
      subrange Size { [1, 4]: 3, [5, 8]: 1 }
    }
  )");
}

TEST(Sampler, FallsBackToDefaults) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(1);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  EXPECT_TRUE(sampler.has("Cmd"));
  const Value v = sampler.draw("Cmd");
  EXPECT_TRUE(v.as_symbol() == "read" || v.as_symbol() == "write");
}

TEST(Sampler, OverrideShadowsDefault) {
  const auto defaults = defaults_template();
  const auto overrides =
      parse_template("template o { weight Cmd { write: 1 } }");
  util::Xoshiro256 rng(2);
  const CompiledTemplate table(&overrides, defaults);
  ParameterSampler sampler(table, rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.draw("Cmd").as_symbol(), "write");
  }
}

TEST(Sampler, OverrideDoesNotHideOtherDefaults) {
  const auto defaults = defaults_template();
  const auto overrides =
      parse_template("template o { weight Cmd { write: 1 } }");
  util::Xoshiro256 rng(3);
  const CompiledTemplate table(&overrides, defaults);
  ParameterSampler sampler(table, rng);
  const std::int64_t d = sampler.draw_range("Delay");
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 9);
}

TEST(Sampler, UnknownParameterThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(4);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  EXPECT_THROW((void)sampler.draw("Nope"), NotFoundError);
  EXPECT_THROW((void)sampler.draw_range("Nope"), NotFoundError);
  EXPECT_FALSE(sampler.has("Nope"));
}

TEST(Sampler, KindMismatchThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(5);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  EXPECT_THROW((void)sampler.draw("Delay"), ValidationError);      // range as weight
  EXPECT_THROW((void)sampler.draw_range("Cmd"), ValidationError);  // weight as range
}

TEST(Sampler, DrawIntValueOnSymbolThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(6);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  EXPECT_THROW((void)sampler.draw_int_value("Cmd"), ValidationError);
  const std::int64_t t = sampler.draw_int_value("Thr");
  EXPECT_TRUE(t == 0 || t == 1);
}

TEST(Sampler, RangeDrawUniform) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(7);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  std::vector<std::size_t> counts(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(sampler.draw_range("Delay"))];
  }
  const std::vector<double> expected(10, 0.1);
  EXPECT_LT(util::chi_square_statistic(counts, expected),
            util::chi_square_critical(9, 0.001));
}

TEST(Sampler, SubrangeDrawHonorsWeightsAndUniformWithin) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(8);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  // Size: [1,4] weight 3, [5,8] weight 1 -> per-value probability is
  // (3/4)/4 for 1..4 and (1/4)/4 for 5..8.
  std::vector<std::size_t> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(sampler.draw_range("Size") - 1)];
  }
  std::vector<double> expected;
  for (int v = 1; v <= 4; ++v) expected.push_back(3.0 / 16.0);
  for (int v = 5; v <= 8; ++v) expected.push_back(1.0 / 16.0);
  EXPECT_LT(util::chi_square_statistic(counts, expected),
            util::chi_square_critical(7, 0.001));
}

TEST(Sampler, WeightedDrawMatchesDistribution) {
  const auto tmpl = parse_template(
      "template t { weight W { a: 10, b: 30, c: 60, d: 0 } }");
  util::Xoshiro256 rng(9);
  const CompiledTemplate table(nullptr, tmpl);
  ParameterSampler sampler(table, rng);
  std::map<std::string, std::size_t> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.draw("W").as_symbol()];
  EXPECT_EQ(counts.count("d"), 0u);  // zero weight never drawn
  const std::vector<std::size_t> observed{counts["a"], counts["b"], counts["c"]};
  const std::vector<double> expected{10, 30, 60};
  EXPECT_LT(util::chi_square_statistic(observed, expected),
            util::chi_square_critical(2, 0.001));
}

TEST(Sampler, DeterministicGivenSeed) {
  const auto defaults = defaults_template();
  std::vector<std::int64_t> first, second;
  for (auto* out : {&first, &second}) {
    util::Xoshiro256 rng(99);
    const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
    for (int i = 0; i < 50; ++i) out->push_back(sampler.draw_range("Delay"));
  }
  EXPECT_EQ(first, second);
}

TEST(Sampler, UndeclaredOverrideIsNotFound) {
  // The defaults declare every parameter a unit can draw; a name only
  // an override template declares is never consulted.
  const auto defaults = defaults_template();
  const auto overrides =
      parse_template("template o { weight Extra { a: 1 } }");
  util::Xoshiro256 rng(13);
  const CompiledTemplate table(&overrides, defaults);
  ParameterSampler sampler(table, rng);
  EXPECT_FALSE(sampler.has("Extra"));
  EXPECT_THROW((void)sampler.draw("Extra"), NotFoundError);
}

// ------------------------------------------------------ compiled draws --

/// A template holding just `param`.
TestTemplate one_param(tgen::Parameter param) {
  TestTemplate t("t");
  t.add(std::move(param));
  return t;
}

TEST(DrawFrom, RangeSingleton) {
  util::Xoshiro256 rng(10);
  const TestTemplate tmpl = one_param(tgen::RangeParameter{"R", 5, 5});
  const CompiledTemplate table(nullptr, tmpl);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.param(0).draw_range(rng), 5);
}

TEST(DrawFrom, NegativeRange) {
  util::Xoshiro256 rng(11);
  const TestTemplate tmpl = one_param(tgen::RangeParameter{"R", -10, -1});
  const CompiledTemplate table(nullptr, tmpl);
  for (int i = 0; i < 1000; ++i) {
    const auto v = table.param(0).draw_range(rng);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -1);
  }
}

TEST(DrawFrom, ZeroTotalWeightThrows) {
  // A zero-total weight or subrange parameter cannot enter a template,
  // so no compiled parameter ever draws from one.
  TestTemplate t("t");
  EXPECT_THROW(t.add(tgen::WeightParameter{"W", {{Value{"a"}, 0.0}}}),
               ValidationError);
  EXPECT_THROW(t.add(tgen::SubrangeParameter{"S", {{0, 1, 0.0}}}),
               ValidationError);
}

TEST(DrawFrom, RedeclaredKindThrowsAtDrawTimeNotCompileTime) {
  // The override wins whatever its kind; the mismatch with the unit's
  // use surfaces when the parameter is drawn.
  const auto defaults = defaults_template();
  const auto overrides = parse_template(
      "template o { range Cmd [0, 3] weight Delay { 1: 1 } }");
  std::optional<CompiledTemplate> table;
  ASSERT_NO_THROW(table.emplace(&overrides, defaults));
  util::Xoshiro256 rng(14);
  EXPECT_THROW((void)table->find("Cmd")->draw_index(rng), ValidationError);
  EXPECT_THROW((void)table->find("Delay")->draw_range(rng), ValidationError);
  ParameterSampler sampler(*table, rng);
  EXPECT_THROW((void)sampler.draw("Cmd"), ValidationError);
  EXPECT_THROW((void)sampler.draw_range("Delay"), ValidationError);
  // Drawn the way the override declares them, both work.
  EXPECT_LE(table->find("Cmd")->draw_range(rng), 3);
  EXPECT_EQ(sampler.draw_int_value("Delay"), 1);
}

// set_weights takes one weight per weight or subrange entry of the
// override template in template order, skips what the tables do not
// use (an undeclared parameter), clamps as compile does, and then draws
// exactly as the tables of the reweighted template.
TEST(DrawFrom, SetWeightsDrawsAsTheReweightedTemplate) {
  const auto defaults = defaults_template();
  const auto overrides = parse_template(R"(
    template o {
      weight Unknown { x: 1 }
      subrange Size { [1, 2]: 1, [3, 8]: 1 }
      range Delay [2, 3]
      weight Cmd { read: 1, write: 2 }
    }
  )");
  ASSERT_EQ(overrides.weight_count(), 5u);
  const std::vector<double> weights{9.0, 0.25, -1.0, 3.0, 0.5};
  TestTemplate reweighted = overrides;
  reweighted.set_weights(std::vector<double>{9.0, 0.25, 0.0, 3.0, 0.5});

  CompiledTemplate table(&overrides, defaults);
  EXPECT_THROW(table.set_weights(std::vector<double>(4, 1.0)), ValidationError);
  table.set_weights(weights);
  const CompiledTemplate want(&reweighted, defaults);
  util::Xoshiro256 got_rng(5);
  util::Xoshiro256 want_rng(5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(table.find("Cmd")->draw_index(got_rng),
              want.find("Cmd")->draw_index(want_rng));
    ASSERT_EQ(table.find("Size")->draw_range(got_rng),
              want.find("Size")->draw_range(want_rng));
    ASSERT_EQ(table.find("Delay")->draw_range(got_rng),
              want.find("Delay")->draw_range(want_rng));
    ASSERT_EQ(table.find("Thr")->draw_index(got_rng),
              want.find("Thr")->draw_index(want_rng));
  }
  // The clamped subrange entry, [3, 8], is never drawn.
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(table.find("Size")->draw_range(got_rng), 2);
  }
}

// ----------------------------------------------------- cut-point pick --

// The sequential walk the cut-point pick replaces, kept here as the
// reference: p = uniform() * total, one compare and subtract per entry,
// and the last positive weight on floating-point slack.
std::size_t reference_walk(const std::vector<double>& clamped, double total,
                           std::uint64_t k) {
  double p = static_cast<double>(k) * 0x1.0p-53 * total;
  for (std::size_t i = 0; i < clamped.size(); ++i) {
    if (p < clamped[i]) return i;
    p -= clamped[i];
  }
  return clamped.size();
}

std::size_t reference_pick(const std::vector<double>& clamped, double total,
                           std::uint64_t k) {
  const std::size_t index = reference_walk(clamped, total, k);
  if (index < clamped.size()) return index;
  for (std::size_t i = clamped.size(); i-- > 0;) {
    if (clamped[i] > 0.0) return i;
  }
  return clamped.size();
}

// Inverse of an odd number modulo 2^64 (Newton's iteration).
constexpr std::uint64_t odd_inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

// A generator whose next output is `r`: xoshiro256**'s output is
// rotl(s[1] * 5, 7) * 9, so s[1] inverts it.
util::Xoshiro256 generator_yielding(std::uint64_t r) {
  const std::uint64_t t = r * odd_inverse(9);
  const std::uint64_t s1 = ((t >> 7) | (t << 57)) * odd_inverse(5);
  util::Xoshiro256 rng;
  rng.restore({0x0123456789abcdefULL, s1, 0xfedcba9876543210ULL, 42});
  return rng;
}

constexpr std::uint64_t kDraws53 = std::uint64_t{1} << 53;

// Checks `param`'s pick against the reference walk over `raw` weights,
// clamped and summed as compile does: at both ends of the k range, at
// every entry's cut (found here by plain bisection over the walk) and
// one either side of it, and at random k with random low bits.
void expect_pick_matches_reference(const CompiledParam& param,
                                   const std::vector<double>& raw,
                                   util::Xoshiro256& noise) {
  std::vector<double> clamped;
  double total = 0.0;
  for (const double w : raw) {
    clamped.push_back(w > 0.0 ? w : 0.0);
    total += clamped.back();
  }
  ASSERT_EQ(param.entry_count(), raw.size());
  if (total <= 0.0) {
    util::Xoshiro256 rng = generator_yielding(7);
    const auto before = rng.state();
    EXPECT_THROW((void)param.draw_index(rng), ValidationError);
    EXPECT_EQ(rng.state(), before);  // nothing consumed
    return;
  }
  std::vector<std::uint64_t> ks{0, 1, kDraws53 - 2, kDraws53 - 1};
  for (std::size_t i = 0; i < clamped.size(); ++i) {
    std::uint64_t lo = 0;
    std::uint64_t hi = kDraws53;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (reference_walk(clamped, total, mid) > i) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (const std::uint64_t k : {lo - 1, lo, lo + 1}) {
      if (k < kDraws53) ks.push_back(k);
    }
  }
  for (int i = 0; i < 64; ++i) ks.push_back(noise() >> 11);
  for (const std::uint64_t k : ks) {
    util::Xoshiro256 rng = generator_yielding((k << 11) | (noise() >> 53));
    util::Xoshiro256 after = rng;
    (void)after();
    ASSERT_EQ(param.draw_index(rng), reference_pick(clamped, total, k))
        << "k=" << k;
    ASSERT_EQ(rng.state(), after.state());  // one output per pick
  }
}

TEST(CutPointPick, GeneratorYieldingReturnsTheRequestedOutput) {
  const std::uint64_t outputs[] = {0, 1, std::uint64_t{1} << 63,
                                   ~std::uint64_t{0}, 0x0123456789abcdefULL};
  for (const std::uint64_t r : outputs) {
    util::Xoshiro256 rng = generator_yielding(r);
    EXPECT_EQ(rng(), r);
  }
}

// Edge weight vectors: single entry, all but one zero, subnormals,
// 1e300-scale weights, totals that overflow to inf, weights absorbed by
// a much larger total, and negatives (clamped to zero).
std::vector<std::vector<double>> edge_weight_vectors() {
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  return {
      {1.0},
      {1e-300},
      {0.0, 0.0, 3.0, 0.0},
      {5.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.25},
      {kSub},
      {kSub, kSub, kSub},
      {kSub, 1.0, kSub, 2.2e-308},
      {1e300, 1e300, 1.0},
      {1e308, 1e308, 1.0},  // total overflows to inf
      {1.7e308, 0.0, 1.7e308},
      {1.0, 1e-300, 1e-300},
      {1e16, 1.0, 1.0, 1.0},
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
      {-1.0, 2.0, -0.0, 3.0},
      {1.0, 1.0, 1.0},
  };
}

std::vector<double> random_weights(util::Xoshiro256& rng) {
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_u64(0, 11));
  std::vector<double> weights(n);
  for (double& w : weights) {
    switch (rng.uniform_u64(0, 4)) {
      case 0: w = 0.0; break;
      case 1: w = rng.uniform(); break;
      case 2: w = std::ldexp(rng.uniform(), static_cast<int>(
                  rng.uniform_i64(-60, 60))); break;
      case 3: w = static_cast<double>(rng.uniform_i64(-2, 100)); break;
      default: w = rng.uniform(-1.0, 1.0); break;
    }
  }
  return weights;
}

// A template of one weight parameter with `n` entries of weight 1.
TestTemplate uniform_weight_template(std::size_t n) {
  tgen::WeightParameter param{"W", {}};
  param.entries.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    param.entries[i].value = Value{static_cast<std::int64_t>(i)};
    param.entries[i].weight = 1.0;
  }
  return one_param(std::move(param));
}

TEST(CutPointPick, CompiledEdgeWeightsMatchTheSequentialWalk) {
  util::Xoshiro256 noise(0xC07);
  for (const auto& weights : edge_weight_vectors()) {
    SCOPED_TRACE(::testing::PrintToString(weights));
    bool valid = false;
    for (const double w : weights) valid = valid || w > 0.0;
    if (!valid || *std::min_element(weights.begin(), weights.end()) < 0.0) {
      continue;  // not a template: set_weights covers these below
    }
    TestTemplate tmpl = uniform_weight_template(weights.size());
    tmpl.set_weights(weights);
    const CompiledTemplate table(nullptr, tmpl);
    expect_pick_matches_reference(table.param(0), weights, noise);
  }
}

TEST(CutPointPick, SetWeightsAndReweightBackMatchTheSequentialWalk) {
  util::Xoshiro256 noise(0xC08);
  std::vector<std::vector<double>> vectors = edge_weight_vectors();
  for (int i = 0; i < 300; ++i) vectors.push_back(random_weights(noise));
  for (const auto& weights : vectors) {
    SCOPED_TRACE(::testing::PrintToString(weights));
    const TestTemplate tmpl = uniform_weight_template(weights.size());
    CompiledTemplate table(&tmpl, tmpl);
    table.set_weights(weights);
    expect_pick_matches_reference(table.param(0), weights, noise);
    // Back to the template's own weights, and the tables pick as
    // compiled.
    const std::vector<double> ones(weights.size(), 1.0);
    table.set_weights(ones);
    expect_pick_matches_reference(table.param(0), ones, noise);
  }
}

TEST(CutPointPick, ZeroTotalAfterSetWeightsStillThrows) {
  util::Xoshiro256 noise(0xC09);
  const TestTemplate tmpl = uniform_weight_template(3);
  CompiledTemplate table(&tmpl, tmpl);
  for (const auto& weights :
       {std::vector<double>{0.0, 0.0, 0.0}, std::vector<double>{-1.0, -0.0, 0.0},
        std::vector<double>{-1e300, -2.0, -3.0}}) {
    table.set_weights(weights);
    expect_pick_matches_reference(table.param(0), weights, noise);
  }
  // A subrange parameter's zero total throws from draw_range as well.
  const auto subranges = parse_template(
      "template s { subrange S { [0, 9]: 1, [10, 19]: 1 } }");
  CompiledTemplate sub(&subranges, subranges);
  sub.set_weights(std::vector<double>{0.0, -2.0});
  util::Xoshiro256 rng(3);
  const auto before = rng.state();
  EXPECT_THROW((void)sub.param(0).draw_range(rng), ValidationError);
  EXPECT_EQ(rng.state(), before);
}

TEST(DrawFrom, DefaultsOrderHandlesMatchNames) {
  const auto defaults = defaults_template();
  const CompiledTemplate table(nullptr, defaults);
  ASSERT_EQ(table.size(), defaults.size());
  for (std::size_t h = 0; h < table.size(); ++h) {
    EXPECT_EQ(table.find(table.param(h).name()), &table.param(h));
  }
  EXPECT_EQ(table.find("Nope"), nullptr);
}

TEST(DrawFrom, ZeroWeightEntriesAreNeverDrawn) {
  // Zero weights at the front, middle and back of the entry list.
  const auto tmpl = parse_template(
      "template t { weight W { a: 0, b: 1, c: 0, d: 2, e: 0 } }");
  const CompiledTemplate table(nullptr, tmpl);
  util::Xoshiro256 rng(15);
  std::vector<std::size_t> counts(5, 0);
  for (int i = 0; i < 20000; ++i) ++counts[table.param(0).draw_index(rng)];
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[4], 0u);
  EXPECT_GT(counts[1], 0u);
  EXPECT_GT(counts[3], counts[1]);
}

TEST(DrawFrom, ZeroWeightSubrangesOfASkeletonInstanceAreNeverDrawn) {
  // A negative mark clamps to zero at instantiation, like an explicit 0.
  const auto skel = tgen::parse_skeleton(R"(skeleton s {
    subrange S { [0, 9]: <W>, [10, 19]: <W>, [20, 29]: <W>, [30, 39]: <W> }
  })");
  const std::vector<double> point{0.0, 0.7, -0.4, 0.2};
  const TestTemplate instance = skel.instantiate("point", point);
  const CompiledTemplate table(nullptr, instance);
  util::Xoshiro256 rng(16);
  std::vector<std::size_t> per_subrange(4, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = table.param(0).draw_range(rng);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 39);
    ++per_subrange[static_cast<std::size_t>(v / 10)];
  }
  EXPECT_EQ(per_subrange[0], 0u);
  EXPECT_EQ(per_subrange[2], 0u);
  EXPECT_GT(per_subrange[1], per_subrange[3]);
  EXPECT_GT(per_subrange[3], 0u);
}

TEST(DrawFrom, RangeDrawOnAWeightParameterThrowsAndStillCounts) {
  const auto defaults = defaults_template();
  const CompiledTemplate table(nullptr, defaults);
  util::Xoshiro256 rng(17);
  ScopedDrawProfiler profiler;
  try {
    (void)table.find("Cmd")->draw_range(rng);
    FAIL() << "draw_range on a weight parameter did not throw";
  } catch (const ValidationError& err) {
    EXPECT_STREQ(err.what(),
                 "parameter 'Cmd' is not a range or subrange parameter");
  }
  EXPECT_EQ(profiler.counts().at("Cmd"), 1u);
}

TEST(DrawFrom, IntDrawOnASymbolEntryNamesTheValue) {
  const auto tmpl = parse_template("template t { weight W { sym: 1 } }");
  const CompiledTemplate table(nullptr, tmpl);
  util::Xoshiro256 rng(18);
  try {
    (void)table.param(0).draw_int(rng);
    FAIL() << "draw_int on a symbol entry did not throw";
  } catch (const ValidationError& err) {
    EXPECT_STREQ(err.what(), "parameter 'W' produced non-integer value 'sym'");
  }
}

// Parameterized sweep: sampled frequencies track template weights for a
// spread of weight shapes (property-style).
struct WeightShape {
  const char* label;
  std::vector<double> weights;
};

// Print the label, not the raw bytes: the struct holds pointers, so the
// default byte dump would put load addresses into the test's name.
void PrintTo(const WeightShape& c, std::ostream* os) { *os << c.label; }

class WeightFidelity : public ::testing::TestWithParam<WeightShape> {};

TEST_P(WeightFidelity, ChiSquareWithinCritical) {
  const auto& shape = GetParam();
  tgen::WeightParameter param{"W", {}};
  param.entries.resize(shape.weights.size());
  for (std::size_t i = 0; i < shape.weights.size(); ++i) {
    param.entries[i].value = Value{static_cast<std::int64_t>(i)};
    param.entries[i].weight = shape.weights[i];
  }
  const TestTemplate tmpl = one_param(std::move(param));
  const CompiledTemplate table(nullptr, tmpl);
  util::Xoshiro256 rng(1234);
  std::vector<std::size_t> counts(shape.weights.size(), 0);
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(table.param(0).draw_int(rng))];
  }
  std::size_t dof = 0;
  for (const double w : shape.weights) {
    if (w > 0) ++dof;
  }
  ASSERT_GE(dof, 2u);
  EXPECT_LT(util::chi_square_statistic(counts, shape.weights),
            util::chi_square_critical(dof - 1, 0.001));
}

INSTANTIATE_TEST_SUITE_P(
    Sampler, WeightFidelity,
    ::testing::Values(WeightShape{"uniform", {1, 1, 1, 1}},
                      WeightShape{"skewed", {100, 10, 1}},
                      WeightShape{"with_zeros", {0, 5, 0, 5}},
                      WeightShape{"tiny_fractions", {0.001, 0.002, 0.003}},
                      WeightShape{"two_values", {7, 3}},
                      WeightShape{"extreme_skew", {10000, 1}}),
    [](const auto& p) { return p.param.label; });

// ------------------------------------------------------------ profiler --

TEST(Profiler, CountsDrawsPerParameter) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(31);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  ScopedDrawProfiler profiler;
  for (int i = 0; i < 10; ++i) (void)sampler.draw("Cmd");
  for (int i = 0; i < 3; ++i) (void)sampler.draw_range("Delay");
  EXPECT_EQ(profiler.counts().at("Cmd"), 10u);
  EXPECT_EQ(profiler.counts().at("Delay"), 3u);
  EXPECT_EQ(profiler.total(), 13u);
  profiler.reset();
  EXPECT_EQ(profiler.total(), 0u);
}

TEST(Profiler, InactiveByDefault) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(32);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  // No active profiler: draws must not crash and leave no trace.
  (void)sampler.draw("Cmd");
  ScopedDrawProfiler profiler;
  EXPECT_TRUE(profiler.counts().empty());
}

TEST(Profiler, NestingRestoresOuter) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(33);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  ScopedDrawProfiler outer;
  (void)sampler.draw("Cmd");
  {
    ScopedDrawProfiler inner;
    (void)sampler.draw("Cmd");
    (void)sampler.draw("Cmd");
    EXPECT_EQ(inner.counts().at("Cmd"), 2u);
  }
  (void)sampler.draw("Cmd");
  // Outer saw its own draws only (1 before + 1 after the inner scope).
  EXPECT_EQ(outer.counts().at("Cmd"), 2u);
}

TEST(Profiler, FailedDrawsAreStillCounted) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(34);
  const CompiledTemplate table(nullptr, defaults);
  ParameterSampler sampler(table, rng);
  ScopedDrawProfiler profiler;
  EXPECT_THROW((void)sampler.draw("Missing"), util::NotFoundError);
  // The consult attempt is what the profiler measures.
  EXPECT_EQ(profiler.counts().at("Missing"), 1u);
}

}  // namespace
}  // namespace ascdg::stimgen
