// Tests for neighbor discovery and the approximated target: weights
// decay with distance, strategies respect structure, the composite
// takes maxima, and target evaluation matches hand computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>

#include "coverage/space.hpp"
#include "duv/ifu.hpp"
#include "neighbors/neighbors.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::neighbors {
namespace {

using coverage::CoverageSpace;
using coverage::EventId;

CoverageSpace family_space() {
  CoverageSpace space;
  const std::vector<std::string> suffixes{"004", "008", "016", "032", "064",
                                          "096"};
  space.declare_family("crc", suffixes);
  space.declare_event("io_cmd_read");
  return space;
}

std::map<std::uint32_t, double> as_map(const std::vector<tac::WeightedEvent>& v) {
  std::map<std::uint32_t, double> out;
  for (const auto& [event, weight] : v) out[event.value] = weight;
  return out;
}

TEST(FamilyOrder, WeightsDecayWithDistance) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  // Target crc_096 (index 5): neighbors are the 5 other family members.
  const auto neighbors = strategy.neighbors(space, EventId{5});
  const auto weights = as_map(neighbors);
  ASSERT_EQ(weights.size(), 5u);
  EXPECT_DOUBLE_EQ(weights.at(4), 1.0 / 2.0);  // crc_064, distance 1
  EXPECT_DOUBLE_EQ(weights.at(3), 1.0 / 3.0);  // crc_032, distance 2
  EXPECT_DOUBLE_EQ(weights.at(0), 1.0 / 6.0);  // crc_004, distance 5
  EXPECT_EQ(weights.count(6), 0u);  // io_cmd_read is not family
}

TEST(FamilyOrder, MiddleTargetSeesBothSides) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  const auto weights = as_map(strategy.neighbors(space, EventId{2}));
  EXPECT_DOUBLE_EQ(weights.at(1), 0.5);
  EXPECT_DOUBLE_EQ(weights.at(3), 0.5);
}

TEST(FamilyOrder, NonFamilyEventHasNoNeighbors) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  EXPECT_TRUE(strategy.neighbors(space, EventId{6}).empty());
}

TEST(CrossProduct, HammingBallRadiusOne) {
  CoverageSpace space;
  const auto& cp =
      space.declare_cross_product("x", {{"a", 3}, {"b", 4}, {"c", 2}});
  const CrossProductStrategy strategy(1);
  const std::size_t coords[3] = {1, 2, 0};
  const EventId target = space.cross_event(cp, coords);
  const auto neighbors = strategy.neighbors(space, target);
  // Radius-1 ball: (3-1) + (4-1) + (2-1) = 6 neighbors.
  ASSERT_EQ(neighbors.size(), 6u);
  for (const auto& [event, weight] : neighbors) {
    EXPECT_DOUBLE_EQ(weight, 0.5);  // 1/(1+1)
    const auto c = space.coords_of(cp, event);
    std::size_t hamming = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      if (c[d] != coords[d]) ++hamming;
    }
    EXPECT_EQ(hamming, 1u);
  }
}

TEST(CrossProduct, RadiusTwoIncludesFartherEvents) {
  CoverageSpace space;
  const auto& cp = space.declare_cross_product("x", {{"a", 2}, {"b", 2}, {"c", 2}});
  const std::size_t coords[3] = {0, 0, 0};
  const EventId target = space.cross_event(cp, coords);
  const auto r1 = CrossProductStrategy(1).neighbors(space, target);
  const auto r2 = CrossProductStrategy(2).neighbors(space, target);
  EXPECT_EQ(r1.size(), 3u);
  EXPECT_EQ(r2.size(), 6u);  // 3 at distance 1 + 3 at distance 2
  const auto weights = as_map(r2);
  std::size_t at_third = 0;
  for (const auto& [id, w] : weights) {
    if (w == 1.0 / 3.0) ++at_third;
  }
  EXPECT_EQ(at_third, 3u);
}

TEST(CrossProduct, NonCrossEventHasNoNeighbors) {
  CoverageSpace space;
  const EventId plain = space.declare_event("plain");
  space.declare_cross_product("x", {{"a", 2}});
  EXPECT_TRUE(CrossProductStrategy(1).neighbors(space, plain).empty());
}

TEST(NamePrefix, SharedPrefixScores) {
  const auto space = family_space();
  const NamePrefixStrategy strategy(4);
  // Target crc_096: all crc_* share "crc_0..." prefixes.
  const auto weights = as_map(strategy.neighbors(space, EventId{5}));
  EXPECT_GE(weights.size(), 5u);
  EXPECT_EQ(weights.count(6), 0u);  // io_cmd_read shares < 4 chars
  // crc_064 shares "crc_0" (5 chars) with crc_096; weight 5/7.
  EXPECT_NEAR(weights.at(4), 5.0 / 7.0, 1e-12);
}

TEST(NamePrefix, MinPrefixFilters) {
  const auto space = family_space();
  const NamePrefixStrategy strict(10);  // longer than any shared prefix
  EXPECT_TRUE(strict.neighbors(space, EventId{5}).empty());
}

TEST(Composite, TakesMaxWeightAcrossStrategies) {
  const auto space = family_space();
  std::vector<std::unique_ptr<NeighborStrategy>> strategies;
  strategies.push_back(std::make_unique<FamilyOrderStrategy>());
  strategies.push_back(std::make_unique<NamePrefixStrategy>(4));
  const CompositeStrategy composite(std::move(strategies));
  const auto weights = as_map(composite.neighbors(space, EventId{5}));
  // crc_064: family-order gives 0.5, name-prefix gives 5/7 -> max 5/7.
  EXPECT_NEAR(weights.at(4), 5.0 / 7.0, 1e-12);
  // crc_004: family-order 1/6, name-prefix "crc_0" 5/7 -> 5/7.
  EXPECT_NEAR(weights.at(0), 5.0 / 7.0, 1e-12);
}

TEST(BuildTarget, IncludesTargetsWithTopWeight) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  const std::vector<EventId> targets{EventId{5}};
  const auto target = build_target(space, targets, strategy, 2.0);
  EXPECT_EQ(target.targets(), targets);
  const auto weights = as_map(target.events());
  EXPECT_DOUBLE_EQ(weights.at(5), 2.0);
  EXPECT_DOUBLE_EQ(weights.at(4), 0.5);
  EXPECT_EQ(weights.size(), 6u);
}

TEST(BuildTarget, MultipleTargetsUnion) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  const std::vector<EventId> targets{EventId{4}, EventId{5}};
  const auto target = build_target(space, targets, strategy, 2.0);
  const auto weights = as_map(target.events());
  EXPECT_DOUBLE_EQ(weights.at(4), 2.0);  // target weight wins over neighbor
  EXPECT_DOUBLE_EQ(weights.at(5), 2.0);
  EXPECT_DOUBLE_EQ(weights.at(3), 0.5);  // closest to crc_032 is EventId{4}
}

TEST(BuildTarget, EmptyTargetsThrows) {
  const auto space = family_space();
  const FamilyOrderStrategy strategy;
  const std::vector<EventId> none;
  EXPECT_THROW((void)build_target(space, none, strategy), util::ValidationError);
}

TEST(ApproximatedTargetEval, ValueAndRealValue) {
  coverage::SimStats stats(3);
  for (int i = 0; i < 10; ++i) {
    coverage::CoverageVector vec(3);
    if (i < 4) vec.hit(EventId{0});
    if (i < 1) vec.hit(EventId{1});
    stats.record(vec);
  }
  const ApproximatedTarget target(
      {EventId{2}},
      {{EventId{0}, 0.5}, {EventId{1}, 1.0}, {EventId{2}, 2.0}});
  EXPECT_DOUBLE_EQ(target.value(stats), 0.5 * 0.4 + 1.0 * 0.1 + 2.0 * 0.0);
  EXPECT_DOUBLE_EQ(target.real_value(stats), 0.0);
}

// value() and real_value() are bit-identical to summing
// SimStats::hit_rate per event, in event order, for every stats shape:
// no simulations, all hits, random counts, and weights of every scale.
TEST(ApproximatedTargetEval, BitIdenticalToThePerEventHitRateSum) {
  constexpr std::size_t kEvents = 256;
  util::Xoshiro256 rng(0xB175);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int round = 0; round < 4096; ++round) {
    std::vector<EventId> targets;
    std::vector<tac::WeightedEvent> events;
    for (std::uint32_t e = 0; e < kEvents; ++e) {
      if (rng.uniform() < 0.5) continue;
      const double scale =
          std::ldexp(1.0, static_cast<int>(rng.uniform() * 40) - 20);
      events.push_back({EventId{e}, rng.uniform() * scale});
      if (rng.uniform() < 0.05) targets.push_back(EventId{e});
    }
    std::shuffle(events.begin(), events.end(), rng);
    const std::size_t sims =
        round % 8 == 0 ? 0
                       : 1 + static_cast<std::size_t>(rng.uniform() * 5000);
    std::vector<std::size_t> hits(kEvents);
    for (auto& h : hits) {
      const double u = rng.uniform();
      h = u < 0.2   ? 0
          : u < 0.3 ? sims
                    : static_cast<std::size_t>(rng.uniform() *
                                               static_cast<double>(sims));
    }
    const auto stats = coverage::SimStats::from_counts(sims, std::move(hits));
    const ApproximatedTarget target(targets, events);

    double value = 0.0;
    for (const auto& [event, weight] : events) {
      value += weight * stats.hit_rate(event);
    }
    double real_value = 0.0;
    for (const auto event : targets) real_value += stats.hit_rate(event);
    ASSERT_EQ(bits(target.value(stats)), bits(value)) << "round " << round;
    ASSERT_EQ(bits(target.real_value(stats)), bits(real_value))
        << "round " << round;
  }
}

TEST(ApproximatedTargetEval, StatsOverTooFewEventsAreRejected) {
  const ApproximatedTarget target({EventId{7}}, {{EventId{7}, 1.0}});
  coverage::SimStats stats(4);
  stats.record(coverage::CoverageVector(4));
  EXPECT_THROW((void)target.value(stats), util::LogicError);
  EXPECT_THROW((void)target.real_value(stats), util::LogicError);
  // With no simulation there is nothing to index: both score 0, as
  // hit_rate does.
  EXPECT_EQ(target.value(coverage::SimStats(4)), 0.0);
  EXPECT_EQ(target.real_value(coverage::SimStats(4)), 0.0);
}

TEST(FamilyTarget, TargetsAreUncoveredEvents) {
  const auto space = family_space();
  coverage::SimStats baseline(space.size());
  for (int i = 0; i < 200; ++i) {
    coverage::CoverageVector vec(space.size());
    vec.hit(EventId{0});
    if (i < 50) vec.hit(EventId{1});
    if (i < 2) vec.hit(EventId{2});
    baseline.record(vec);
  }
  const auto target =
      family_target(space, "crc", baseline, FamilyWeighting::kUniform);
  // Events 3,4,5 are uncovered -> targets.
  ASSERT_EQ(target.targets().size(), 3u);
  EXPECT_EQ(target.targets()[0], EventId{3});
  // All 6 family events participate with unit weight.
  EXPECT_EQ(target.events().size(), 6u);
  for (const auto& [event, weight] : target.events()) {
    EXPECT_DOUBLE_EQ(weight, 1.0);
  }
}

TEST(FamilyTarget, DistanceWeightingPullsTowardTargets) {
  const auto space = family_space();
  coverage::SimStats baseline(space.size());
  for (int i = 0; i < 200; ++i) {
    coverage::CoverageVector vec(space.size());
    vec.hit(EventId{0});
    if (i < 150) vec.hit(EventId{1});
    if (i < 120) vec.hit(EventId{2});
    baseline.record(vec);
  }
  // Targets are 3,4,5; default weighting is kDistance with weight 2 on
  // targets, 1/(1+dist to nearest target) elsewhere.
  const auto target = family_target(space, "crc", baseline);
  const auto weights = as_map(target.events());
  EXPECT_DOUBLE_EQ(weights.at(3), 2.0);
  EXPECT_DOUBLE_EQ(weights.at(4), 2.0);
  EXPECT_DOUBLE_EQ(weights.at(5), 2.0);
  EXPECT_DOUBLE_EQ(weights.at(2), 0.5);        // distance 1 from target 3
  EXPECT_DOUBLE_EQ(weights.at(1), 1.0 / 3.0);  // distance 2
  EXPECT_DOUBLE_EQ(weights.at(0), 0.25);       // distance 3
}

TEST(FamilyTarget, AllCoveredFallsBackToRarest) {
  const auto space = family_space();
  coverage::SimStats baseline(space.size());
  for (int i = 0; i < 100; ++i) {
    coverage::CoverageVector vec(space.size());
    for (std::uint32_t e = 0; e < 6; ++e) {
      if (e < 5 || i < 3) vec.hit(EventId{e});  // e5 hit only 3 times
    }
    baseline.record(vec);
  }
  const auto target = family_target(space, "crc", baseline);
  ASSERT_EQ(target.targets().size(), 1u);
  EXPECT_EQ(target.targets()[0], EventId{5});
}

TEST(FamilyTarget, UnknownFamilyThrows) {
  const auto space = family_space();
  const coverage::SimStats baseline(space.size());
  EXPECT_THROW((void)family_target(space, "nope", baseline),
               util::NotFoundError);
}

// ----------------------------------------------------- correlation --

class CorrelationTest : public ::testing::Test {
 protected:
  // 4 events, 3 templates:
  //   e0 and e1 hit by exactly the same templates (perfect correlation),
  //   e2 hit by a disjoint template, e3 never hit.
  coverage::CoverageRepository repo_{4};

  void SetUp() override {
    const auto record = [this](const char* name,
                               std::vector<std::uint32_t> hits,
                               std::size_t times) {
      coverage::SimStats stats(4);
      for (std::size_t i = 0; i < times; ++i) {
        coverage::CoverageVector vec(4);
        for (const auto e : hits) vec.hit(EventId{e});
        stats.record(vec);
      }
      repo_.record(name, stats);
    };
    record("alpha", {0, 1}, 10);
    record("beta", {0, 1}, 10);
    record("gamma", {2}, 10);
  }
};

TEST_F(CorrelationTest, PerfectlyCorrelatedEventJoins) {
  // Base target: e3 (uncovered) with e0 as its only known neighbor.
  const ApproximatedTarget base({EventId{3}},
                                {{EventId{0}, 1.0}, {EventId{3}, 2.0}});
  const CorrelationExpansion expansion(repo_, 0.9, 0.25);
  EXPECT_NEAR(expansion.similarity(base, EventId{1}), 1.0, 1e-9);
  EXPECT_NEAR(expansion.similarity(base, EventId{2}), 0.0, 1e-9);
  const auto expanded = expansion.expand(base);
  // e1 joined with weight 0.25 * 1.0; e2 did not.
  ASSERT_EQ(expanded.events().size(), 3u);
  bool found_e1 = false;
  for (const auto& [event, weight] : expanded.events()) {
    if (event == EventId{1}) {
      found_e1 = true;
      EXPECT_NEAR(weight, 0.25, 1e-9);
    }
    EXPECT_NE(event, EventId{2});
  }
  EXPECT_TRUE(found_e1);
}

TEST_F(CorrelationTest, ExistingEventsKeepTheirWeights) {
  const ApproximatedTarget base({EventId{3}},
                                {{EventId{0}, 1.0}, {EventId{3}, 2.0}});
  const CorrelationExpansion expansion(repo_, 0.9, 0.25);
  const auto expanded = expansion.expand(base);
  for (const auto& [event, weight] : expanded.events()) {
    if (event == EventId{0}) {
      EXPECT_DOUBLE_EQ(weight, 1.0);
    }
    if (event == EventId{3}) {
      EXPECT_DOUBLE_EQ(weight, 2.0);
    }
  }
  EXPECT_EQ(expanded.targets(), base.targets());
}

TEST_F(CorrelationTest, ThresholdFiltersWeakCorrelation) {
  // With an impossible threshold nothing joins.
  const ApproximatedTarget base({EventId{3}},
                                {{EventId{0}, 1.0}, {EventId{3}, 2.0}});
  const CorrelationExpansion strict(repo_, 1.1, 0.25);
  EXPECT_EQ(strict.expand(base).events().size(), base.events().size());
}

TEST_F(CorrelationTest, ZeroProfileSimilarityIsZero) {
  // A base made only of the never-hit target has a zero seed profile.
  const ApproximatedTarget dark({EventId{3}}, {{EventId{3}, 2.0}});
  const CorrelationExpansion expansion(repo_, 0.5, 0.25);
  EXPECT_DOUBLE_EQ(expansion.similarity(dark, EventId{0}), 0.0);
  EXPECT_EQ(expansion.expand(dark).events().size(), 1u);
}

TEST(Strategies, WorkOnRealIfuCrossProduct) {
  const duv::Ifu ifu;
  const auto& cp = ifu.cross_product();
  const std::size_t coords[4] = {6, 3, 3, 1};
  const EventId hard = ifu.space().cross_event(cp, coords);
  const CrossProductStrategy strategy(1);
  const auto neighbors = strategy.neighbors(ifu.space(), hard);
  // (8-1)+(4-1)+(4-1)+(2-1) = 14 radius-1 neighbors.
  EXPECT_EQ(neighbors.size(), 14u);
}

}  // namespace
}  // namespace ascdg::neighbors
