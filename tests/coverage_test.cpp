// Tests for the coverage model: event declaration, families, cross
// products (coordinate round trips), coverage vectors, hit statistics,
// repository semantics, and the IBM status-classification convention.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "coverage/event.hpp"
#include "coverage/holes.hpp"
#include "coverage/repository.hpp"
#include "coverage/repository_io.hpp"
#include "coverage/space.hpp"
#include "coverage/vector.hpp"
#include "util/error.hpp"

namespace ascdg::coverage {
namespace {

using util::NotFoundError;
using util::ValidationError;

// ---------------------------------------------------------------- space --

TEST(Space, DeclareAndFind) {
  CoverageSpace space;
  const EventId a = space.declare_event("alpha");
  const EventId b = space.declare_event("beta");
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.name(a), "alpha");
  EXPECT_EQ(space.find("beta"), b);
  EXPECT_FALSE(space.find("gamma").has_value());
}

TEST(Space, DuplicateNameThrows) {
  CoverageSpace space;
  space.declare_event("x");
  EXPECT_THROW(space.declare_event("x"), ValidationError);
}

TEST(Space, InvalidNameThrows) {
  CoverageSpace space;
  EXPECT_THROW(space.declare_event(""), ValidationError);
  EXPECT_THROW(space.declare_event("9bad"), ValidationError);
  EXPECT_THROW(space.declare_event("has space"), ValidationError);
}

TEST(Space, FamilyDeclaration) {
  CoverageSpace space;
  const std::array<std::string, 3> suffixes{"004", "008", "016"};
  const auto events = space.declare_family("crc", suffixes);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(space.name(events[0]), "crc_004");
  EXPECT_EQ(space.name(events[2]), "crc_016");
  EXPECT_EQ(space.family_events("crc"), events);
  EXPECT_TRUE(space.family_events("nope").empty());
  const auto names = space.family_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "crc");
}

TEST(Space, EmptyFamilyThrows) {
  CoverageSpace space;
  const std::vector<std::string> none;
  EXPECT_THROW((void)space.declare_family("f", none), ValidationError);
}

TEST(Space, EventsWithPrefix) {
  CoverageSpace space;
  space.declare_event("crc_004");
  space.declare_event("crc_008");
  space.declare_event("io_cmd_read");
  EXPECT_EQ(space.events_with_prefix("crc_").size(), 2u);
  EXPECT_EQ(space.events_with_prefix("io_").size(), 1u);
  EXPECT_EQ(space.events_with_prefix("zz").size(), 0u);
}

TEST(Space, CrossProductDeclaresAllTuples) {
  CoverageSpace space;
  const auto& cp = space.declare_cross_product(
      "ifu", {{"entry", 2}, {"thread", 3}});
  EXPECT_EQ(cp.count, 6u);
  EXPECT_EQ(space.size(), 6u);
  EXPECT_TRUE(space.find("ifu_entry0_thread0").has_value());
  EXPECT_TRUE(space.find("ifu_entry1_thread2").has_value());
}

TEST(Space, CrossProductCoordinateRoundTrip) {
  CoverageSpace space;
  const auto& cp = space.declare_cross_product(
      "x", {{"a", 3}, {"b", 4}, {"c", 2}});
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      for (std::size_t c = 0; c < 2; ++c) {
        const std::array<std::size_t, 3> coords{a, b, c};
        const EventId id = space.cross_event(cp, coords);
        const auto back = space.coords_of(cp, id);
        EXPECT_EQ(back[0], a);
        EXPECT_EQ(back[1], b);
        EXPECT_EQ(back[2], c);
        // Name encodes the coordinates.
        EXPECT_EQ(space.name(id), "x_a" + std::to_string(a) + "_b" +
                                      std::to_string(b) + "_c" +
                                      std::to_string(c));
      }
    }
  }
}

TEST(Space, CrossProductOfMembership) {
  CoverageSpace space;
  const EventId plain = space.declare_event("plain");
  const auto& cp = space.declare_cross_product("x", {{"a", 2}});
  EXPECT_EQ(space.cross_product_of(plain), nullptr);
  EXPECT_EQ(space.cross_product_of(cp.first), &cp);
  EXPECT_EQ(space.find_cross_product("x"), &cp);
  EXPECT_EQ(space.find_cross_product("y"), nullptr);
}

TEST(Space, CrossProductBadCoordsThrow) {
  CoverageSpace space;
  const auto& cp = space.declare_cross_product("x", {{"a", 2}, {"b", 2}});
  const std::array<std::size_t, 1> too_few{0};
  EXPECT_THROW((void)space.cross_event(cp, too_few), ValidationError);
  const std::array<std::size_t, 2> out_of_range{0, 5};
  EXPECT_THROW((void)space.cross_event(cp, out_of_range), ValidationError);
}

TEST(Space, CrossEventOutOfRangeNamesCoordinateAndFeature) {
  CoverageSpace space;
  const auto& cp = space.declare_cross_product("x", {{"a", 2}, {"b", 3}});
  const std::array<std::size_t, 2> last{1, 2};
  EXPECT_EQ(space.cross_event(cp, last).value, cp.first.value + 5);
  const std::array<std::size_t, 2> out_of_range{1, 3};
  try {
    (void)space.cross_event(cp, out_of_range);
    FAIL() << "out-of-range coordinate did not throw";
  } catch (const ValidationError& err) {
    EXPECT_STREQ(err.what(), "coordinate 3 out of range for feature 'b'");
  }
}

TEST(Space, CoordsOfForeignEventThrows) {
  CoverageSpace space;
  const EventId plain = space.declare_event("plain");
  const auto& cp = space.declare_cross_product("x", {{"a", 2}});
  EXPECT_THROW((void)space.coords_of(cp, plain), ValidationError);
}

TEST(Space, CrossProductRegistersAsFamily) {
  CoverageSpace space;
  space.declare_cross_product("ifu", {{"e", 2}, {"t", 2}});
  EXPECT_EQ(space.family_events("ifu").size(), 4u);
}

TEST(Space, CrossProductReferenceStableAcrossDeclarations) {
  CoverageSpace space;
  const auto& first = space.declare_cross_product("a", {{"x", 2}});
  const EventId probe = first.first;
  for (int i = 0; i < 10; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    space.declare_cross_product(name, {{"x", 3}});
  }
  // The reference taken before later declarations must still be valid.
  EXPECT_EQ(first.family, "a");
  EXPECT_EQ(space.cross_product_of(probe), &first);
}

TEST(Space, ZeroCardinalityThrows) {
  CoverageSpace space;
  EXPECT_THROW(space.declare_cross_product("x", {{"a", 0}}), ValidationError);
  EXPECT_THROW(space.declare_cross_product("x", {}), ValidationError);
}

// --------------------------------------------------------------- vector --

TEST(Vector, HitAndQuery) {
  CoverageVector vec(130);  // multiple words + partial word
  EXPECT_EQ(vec.popcount(), 0u);
  vec.hit(EventId{0});
  vec.hit(EventId{64});
  vec.hit(EventId{129});
  EXPECT_TRUE(vec.was_hit(EventId{0}));
  EXPECT_TRUE(vec.was_hit(EventId{64}));
  EXPECT_TRUE(vec.was_hit(EventId{129}));
  EXPECT_FALSE(vec.was_hit(EventId{1}));
  EXPECT_EQ(vec.popcount(), 3u);
}

TEST(Vector, DoubleHitIsIdempotent) {
  CoverageVector vec(10);
  vec.hit(EventId{3});
  vec.hit(EventId{3});
  EXPECT_EQ(vec.popcount(), 1u);
}

TEST(Vector, OutOfRangeHitIgnored) {
  CoverageVector vec(10);
  vec.hit(EventId{100});
  EXPECT_EQ(vec.popcount(), 0u);
  EXPECT_FALSE(vec.was_hit(EventId{100}));
}

TEST(Vector, MergeIsUnion) {
  CoverageVector a(70), b(70);
  a.hit(EventId{1});
  b.hit(EventId{65});
  a.merge(b);
  EXPECT_TRUE(a.was_hit(EventId{1}));
  EXPECT_TRUE(a.was_hit(EventId{65}));
  EXPECT_EQ(a.popcount(), 2u);
}

TEST(Vector, ClearResets) {
  CoverageVector vec(10);
  vec.hit(EventId{2});
  vec.clear();
  EXPECT_EQ(vec.popcount(), 0u);
}

// ---------------------------------------------------------------- stats --

TEST(SimStatsTest, RecordAccumulates) {
  SimStats stats(4);
  CoverageVector vec(4);
  vec.hit(EventId{1});
  stats.record(vec);
  stats.record(vec);
  CoverageVector other(4);
  other.hit(EventId{1});
  other.hit(EventId{3});
  stats.record(other);
  EXPECT_EQ(stats.sims(), 3u);
  EXPECT_EQ(stats.hits(EventId{1}), 3u);
  EXPECT_EQ(stats.hits(EventId{3}), 1u);
  EXPECT_EQ(stats.hits(EventId{0}), 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(EventId{1}), 1.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(EventId{3}), 1.0 / 3.0);
}

TEST(SimStatsTest, MergeIsAssociativeAndCommutative) {
  const auto make = [](std::size_t sims, std::size_t hits1) {
    SimStats s(2);
    for (std::size_t i = 0; i < sims; ++i) {
      CoverageVector vec(2);
      if (i < hits1) vec.hit(EventId{1});
      s.record(vec);
    }
    return s;
  };
  const SimStats a = make(10, 3), b = make(20, 7), c = make(5, 5);
  SimStats ab = a;
  ab.merge(b);
  SimStats ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  SimStats ab_c = ab;
  ab_c.merge(c);
  SimStats bc = b;
  bc.merge(c);
  SimStats a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c.sims(), 35u);
  EXPECT_EQ(ab_c.hits(EventId{1}), 15u);
}

TEST(SimStatsTest, TargetValueSumsHitRates) {
  SimStats stats(3);
  for (int i = 0; i < 10; ++i) {
    CoverageVector vec(3);
    if (i < 5) vec.hit(EventId{0});
    if (i < 2) vec.hit(EventId{2});
    stats.record(vec);
  }
  const std::vector<EventId> events{EventId{0}, EventId{2}};
  EXPECT_DOUBLE_EQ(stats.target_value(events), 0.5 + 0.2);
}

TEST(SimStatsTest, EmptyStatsAreNeutral) {
  SimStats empty;
  SimStats stats(2);
  CoverageVector vec(2);
  vec.hit(EventId{0});
  stats.record(vec);
  SimStats merged = stats;
  merged.merge(empty);
  EXPECT_EQ(merged, stats);
  empty.merge(stats);
  EXPECT_EQ(empty, stats);
}

TEST(SimStatsTest, MergeFromRvalueMovesIntoEmptyAndAddsOtherwise) {
  SimStats stats(2);
  CoverageVector vec(2);
  vec.hit(EventId{1});
  stats.record(vec);
  SimStats into;
  SimStats moved = stats;
  into.merge(std::move(moved));
  EXPECT_EQ(into, stats);
  into.merge(SimStats(stats));
  EXPECT_EQ(into.sims(), 2u);
  EXPECT_EQ(into.hits(EventId{1}), 2u);
  EXPECT_EQ(into.hits(EventId{0}), 0u);
}

// --------------------------------------------------------------- status --

TEST(Status, ClassificationConvention) {
  // Paper: <100 hits or <1% rate -> lightly; 0 -> never.
  EXPECT_EQ(classify_hits(0, 1000), HitStatus::kNever);
  EXPECT_EQ(classify_hits(99, 100), HitStatus::kLightly);   // count < 100
  EXPECT_EQ(classify_hits(100, 100), HitStatus::kWell);     // 100 hits, 100%
  EXPECT_EQ(classify_hits(500, 100000), HitStatus::kLightly);  // 0.5% rate
  EXPECT_EQ(classify_hits(1000, 100000), HitStatus::kWell);    // 1% rate
  EXPECT_EQ(classify_hits(12, 669000), HitStatus::kLightly);   // crc_032 row
  EXPECT_EQ(classify_hits(69048, 669000), HitStatus::kWell);   // crc_004 row
}

TEST(Status, ToString) {
  EXPECT_STREQ(to_string(HitStatus::kNever), "never-hit");
  EXPECT_STREQ(to_string(HitStatus::kLightly), "lightly-hit");
  EXPECT_STREQ(to_string(HitStatus::kWell), "well-hit");
}

// ----------------------------------------------------------- repository --

TEST(Repository, RecordAndQuery) {
  CoverageRepository repo(3);
  CoverageVector vec(3);
  vec.hit(EventId{0});
  repo.record("t1", vec);
  repo.record("t1", vec);
  vec.hit(EventId{1});
  repo.record("t2", vec);
  EXPECT_TRUE(repo.contains("t1"));
  EXPECT_FALSE(repo.contains("t3"));
  EXPECT_EQ(repo.stats("t1").sims(), 2u);
  EXPECT_EQ(repo.stats("t2").hits(EventId{1}), 1u);
  EXPECT_EQ(repo.total_sims(), 3u);
  const auto names = repo.template_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "t1");
}

TEST(Repository, UnknownTemplateThrows) {
  const CoverageRepository repo(2);
  EXPECT_THROW((void)repo.stats("missing"), NotFoundError);
}

TEST(Repository, TotalAggregatesAllTemplates) {
  CoverageRepository repo(2);
  SimStats s1(2), s2(2);
  CoverageVector v1(2), v2(2);
  v1.hit(EventId{0});
  v2.hit(EventId{1});
  for (int i = 0; i < 3; ++i) s1.record(v1);
  for (int i = 0; i < 4; ++i) s2.record(v2);
  repo.record("a", s1);
  repo.record("b", s2);
  const SimStats total = repo.total();
  EXPECT_EQ(total.sims(), 7u);
  EXPECT_EQ(total.hits(EventId{0}), 3u);
  EXPECT_EQ(total.hits(EventId{1}), 4u);
}

TEST(Repository, RecordStatsMergesWithExisting) {
  CoverageRepository repo(1);
  SimStats s(1);
  CoverageVector v(1);
  v.hit(EventId{0});
  s.record(v);
  repo.record("t", s);
  repo.record("t", s);
  EXPECT_EQ(repo.stats("t").sims(), 2u);
  EXPECT_EQ(repo.stats("t").hits(EventId{0}), 2u);
}

TEST(Repository, FirstHitOrdinalsTrackClosureProgress) {
  CoverageRepository repo(3);
  EXPECT_EQ(repo.records(), 0u);
  EXPECT_EQ(repo.events_hit(), 0u);
  EXPECT_EQ(repo.events_remaining(), 3u);
  EXPECT_FALSE(repo.first_hit_record(EventId{0}).has_value());

  CoverageVector miss(3);
  repo.record("t1", miss);  // record 1: hits nothing

  CoverageVector hit0(3);
  hit0.hit(EventId{0});
  repo.record("t1", hit0);  // record 2: first hit of event 0
  repo.record("t1", hit0);  // record 3: event 0 again — ordinal sticks

  CoverageVector hit01(3);
  hit01.hit(EventId{0});
  hit01.hit(EventId{1});
  repo.record("t2", hit01);  // record 4: first hit of event 1

  EXPECT_EQ(repo.records(), 4u);
  EXPECT_EQ(repo.events_hit(), 2u);
  EXPECT_EQ(repo.events_remaining(), 1u);
  EXPECT_EQ(repo.first_hit_record(EventId{0}), 2u);
  EXPECT_EQ(repo.first_hit_record(EventId{1}), 4u);
  EXPECT_FALSE(repo.first_hit_record(EventId{2}).has_value());
}

TEST(Repository, FirstHitOrdinalsCoverPreAggregatedFolds) {
  CoverageRepository repo(2);
  SimStats s(2);
  CoverageVector v(2);
  v.hit(EventId{1});
  s.record(v);
  repo.record("bulk", s);  // one fold, even though it holds many sims
  EXPECT_EQ(repo.records(), 1u);
  EXPECT_EQ(repo.first_hit_record(EventId{1}), 1u);
  EXPECT_FALSE(repo.first_hit_record(EventId{0}).has_value());
  EXPECT_EQ(repo.events_hit(), 1u);
}

// ----------------------------------------------------------- persistence --

class RepositoryIo : public ::testing::Test {
 protected:
  CoverageSpace space_;
  std::filesystem::path dir_;

  void SetUp() override {
    space_.declare_event("ev_a");
    space_.declare_event("ev_b");
    space_.declare_event("ev_c");
    dir_ = std::filesystem::temp_directory_path() /
           ("ascdg_repo_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  CoverageRepository sample_repo() {
    CoverageRepository repo(3);
    SimStats a = SimStats::from_counts(100, {40, 0, 7});
    SimStats b = SimStats::from_counts(50, {0, 0, 0});
    repo.record("tmpl_a", a);
    repo.record("tmpl_idle", b);
    return repo;
  }
};

TEST_F(RepositoryIo, RoundTrip) {
  const auto repo = sample_repo();
  const auto path = dir_ / "before.csv";
  save_repository(path, space_, repo);
  const auto loaded = load_repository(path, space_);
  ASSERT_EQ(loaded.template_names(), repo.template_names());
  for (const auto& name : repo.template_names()) {
    EXPECT_EQ(loaded.stats(name), repo.stats(name)) << name;
  }
  EXPECT_EQ(loaded.total_sims(), 150u);
}

TEST_F(RepositoryIo, ZeroHitTemplateKeepsSimCount) {
  const auto repo = sample_repo();
  const auto path = dir_ / "before.csv";
  save_repository(path, space_, repo);
  const auto loaded = load_repository(path, space_);
  EXPECT_EQ(loaded.stats("tmpl_idle").sims(), 50u);
  EXPECT_EQ(loaded.stats("tmpl_idle").hits(EventId{0}), 0u);
}

TEST_F(RepositoryIo, BadHeaderThrows) {
  const auto path = dir_ / "bad.csv";
  std::ofstream(path) << "nope,nope\n";
  EXPECT_THROW((void)load_repository(path, space_), util::Error);
}

TEST_F(RepositoryIo, UnknownEventThrows) {
  const auto path = dir_ / "bad.csv";
  std::ofstream(path) << "template,sims,event,hits\nt,10,not_an_event,3\n";
  EXPECT_THROW((void)load_repository(path, space_), util::Error);
}

TEST_F(RepositoryIo, InconsistentSimsThrows) {
  const auto path = dir_ / "bad.csv";
  std::ofstream(path) << "template,sims,event,hits\nt,10,ev_a,3\nt,20,ev_b,1\n";
  EXPECT_THROW((void)load_repository(path, space_), util::Error);
}

TEST_F(RepositoryIo, MissingFileThrows) {
  EXPECT_THROW((void)load_repository(dir_ / "nope.csv", space_), util::Error);
}

TEST(SimStatsFromCounts, ValidatesBounds) {
  EXPECT_NO_THROW((void)SimStats::from_counts(10, {10, 0, 5}));
  EXPECT_THROW((void)SimStats::from_counts(10, {11}), util::ValidationError);
  const auto stats = SimStats::from_counts(10, {4, 0});
  EXPECT_EQ(stats.sims(), 10u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(EventId{0}), 0.4);
}

// ---------------------------------------------------------------- holes --

class HoleAnalysis : public ::testing::Test {
 protected:
  CoverageSpace space_;
  const CrossProduct* cp_ = nullptr;

  void SetUp() override {
    cp_ = &space_.declare_cross_product("x", {{"a", 3}, {"b", 2}, {"c", 2}});
  }

  /// Stats where exactly the given coordinate tuples are uncovered.
  SimStats stats_with_uncovered(
      const std::vector<std::vector<std::size_t>>& uncovered) {
    std::vector<bool> skip(space_.size(), false);
    for (const auto& coords : uncovered) {
      skip[space_.cross_event(*cp_, coords).value] = true;
    }
    CoverageVector vec(space_.size());
    for (std::size_t i = 0; i < space_.size(); ++i) {
      if (!skip[i]) vec.hit(EventId{static_cast<std::uint32_t>(i)});
    }
    SimStats out(space_.size());
    out.record(vec);
    return out;
  }
};

TEST_F(HoleAnalysis, FullyCoveredHasNoHoles) {
  const auto stats = stats_with_uncovered({});
  EXPECT_TRUE(find_holes(space_, *cp_, stats, 3).empty());
}

TEST_F(HoleAnalysis, SingleUncoveredTupleIsAnOrder3Hole) {
  const auto stats = stats_with_uncovered({{1, 0, 1}});
  const auto holes = find_holes(space_, *cp_, stats, 3);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0].order(), 3u);
  EXPECT_EQ(holes[0].size, 1u);
  const std::vector<std::size_t> expected{1, 0, 1};
  EXPECT_EQ(holes[0].assignment, expected);
}

TEST_F(HoleAnalysis, ProjectedHoleSubsumesItsTuples) {
  // Everything with a=2 uncovered -> one order-1 hole, no order-2/3
  // sub-holes reported.
  std::vector<std::vector<std::size_t>> uncovered;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 2; ++c) uncovered.push_back({2, b, c});
  }
  const auto stats = stats_with_uncovered(uncovered);
  const auto holes = find_holes(space_, *cp_, stats, 3);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0].order(), 1u);
  EXPECT_EQ(holes[0].size, 4u);
  EXPECT_EQ(holes[0].assignment[0], 2u);
  EXPECT_EQ(holes[0].assignment[1], Hole::kWildcard);
}

TEST_F(HoleAnalysis, MaxOrderLimitsReporting) {
  const auto stats = stats_with_uncovered({{1, 0, 1}});
  // The only hole needs order 3; at max_order 2 nothing is reported.
  EXPECT_TRUE(find_holes(space_, *cp_, stats, 2).empty());
}

TEST_F(HoleAnalysis, MixedHolesSortedByOrderThenSize) {
  // a=0 fully uncovered (order 1, size 4) plus the lone tuple (2,1,0)
  // (order 3, size 1).
  std::vector<std::vector<std::size_t>> uncovered;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 2; ++c) uncovered.push_back({0, b, c});
  }
  uncovered.push_back({2, 1, 0});
  const auto stats = stats_with_uncovered(uncovered);
  const auto holes = find_holes(space_, *cp_, stats, 3);
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0].order(), 1u);
  EXPECT_EQ(holes[1].order(), 3u);
}

TEST_F(HoleAnalysis, DescribeFormatsAssignment) {
  Hole hole;
  hole.assignment = {2, Hole::kWildcard, 1};
  hole.size = 2;
  EXPECT_EQ(describe(*cp_, hole), "a=2, b=*, c=1  (2 events)");
}

}  // namespace
}  // namespace ascdg::coverage
