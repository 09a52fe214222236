// Tests for the TAC query layer: per-template hit probabilities,
// best-template ranking (weighted and unweighted), uncovered-event
// queries, and behaviour on the real units' regression suites.
#include <gtest/gtest.h>

#include <vector>

#include "coverage/repository.hpp"
#include "duv/io_unit.hpp"
#include "exec/thread_farm.hpp"
#include "tac/tac.hpp"
#include "util/error.hpp"

namespace ascdg::tac {
namespace {

using coverage::CoverageRepository;
using coverage::CoverageVector;
using coverage::EventId;
using coverage::SimStats;

/// Repository with hand-crafted hit rates:
///   t_a: hits e0 always, e1 half the time.
///   t_b: hits e1 always.
///   t_c: hits nothing.
CoverageRepository make_repo() {
  CoverageRepository repo(3);
  for (int i = 0; i < 10; ++i) {
    CoverageVector vec(3);
    vec.hit(EventId{0});
    if (i < 5) vec.hit(EventId{1});
    repo.record("t_a", vec);
  }
  for (int i = 0; i < 10; ++i) {
    CoverageVector vec(3);
    vec.hit(EventId{1});
    repo.record("t_b", vec);
  }
  for (int i = 0; i < 10; ++i) {
    repo.record("t_c", CoverageVector(3));
  }
  return repo;
}

TEST(Tac, HitProbability) {
  const auto repo = make_repo();
  const Tac tac(repo);
  EXPECT_DOUBLE_EQ(tac.hit_probability("t_a", EventId{0}), 1.0);
  EXPECT_DOUBLE_EQ(tac.hit_probability("t_a", EventId{1}), 0.5);
  EXPECT_DOUBLE_EQ(tac.hit_probability("t_b", EventId{0}), 0.0);
  EXPECT_THROW((void)tac.hit_probability("missing", EventId{0}),
               util::NotFoundError);
}

TEST(Tac, BestTemplatesRanksBySummedRate) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const std::vector<EventId> events{EventId{0}, EventId{1}};
  const auto ranked = tac.best_templates(events, 10);
  ASSERT_EQ(ranked.size(), 2u);  // t_c scores zero -> omitted
  EXPECT_EQ(ranked[0].name, "t_a");  // 1.0 + 0.5
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.5);
  EXPECT_EQ(ranked[1].name, "t_b");  // 1.0
  EXPECT_EQ(ranked[0].sims, 10u);
}

TEST(Tac, BestTemplatesRespectsWeights) {
  const auto repo = make_repo();
  const Tac tac(repo);
  // Heavily weight e1: t_b (1.0 on e1) must now beat t_a (0.5 on e1 +
  // small contribution from e0).
  const std::vector<WeightedEvent> events{{EventId{0}, 0.1}, {EventId{1}, 10.0}};
  const auto ranked = tac.best_templates(events, 10);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "t_b");
}

TEST(Tac, BestTemplatesTruncatesToN) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const std::vector<EventId> events{EventId{0}, EventId{1}};
  EXPECT_EQ(tac.best_templates(events, 1).size(), 1u);
}

TEST(Tac, BestTemplatesEmptyWhenNoEvidence) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const std::vector<EventId> events{EventId{2}};  // nobody hits e2
  EXPECT_TRUE(tac.best_templates(events, 5).empty());
}

TEST(Tac, UncoveredEvents) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const auto uncovered = tac.uncovered_events();
  ASSERT_EQ(uncovered.size(), 1u);
  EXPECT_EQ(uncovered[0], EventId{2});
}

TEST(Tac, TemplatesHittingRanked) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const auto hitting = tac.templates_hitting(EventId{1});
  ASSERT_EQ(hitting.size(), 2u);
  EXPECT_EQ(hitting[0].name, "t_b");
  EXPECT_EQ(hitting[1].name, "t_a");
}

// On the real I/O unit: the coarse-grained search must identify the CRC
// smoke template as the best one for the crc family — that is the whole
// point of phase 1 (paper §IV-B).
TEST(Tac, FindsCrcTemplateOnIoUnit) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  CoverageRepository repo(io.space().size());
  const auto suite = io.suite();
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(io, suite[j], 300, 100 + j));
  }
  const Tac tac(repo);
  const auto family = io.crc_family();
  const std::vector<EventId> events(family.begin(), family.end());
  const auto ranked = tac.best_templates(events, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].name, "io_crc_smoke");
}

TEST(Tac, RegressionPolicyCoversEverythingCoverable) {
  const auto repo = make_repo();
  const Tac tac(repo);
  const auto policy = tac.suggest_regression_policy();
  // t_a (2 events) is picked first, then t_b adds nothing new (e1
  // already covered by t_a) -> policy is exactly {t_a}.
  ASSERT_EQ(policy.size(), 1u);
  EXPECT_EQ(policy[0], "t_a");
}

TEST(Tac, RegressionPolicyPicksComplementaryTemplates) {
  CoverageRepository repo(3);
  const auto record = [&repo](const char* name, std::vector<std::uint32_t> hits) {
    CoverageVector vec(3);
    for (const auto e : hits) vec.hit(EventId{e});
    repo.record(name, vec);
  };
  record("covers_01", {0, 1});
  record("covers_2", {2});
  record("covers_1", {1});
  const Tac tac(repo);
  const auto policy = tac.suggest_regression_policy();
  ASSERT_EQ(policy.size(), 2u);
  EXPECT_EQ(policy[0], "covers_01");
  EXPECT_EQ(policy[1], "covers_2");
}

TEST(Tac, RegressionPolicyEmptyRepo) {
  const CoverageRepository repo(2);
  const Tac tac(repo);
  EXPECT_TRUE(tac.suggest_regression_policy().empty());
}

TEST(Tac, ReliablyCoveredEventsHonorsThreshold) {
  const auto repo = make_repo();
  const Tac tac(repo);
  // e0 at rate 1.0 (t_a), e1 at rate 1.0 (t_b), e2 never.
  const auto strict = tac.reliably_covered_events(0.9);
  ASSERT_EQ(strict.size(), 2u);
  EXPECT_EQ(strict[0], EventId{0});
  // Raising above any single-template rate empties the set for e1?
  // both e0/e1 have a 1.0 template, so only an impossible threshold
  // excludes them.
  EXPECT_EQ(tac.reliably_covered_events(0.4).size(), 2u);
}

}  // namespace
}  // namespace ascdg::tac
