// End-to-end integration tests: the full AS-CDG flow on each simulated
// unit with reduced budgets. These assert the paper's qualitative
// claims: each phase improves on its predecessor, previously uncovered
// events get hit, the harvested template dominates per-simulation, and
// structurally unhittable events stay at zero.
#include <gtest/gtest.h>

#include "exec/thread_farm.hpp"
#include "flow/runner.hpp"
#include "coverage/repository.hpp"
#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "duv/lsu.hpp"
#include "duv/registry.hpp"
#include "neighbors/neighbors.hpp"
#include "report/report.hpp"
#include "util/log.hpp"

namespace ascdg {
namespace {

class IntegrationFlow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::kWarn); }

  /// Simulates the unit's full suite to build the "Before CDG"
  /// repository.
  static coverage::CoverageRepository before_repo(const duv::Duv& duv,
                                                  exec::ThreadFarm& farm,
                                                  std::size_t sims_per_tmpl) {
    coverage::CoverageRepository repo(duv.space().size());
    const auto suite = duv.suite();
    std::vector<exec::Job> jobs;
    jobs.reserve(suite.size());
    for (std::size_t j = 0; j < suite.size(); ++j) {
      jobs.push_back({&suite[j], sims_per_tmpl, 0xBEF0000 + j});
    }
    const auto stats = farm.run_all(duv, jobs);
    for (std::size_t j = 0; j < suite.size(); ++j) {
      repo.record(suite[j].name(), stats[j]);
    }
    return repo;
  }

  static flow::FlowConfig small_config() {
    flow::FlowConfig config;
    config.sample_templates = 60;
    config.sample_sims = 30;
    config.opt_directions = 10;
    config.opt_sims_per_point = 80;
    config.opt_max_iterations = 8;
    config.harvest_sims = 1500;
    config.seed = 20210201;  // DATE 2021
    return config;
  }
};

TEST_F(IntegrationFlow, IoUnitFlowHitsUncoveredCrcEvents) {
  const duv::IoUnit io;
  exec::ThreadFarm farm;
  const auto repo = before_repo(io, farm, 400);
  const auto before_total = repo.total();

  const auto target =
      neighbors::family_target(io.space(), "crc", before_total);
  ASSERT_FALSE(target.targets().empty())
      << "defaults must leave part of the crc family uncovered";

  flow::CdgRunner runner(io, farm, small_config());
  const auto suite = io.suite();
  const auto result = runner.run(target, repo, suite);

  // The coarse search ranked the CRC-relevant template first.
  EXPECT_TRUE(result.seed_template.starts_with("io_crc_smoke"))
      << result.seed_template;

  // The harvested best template dominates both the pre-CDG regression
  // average and the sampling-phase average per-sim (the paper:
  // "the best test-template shows significantly better hit rates").
  const double before_rate = target.value(result.before.stats);
  const double sampling_rate = target.value(result.sampling_phase.stats);
  const double harvest_rate = target.value(result.harvest_phase.stats);
  EXPECT_GT(harvest_rate, before_rate);
  EXPECT_GT(harvest_rate, sampling_rate);
  // The sampling phase's best template beats the sampling average (it
  // is the point the optimizer starts from).
  EXPECT_GE(result.sampling.best.front().value, sampling_rate);

  // At least one previously-uncovered family event is now hit by the
  // harvested template.
  std::size_t newly_hit = 0;
  for (const auto event : target.targets()) {
    if (result.harvest_phase.stats.hits(event) > 0) ++newly_hit;
  }
  EXPECT_GT(newly_hit, 0u);
}

TEST_F(IntegrationFlow, L3FlowTurnsNeverHitIntoHit) {
  const duv::L3Cache l3;
  exec::ThreadFarm farm;
  const auto repo = before_repo(l3, farm, 400);
  const auto before_total = repo.total();

  const auto target =
      neighbors::family_target(l3.space(), "byp_reqs", before_total);
  ASSERT_GE(target.targets().size(), 4u)
      << "the byp_reqs tail must start uncovered";

  flow::CdgRunner runner(l3, farm, small_config());
  const auto result = runner.run(target, repo, l3.suite());
  EXPECT_TRUE(result.seed_template.starts_with("l3_nc_smoke"))
      << result.seed_template;

  const auto& family = l3.byp_family();
  // Family status must improve: fewer never-hit events after harvest
  // than before (per-sim normalized comparison via hit > 0).
  std::size_t never_before = 0, never_after = 0;
  for (const auto event : family) {
    if (result.before.stats.hits(event) == 0) ++never_before;
    if (result.harvest_phase.stats.hits(event) == 0) ++never_after;
  }
  EXPECT_LT(never_after, never_before);

  // The harvested template's per-sim family value beats the whole
  // pre-CDG regression suite's.
  EXPECT_GT(target.value(result.harvest_phase.stats),
            target.value(result.before.stats));
}

TEST_F(IntegrationFlow, IfuCrossProductEntry7StaysUncovered) {
  const duv::Ifu ifu;
  exec::ThreadFarm farm;
  const auto repo = before_repo(ifu, farm, 300);
  const auto before_total = repo.total();

  const auto target =
      neighbors::family_target(ifu.space(), "ifu", before_total);
  flow::CdgRunner runner(ifu, farm, small_config());
  const auto result = runner.run(target, repo, ifu.suite());

  const auto family = ifu.space().family_events("ifu");
  ASSERT_EQ(family.size(), 256u);

  const auto before_counts =
      report::count_status(result.before.stats, family);
  const auto after_counts =
      report::count_status(result.harvest_phase.stats, family);

  // Coverage improves overall: fewer never-hit events.
  EXPECT_LT(after_counts.never, before_counts.never);

  // All 32 entry7 events remain uncovered in every phase (structural).
  const auto& cp = ifu.cross_product();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        const std::size_t coords[4] = {7, t, s, b};
        const auto event = ifu.space().cross_event(cp, coords);
        EXPECT_EQ(result.sampling_phase.stats.hits(event), 0u);
        EXPECT_EQ(result.optimization_phase.stats.hits(event), 0u);
        EXPECT_EQ(result.harvest_phase.stats.hits(event), 0u);
      }
    }
  }
  // ... so at least 32 events stay never-hit.
  EXPECT_GE(after_counts.never, 32u);
}

TEST_F(IntegrationFlow, LsuFlowDeepensForwardingCoverage) {
  const duv::Lsu lsu;
  exec::ThreadFarm farm;
  const auto repo = before_repo(lsu, farm, 400);
  const auto target =
      neighbors::family_target(lsu.space(), "lsu_fwdq", repo.total());
  ASSERT_FALSE(target.targets().empty());

  flow::CdgRunner runner(lsu, farm, small_config());
  const auto result = runner.run(target, repo, lsu.suite());

  // The harvested template hits at least one previously uncovered
  // forwarding depth and dominates the regression average per-sim.
  std::size_t newly_hit = 0;
  for (const auto event : target.targets()) {
    if (result.harvest_phase.stats.hits(event) > 0) ++newly_hit;
  }
  EXPECT_GT(newly_hit, 0u);
  EXPECT_GT(target.value(result.harvest_phase.stats),
            target.value(result.before.stats));
}

TEST_F(IntegrationFlow, FlowIsDeterministicEndToEnd) {
  const duv::IoUnit io;
  exec::ThreadFarm farm_a(3), farm_b(1);
  flow::FlowConfig config = small_config();
  config.sample_templates = 10;
  config.sample_sims = 15;
  config.opt_max_iterations = 2;
  config.harvest_sims = 100;

  coverage::SimStats none(io.space().size());
  const auto target = neighbors::family_target(io.space(), "crc", none);
  const auto suite = io.suite();
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& t : suite) {
    if (t.name() == "io_crc_smoke") seed_tmpl = &t;
  }
  ASSERT_NE(seed_tmpl, nullptr);

  flow::CdgRunner runner_a(io, farm_a, config);
  flow::CdgRunner runner_b(io, farm_b, config);
  const auto a = runner_a.run_from_template(target, *seed_tmpl);
  const auto b = runner_b.run_from_template(target, *seed_tmpl);

  // Identical results regardless of farm thread count.
  EXPECT_EQ(a.sampling.best.front().index, b.sampling.best.front().index);
  EXPECT_EQ(a.optimization.best_point, b.optimization.best_point);
  EXPECT_EQ(a.optimization.best_value, b.optimization.best_value);
  EXPECT_EQ(a.harvest_phase.stats, b.harvest_phase.stats);
  EXPECT_EQ(tgen::to_text(a.best_template), tgen::to_text(b.best_template));
}

// Cross-unit flow contract: the same mini-flow runs on every bundled
// unit and satisfies the invariants the deployment story relies on.
class FlowContract : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::kWarn); }
};

TEST_P(FlowContract, MiniFlowSatisfiesInvariants) {
  const auto unit = duv::make_unit(GetParam());
  ASSERT_NE(unit, nullptr);
  const auto family = std::string(duv::unit_primary_family(GetParam()));
  ASSERT_FALSE(family.empty());

  exec::ThreadFarm farm;
  coverage::CoverageRepository repo(unit->space().size());
  const auto suite = unit->suite();
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(*unit, suite[j], 250, 42 + j));
  }
  const auto target =
      neighbors::family_target(unit->space(), family, repo.total());

  flow::FlowConfig config;
  config.sample_templates = 30;
  config.sample_sims = 25;
  config.opt_directions = 8;
  config.opt_sims_per_point = 60;
  config.opt_max_iterations = 6;
  config.harvest_sims = 800;
  config.seed = 0xF70;
  flow::CdgRunner runner(*unit, farm, config);
  const auto result = runner.run(target, repo, suite);

  // Accounting invariants.
  EXPECT_EQ(result.before.sims, repo.total_sims());
  EXPECT_EQ(result.sampling_phase.sims, 30u * 25u);
  EXPECT_GT(result.optimization_phase.sims, 0u);
  EXPECT_EQ(result.harvest_phase.stats.sims(), 800u);
  // The harvested template is a valid instantiation of the skeleton.
  for (const auto& param : result.best_template.parameters()) {
    EXPECT_NO_THROW(tgen::validate(param));
  }
  EXPECT_EQ(result.best_template.parameter_names().size(),
            result.skeleton.parameters().size());
  // The harvested template beats the regression average per-sim on the
  // approximated target.
  EXPECT_GT(target.value(result.harvest_phase.stats),
            target.value(result.before.stats));
  // The optimizer's best value is at least the sampling start (noise
  // slack 10%).
  EXPECT_GE(result.optimization.best_value,
            result.sampling.best.front().value * 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllUnits, FlowContract,
                         ::testing::Values("io_unit", "l3_cache", "ifu", "lsu"),
                         [](const auto& p) { return std::string(p.param); });

TEST_F(IntegrationFlow, ReportsRenderOnRealFlow) {
  const duv::IoUnit io;
  exec::ThreadFarm farm;
  flow::FlowConfig config = small_config();
  config.sample_templates = 10;
  config.sample_sims = 15;
  config.opt_max_iterations = 2;
  config.harvest_sims = 100;
  coverage::SimStats none(io.space().size());
  const auto target = neighbors::family_target(io.space(), "crc", none);
  const auto suite = io.suite();
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& t : suite) {
    if (t.name() == "io_crc_smoke") seed_tmpl = &t;
  }
  flow::CdgRunner runner(io, farm, config);
  const auto result = runner.run_from_template(target, *seed_tmpl);

  const auto family = io.crc_family();
  const std::vector<coverage::EventId> events(family.begin(), family.end());
  std::ostringstream os;
  report::phase_table(io.space(), events, result).render(os, false);
  report::render_status_bars(os, events, result, false);
  report::render_trace(os, result.optimization);
  os << report::phase_caption(result);
  EXPECT_GT(os.str().size(), 200u);
  EXPECT_NE(os.str().find("crc_096"), std::string::npos);
}

}  // namespace
}  // namespace ascdg
