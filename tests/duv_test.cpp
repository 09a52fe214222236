// Tests for the simulated units: determinism, thread safety of the
// const interface, coverage-space structure, suite validity, and —
// critically — the *coverage physics* each unit must exhibit for the
// paper's experiments to be reproducible (family gradients, parameter
// sensitivity, structurally unhittable events).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "coverage/repository.hpp"
#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "duv/lsu.hpp"
#include "duv/registry.hpp"
#include "tgen/parser.hpp"
#include "util/rng.hpp"

namespace ascdg::duv {
namespace {

coverage::SimStats run_many(const Duv& duv, const tgen::TestTemplate& tmpl,
                            std::size_t n, std::uint64_t seed = 1) {
  coverage::SimStats stats(duv.space().size());
  const util::SeedStream seeds(seed);
  for (std::size_t i = 0; i < n; ++i) {
    stats.record(duv.simulate(tmpl, seeds.at(i)));
  }
  return stats;
}

// Generic per-unit contract, parameterized over the three units.
class UnitContract : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<Duv> make(const std::string& name) {
    if (name == "io_unit") return std::make_unique<IoUnit>();
    if (name == "l3_cache") return std::make_unique<L3Cache>();
    if (name == "lsu") return std::make_unique<Lsu>();
    return std::make_unique<Ifu>();
  }
};

TEST_P(UnitContract, SimulateIsDeterministic) {
  const auto duv = make(GetParam());
  const auto& tmpl = duv->defaults();
  for (std::uint64_t seed : {1ULL, 42ULL, 0xFFFFULL}) {
    const auto a = duv->simulate(tmpl, seed);
    const auto b = duv->simulate(tmpl, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST_P(UnitContract, DifferentSeedsGiveDifferentCoverage) {
  const auto duv = make(GetParam());
  const auto& tmpl = duv->defaults();
  int distinct = 0;
  const auto reference = duv->simulate(tmpl, 0);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    if (!(duv->simulate(tmpl, seed) == reference)) ++distinct;
  }
  EXPECT_GT(distinct, 10);
}

TEST_P(UnitContract, SuiteTemplatesAreValidAndNamed) {
  const auto duv = make(GetParam());
  const auto suite = duv->suite();
  EXPECT_GE(suite.size(), 8u);
  for (const auto& tmpl : suite) {
    EXPECT_FALSE(tmpl.name().empty());
    EXPECT_FALSE(tmpl.empty());
    // Every suite parameter must exist in the defaults (same name).
    for (const auto& name : tmpl.parameter_names()) {
      EXPECT_TRUE(duv->defaults().contains(name))
          << tmpl.name() << " sets unknown parameter " << name;
    }
    // And simulating it must work.
    EXPECT_NO_THROW((void)duv->simulate(tmpl, 7));
  }
}

TEST_P(UnitContract, SuiteNamesAreUnique) {
  const auto duv = make(GetParam());
  const auto suite = duv->suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name(), suite[j].name());
    }
  }
}

TEST_P(UnitContract, ConcurrentSimulationMatchesSerial) {
  const auto duv = make(GetParam());
  const auto& tmpl = duv->defaults();
  constexpr std::size_t kSims = 64;
  const auto serial = run_many(*duv, tmpl, kSims, 99);

  coverage::SimStats parallel_a(duv->space().size());
  coverage::SimStats parallel_b(duv->space().size());
  const util::SeedStream seeds(99);
  std::thread worker([&] {
    for (std::size_t i = 0; i < kSims / 2; ++i) {
      parallel_a.record(duv->simulate(tmpl, seeds.at(i)));
    }
  });
  for (std::size_t i = kSims / 2; i < kSims; ++i) {
    parallel_b.record(duv->simulate(tmpl, seeds.at(i)));
  }
  worker.join();
  parallel_a.merge(parallel_b);
  EXPECT_EQ(parallel_a, serial);
}

TEST_P(UnitContract, SimulationHitsAtLeastOneEvent) {
  const auto duv = make(GetParam());
  const auto vec = duv->simulate(duv->defaults(), 5);
  EXPECT_GT(vec.popcount(), 0u);
}

TEST_P(UnitContract, UnknownParametersInTemplateAreIgnored) {
  const auto duv = make(GetParam());
  const auto tmpl = tgen::parse_template(
      "template weird { weight TotallyUnknownKnob { a: 1, b: 2 } }");
  EXPECT_NO_THROW((void)duv->simulate(tmpl, 3));
}

INSTANTIATE_TEST_SUITE_P(Duv, UnitContract,
                         ::testing::Values("io_unit", "l3_cache", "ifu", "lsu"),
                         [](const auto& p) { return std::string(p.param); });

// ------------------------------------------------------------ registry --

TEST(Registry, AllUnitsConstructible) {
  const auto names = unit_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& name : names) {
    const auto unit = make_unit(name);
    ASSERT_NE(unit, nullptr) << name;
    EXPECT_EQ(unit->name(), name);
    EXPECT_FALSE(unit_description(name).empty());
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_unit("not_a_unit"), nullptr);
  EXPECT_TRUE(unit_description("not_a_unit").empty());
}

// ------------------------------------------------------------- io unit --

TEST(IoUnitPhysics, CrcFamilyDeclaredInOrder) {
  const IoUnit io;
  const auto& family = io.crc_family();
  ASSERT_EQ(family.size(), 6u);
  EXPECT_EQ(io.space().name(family[0]), "crc_004");
  EXPECT_EQ(io.space().name(family[5]), "crc_096");
}

TEST(IoUnitPhysics, FamilyIsMonotoneWithinSimulation) {
  // Invariant: crc_k hit implies crc_j hit for all j < k (thresholds on
  // the same accumulator).
  const IoUnit io;
  const auto tmpl = tgen::parse_template(R"(
    template crc_pusher {
      weight Cmd { crc_write: 80, crc_done: 10, read: 10, write: 0, ctrl: 0, nop: 0, abort: 0 }
      range GapDelay [0, 10]
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
    }
  )");
  const util::SeedStream seeds(11);
  for (std::size_t i = 0; i < 300; ++i) {
    const auto vec = io.simulate(tmpl, seeds.at(i));
    const auto& family = io.crc_family();
    for (std::size_t k = 1; k < family.size(); ++k) {
      if (vec.was_hit(family[k])) {
        EXPECT_TRUE(vec.was_hit(family[k - 1]))
            << "crc threshold " << k << " hit without " << k - 1;
      }
    }
  }
}

TEST(IoUnitPhysics, DefaultsRarelyReachDeepCrc) {
  const IoUnit io;
  const auto stats = run_many(io, io.defaults(), 2000);
  // The deep tail must be (essentially) unreachable with defaults.
  EXPECT_EQ(stats.hits(io.crc_family()[5]), 0u);          // crc_096
  EXPECT_LE(stats.hits(io.crc_family()[4]), 2u);          // crc_064
  // But the shallow end must have some evidence (neighbors exist).
  EXPECT_GT(stats.hits(io.crc_family()[0]), 0u);          // crc_004
}

TEST(IoUnitPhysics, TunedTemplateReachesDeepCrc) {
  const IoUnit io;
  // A hand-written near-optimal template: the existence proof that the
  // hard events are hittable at all (and the shape the optimizer should
  // find automatically).
  const auto tuned = tgen::parse_template(R"(
    template crc_tuned {
      weight Cmd { crc_write: 88, crc_done: 6, read: 6, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange BurstLen { [1, 4]: 0, [5, 8]: 1 }
      subrange GapDelay { [0, 7]: 0, [8, 20]: 1, [21, 63]: 0 }
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
      subrange NumOps { [60, 130]: 0, [131, 160]: 1 }
      subrange CreditLimit { [4, 7]: 0, [8, 8]: 1 }
    }
  )");
  const auto stats = run_many(io, tuned, 1000);
  EXPECT_GT(stats.hit_rate(io.crc_family()[3]), 0.3);  // crc_032 well-hit
  EXPECT_GT(stats.hits(io.crc_family()[4]), 0u);       // crc_064 reachable
  // Gradient: deeper events are strictly rarer (allowing small noise).
  for (std::size_t k = 1; k < 6; ++k) {
    EXPECT_LE(stats.hits(io.crc_family()[k]),
              stats.hits(io.crc_family()[k - 1]));
  }
}

TEST(IoUnitPhysics, ErrorInjectionKillsTransfers) {
  const IoUnit io;
  const auto noisy = tgen::parse_template(R"(
    template crc_errs {
      weight Cmd { crc_write: 88, crc_done: 7, read: 5, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange GapDelay { [0, 16]: 1, [17, 63]: 0 }
      weight ErrInject { off: 50, crc_err: 25, parity_err: 25 }
    }
  )");
  const auto clean = tgen::parse_template(R"(
    template crc_clean {
      weight Cmd { crc_write: 88, crc_done: 7, read: 5, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange GapDelay { [0, 16]: 1, [17, 63]: 0 }
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
    }
  )");
  const auto noisy_stats = run_many(io, noisy, 800);
  const auto clean_stats = run_many(io, clean, 800);
  // Heavy error injection must materially reduce deep-crc coverage.
  EXPECT_LT(noisy_stats.hits(io.crc_family()[3]),
            clean_stats.hits(io.crc_family()[3]) / 2 + 1);
}

TEST(IoUnitPhysics, GapDelayMatters) {
  const IoUnit io;
  const auto short_gaps = tgen::parse_template(R"(
    template g1 {
      weight Cmd { crc_write: 75, crc_done: 8, read: 17, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange GapDelay { [0, 20]: 1, [21, 63]: 0 }
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
    }
  )");
  const auto long_gaps = tgen::parse_template(R"(
    template g2 {
      weight Cmd { crc_write: 75, crc_done: 8, read: 17, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange GapDelay { [0, 20]: 0, [21, 63]: 1 }
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
    }
  )");
  const auto short_stats = run_many(io, short_gaps, 600);
  const auto long_stats = run_many(io, long_gaps, 600);
  EXPECT_GT(short_stats.hits(io.crc_family()[2]),
            long_stats.hits(io.crc_family()[2]));
}

// ------------------------------------------------------------- l3 unit --

TEST(L3Physics, BypFamilyMonotoneWithinSimulation) {
  const L3Cache l3;
  const auto tmpl = tgen::parse_template(R"(
    template byp_pusher {
      weight ReqType { nc_read: 50, dma: 45, read: 5, write: 0, prefetch: 0, castout: 0 }
      range InterArrival [1, 3]
      range RespDelay [80, 96]
    }
  )");
  const util::SeedStream seeds(13);
  for (std::size_t i = 0; i < 200; ++i) {
    const auto vec = l3.simulate(tmpl, seeds.at(i));
    const auto& family = l3.byp_family();
    for (std::size_t k = 1; k < family.size(); ++k) {
      if (vec.was_hit(family[k])) {
        EXPECT_TRUE(vec.was_hit(family[k - 1]));
      }
    }
  }
}

TEST(L3Physics, DefaultsLeaveDeepTailUncovered) {
  const L3Cache l3;
  const auto stats = run_many(l3, l3.defaults(), 2000);
  const auto& family = l3.byp_family();
  EXPECT_GT(stats.hits(family[0]), 0u);          // byp_reqs01 reachable
  EXPECT_EQ(stats.hits(family[12]), 0u);         // byp_reqs13 not with defaults
  EXPECT_EQ(stats.hits(family[15]), 0u);         // byp_reqs16 certainly not
}

TEST(L3Physics, TunedTemplateSustainsHighConcurrency) {
  const L3Cache l3;
  const auto tuned = tgen::parse_template(R"(
    template byp_tuned {
      weight ReqType { nc_read: 50, dma: 48, read: 2, write: 0, prefetch: 0, castout: 0 }
      subrange InterArrival { [1, 2]: 1, [3, 31]: 0 }
      subrange RespDelay { [8, 79]: 0, [80, 96]: 1 }
      subrange NumReqs { [80, 200]: 0, [201, 240]: 1 }
    }
  )");
  const auto stats = run_many(l3, tuned, 1000);
  const auto& family = l3.byp_family();
  EXPECT_GT(stats.hit_rate(family[7]), 0.3);   // byp_reqs08 well hit
  EXPECT_GT(stats.hits(family[11]), 0u);       // byp_reqs12 reachable
  // Gradient along the family.
  for (std::size_t k = 1; k < family.size(); ++k) {
    EXPECT_LE(stats.hits(family[k]), stats.hits(family[k - 1]));
  }
}

TEST(L3Physics, RespDelayDrivesConcurrency) {
  const L3Cache l3;
  const auto slow = tgen::parse_template(R"(
    template s {
      weight ReqType { nc_read: 90, dma: 10, read: 0, write: 0, prefetch: 0, castout: 0 }
      range InterArrival [1, 4]
      subrange RespDelay { [8, 16]: 0, [80, 96]: 1 }
    }
  )");
  const auto fast = tgen::parse_template(R"(
    template f {
      weight ReqType { nc_read: 90, dma: 10, read: 0, write: 0, prefetch: 0, castout: 0 }
      range InterArrival [1, 4]
      subrange RespDelay { [8, 16]: 1, [80, 96]: 0 }
    }
  )");
  const auto slow_stats = run_many(l3, slow, 500);
  const auto fast_stats = run_many(l3, fast, 500);
  EXPECT_GT(slow_stats.hits(l3.byp_family()[9]),
            fast_stats.hits(l3.byp_family()[9]));
}

TEST(L3Physics, WriteQueueFamilyExists) {
  const L3Cache l3;
  const auto wrq = l3.space().family_events("l3_wrq");
  ASSERT_EQ(wrq.size(), L3Cache::kWriteQueueDepth);
  const auto tmpl = tgen::parse_template(R"(
    template w {
      weight ReqType { write: 70, castout: 30, read: 0, prefetch: 0, nc_read: 0, dma: 0 }
      range InterArrival [0, 2]
    }
  )");
  const auto stats = run_many(l3, tmpl, 300);
  EXPECT_GT(stats.hits(wrq[3]), 0u);
}

// ----------------------------------------------------------------- ifu --

TEST(IfuPhysics, CrossProductShape) {
  const Ifu ifu;
  const auto& cp = ifu.cross_product();
  EXPECT_EQ(cp.count, 256u);
  ASSERT_EQ(cp.features.size(), 4u);
  EXPECT_EQ(cp.features[0].name, "entry");
  EXPECT_EQ(cp.features[0].cardinality, 8u);
  EXPECT_EQ(cp.features[3].cardinality, 2u);
}

TEST(IfuPhysics, Entry7IsStructurallyUnhittable) {
  const Ifu ifu;
  // Even a maximally aggressive template must never allocate entry 7.
  const auto aggressive = tgen::parse_template(R"(
    template deep {
      subrange FetchGap { [2, 2]: 1, [3, 15]: 0 }
      weight ICache { hit: 0, miss: 1 }
      subrange MissLatency { [8, 26]: 0, [27, 30]: 1 }
      weight BranchDir { not_taken: 1, taken: 0 }
      weight ThreadSel { 0: 1, 1: 1, 2: 1, 3: 1 }
      weight SectorSel { 0: 1, 1: 1, 2: 1, 3: 1 }
    }
  )");
  const auto stats = run_many(ifu, aggressive, 500);
  const auto& space = ifu.space();
  const auto& cp = ifu.cross_product();
  std::size_t entry7_hits = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        const std::size_t coords[4] = {7, t, s, b};
        entry7_hits += stats.hits(space.cross_event(cp, coords));
      }
    }
  }
  EXPECT_EQ(entry7_hits, 0u);
  // ... while entry 6 IS reachable under this pressure.
  std::size_t entry6_hits = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        const std::size_t coords[4] = {6, t, s, b};
        entry6_hits += stats.hits(space.cross_event(cp, coords));
      }
    }
  }
  EXPECT_GT(entry6_hits, 0u);
}

TEST(IfuPhysics, DefaultsCoverOnlyShallowCorners) {
  const Ifu ifu;
  const auto stats = run_many(ifu, ifu.defaults(), 1500);
  const auto& space = ifu.space();
  const auto& cp = ifu.cross_product();
  // Shallow popular corner: entry0/thread0/sector0/not-taken.
  const std::size_t easy[4] = {0, 0, 0, 0};
  EXPECT_GT(stats.hit_rate(space.cross_event(cp, easy)), 0.5);
  // Deep rare corner: entry6/thread3/sector3/taken never hit by defaults.
  const std::size_t hard[4] = {6, 3, 3, 1};
  EXPECT_EQ(stats.hits(space.cross_event(cp, hard)), 0u);
}

TEST(IfuPhysics, TakenBranchRedirectLimitsDepth) {
  const Ifu ifu;
  const auto branchy = tgen::parse_template(R"(
    template b {
      subrange FetchGap { [2, 3]: 1, [4, 15]: 0 }
      weight ICache { hit: 20, miss: 80 }
      weight BranchDir { not_taken: 20, taken: 80 }
      weight Redirect { off: 0, on: 1 }
    }
  )");
  const auto straight = tgen::parse_template(R"(
    template s {
      subrange FetchGap { [2, 3]: 1, [4, 15]: 0 }
      weight ICache { hit: 20, miss: 80 }
      weight BranchDir { not_taken: 1, taken: 0 }
    }
  )");
  const auto branchy_stats = run_many(ifu, branchy, 400);
  const auto straight_stats = run_many(ifu, straight, 400);
  // Count deep-entry (>= 5) hits under both.
  const auto deep_hits = [&](const coverage::SimStats& stats) {
    std::size_t total = 0;
    for (std::size_t e = 5; e <= 6; ++e) {
      for (std::size_t t = 0; t < 4; ++t) {
        for (std::size_t s = 0; s < 4; ++s) {
          for (std::size_t b = 0; b < 2; ++b) {
            const std::size_t coords[4] = {e, t, s, b};
            total += stats.hits(
                ifu.space().cross_event(ifu.cross_product(), coords));
          }
        }
      }
    }
    return total;
  };
  EXPECT_LT(deep_hits(branchy_stats), deep_hits(straight_stats));
}

// ----------------------------------------------------------------- lsu --

TEST(LsuPhysics, FwdqFamilyMonotoneWithinSimulation) {
  const Lsu lsu;
  const auto tmpl = tgen::parse_template(R"(
    template fwd_pusher {
      weight Mnemonic { load: 30, store: 60, add: 0, sync: 10 }
      weight AddrPattern { same_line: 80, stride: 10, random: 10 }
      range CacheDelay [500, 1000]
    }
  )");
  const util::SeedStream seeds(17);
  for (std::size_t i = 0; i < 200; ++i) {
    const auto vec = lsu.simulate(tmpl, seeds.at(i));
    const auto& family = lsu.fwdq_family();
    for (std::size_t k = 1; k < family.size(); ++k) {
      if (vec.was_hit(family[k])) {
        EXPECT_TRUE(vec.was_hit(family[k - 1]));
      }
    }
  }
}

TEST(LsuPhysics, SuiteContainsTheFigureOneTemplate) {
  // Fig. 1(a) of the paper is a first-class member of the LSU's suite.
  const Lsu lsu;
  const auto suite = lsu.suite();
  const auto it =
      std::find_if(suite.begin(), suite.end(), [](const tgen::TestTemplate& t) {
        return t.name() == "lsu_stress";
      });
  ASSERT_NE(it, suite.end());
  const auto* mnemonic = it->find_weight("Mnemonic");
  ASSERT_NE(mnemonic, nullptr);
  ASSERT_EQ(mnemonic->entries.size(), 4u);
  EXPECT_EQ(mnemonic->entries[2].value.as_symbol(), "add");
  EXPECT_DOUBLE_EQ(mnemonic->entries[2].weight, 0.0);
  const auto* delay = it->find_range("CacheDelay");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->lo, 0);
  EXPECT_EQ(delay->hi, 1000);
}

TEST(LsuPhysics, DefaultsLeaveDeepForwardingUncovered) {
  const Lsu lsu;
  const auto stats = run_many(lsu, lsu.defaults(), 2000);
  const auto& family = lsu.fwdq_family();
  EXPECT_GT(stats.hits(family[0]), 0u);   // shallow forwarding happens
  EXPECT_EQ(stats.hits(family[11]), 0u);  // 12-deep never with defaults
}

TEST(LsuPhysics, TunedTemplateReachesDeepForwarding) {
  const Lsu lsu;
  const auto tuned = tgen::parse_template(R"(
    template fwd_tuned {
      weight Mnemonic { load: 25, store: 70, add: 0, sync: 5 }
      weight AddrPattern { same_line: 95, stride: 0, random: 5 }
      subrange CacheDelay { [0, 750]: 0, [751, 1000]: 1 }
      subrange NumInstr { [100, 250]: 0, [251, 300]: 1 }
    }
  )");
  const auto stats = run_many(lsu, tuned, 800);
  const auto& family = lsu.fwdq_family();
  EXPECT_GT(stats.hit_rate(family[7]), 0.2);  // 8-deep well reachable
  EXPECT_GT(stats.hits(family[10]), 0u);      // 11-deep reachable
  for (std::size_t k = 1; k < family.size(); ++k) {
    EXPECT_LE(stats.hits(family[k]), stats.hits(family[k - 1]));
  }
}

TEST(LsuPhysics, SyncDrainsKillForwardingDepth) {
  const Lsu lsu;
  const auto syncy = tgen::parse_template(R"(
    template s {
      weight Mnemonic { load: 20, store: 40, add: 0, sync: 40 }
      weight AddrPattern { same_line: 90, stride: 0, random: 10 }
      range CacheDelay [500, 1000]
    }
  )");
  const auto calm = tgen::parse_template(R"(
    template c {
      weight Mnemonic { load: 20, store: 40, add: 40, sync: 0 }
      weight AddrPattern { same_line: 90, stride: 0, random: 10 }
      range CacheDelay [500, 1000]
    }
  )");
  const auto syncy_stats = run_many(lsu, syncy, 500);
  const auto calm_stats = run_many(lsu, calm, 500);
  EXPECT_LT(syncy_stats.hits(lsu.fwdq_family()[5]),
            calm_stats.hits(lsu.fwdq_family()[5]));
}

}  // namespace
}  // namespace ascdg::duv
