// Batch-of-seeds regression suite: Duv::simulate_batch must be
// bit-identical to the scalar simulate() path — for every unit, at every
// batch width, with and without precompiled tables, and through the
// thread farm at any worker count. This is the non-negotiable determinism
// contract of the batch path: instance i's coverage is a pure
// function of (seed_root, i), and batching is an execution detail, never
// an observable one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cdg/skeletonizer.hpp"
#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "duv/registry.hpp"
#include "exec/thread_farm.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::duv {
namespace {

constexpr std::uint64_t kSeedRoot = 0xB5;

/// The batch widths every equivalence test sweeps: a single seed, a
/// width that is neither 1 nor a power of two, and the farm's full
/// chunk width.
constexpr std::size_t kWidths[] = {1, 7, 64};

std::vector<std::uint64_t> make_seeds(std::size_t n,
                                      std::uint64_t root = kSeedRoot) {
  const util::SeedStream stream(root);
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = stream.at(i);
  return seeds;
}

std::vector<coverage::CoverageVector> run_batch(
    const Duv& duv, const tgen::TestTemplate& tmpl,
    const Duv::Compiled* compiled, std::span<const std::uint64_t> seeds) {
  std::vector<coverage::CoverageVector> out(seeds.size());
  duv.simulate_batch(tmpl, compiled, seeds,
                     std::span<coverage::CoverageVector>(out));
  return out;
}

/// Every template worth sweeping for a unit: the defaults plus the
/// whole regression suite (which exercises weight/range overrides,
/// zero-weight entries, and int-valued weights).
std::vector<tgen::TestTemplate> templates_under_test(const Duv& duv) {
  std::vector<tgen::TestTemplate> tmpls = duv.suite();
  tmpls.push_back(duv.defaults());
  return tmpls;
}

class BatchEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchEquivalence, BatchMatchesScalarAtAllWidths) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  for (const tgen::TestTemplate& tmpl : templates_under_test(*duv)) {
    for (const std::size_t width : kWidths) {
      const auto seeds = make_seeds(width);
      const auto batch = run_batch(*duv, tmpl, nullptr, seeds);
      for (std::size_t i = 0; i < width; ++i) {
        EXPECT_EQ(batch[i], duv->simulate(tmpl, seeds[i]))
            << duv->name() << "/" << tmpl.name() << " width " << width
            << " seed " << i;
      }
    }
  }
}

TEST_P(BatchEquivalence, PrecompiledTablesMatchScalar) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  for (const tgen::TestTemplate& tmpl : templates_under_test(*duv)) {
    const auto compiled = duv->compile(tmpl);
    ASSERT_NE(compiled, nullptr) << duv->name() << " should compile tables";
    for (const std::size_t width : kWidths) {
      const auto seeds = make_seeds(width);
      const auto batch = run_batch(*duv, tmpl, compiled.get(), seeds);
      for (std::size_t i = 0; i < width; ++i) {
        EXPECT_EQ(batch[i], duv->simulate(tmpl, seeds[i]))
            << duv->name() << "/" << tmpl.name() << " width " << width
            << " seed " << i;
      }
    }
  }
}

TEST_P(BatchEquivalence, CompiledTablesAreReusableAcrossBatches) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const tgen::TestTemplate tmpl = duv->defaults();
  const auto compiled = duv->compile(tmpl);
  // Two disjoint seed ranges through the same tables, back to back —
  // the farm reuses one compile() result for every chunk of a job.
  const auto first = make_seeds(7, 11);
  const auto second = make_seeds(7, 22);
  const auto batch_a = run_batch(*duv, tmpl, compiled.get(), first);
  const auto batch_b = run_batch(*duv, tmpl, compiled.get(), second);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(batch_a[i], duv->simulate(tmpl, first[i]));
    EXPECT_EQ(batch_b[i], duv->simulate(tmpl, second[i]));
  }
}

TEST_P(BatchEquivalence, BatchOverwritesStaleOutputState) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const tgen::TestTemplate tmpl = duv->defaults();
  const auto stale = make_seeds(7, 99);
  const auto seeds = make_seeds(7);
  // Dirty the output vectors with another batch first: the second call
  // must fully overwrite them (the farm's per-worker workspaces recycle the
  // same vectors chunk after chunk).
  std::vector<coverage::CoverageVector> out(7);
  duv->simulate_batch(tmpl, nullptr, stale,
                      std::span<coverage::CoverageVector>(out));
  duv->simulate_batch(tmpl, nullptr, seeds,
                      std::span<coverage::CoverageVector>(out));
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i], duv->simulate(tmpl, seeds[i])) << "seed " << i;
  }
}

TEST_P(BatchEquivalence, FarmIsWorkerCountAndBatchInvariant) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const tgen::TestTemplate tmpl = duv->defaults();
  // 150 sims: two full 64-wide chunks plus a 22-wide tail.
  constexpr std::size_t kCount = 150;

  coverage::SimStats reference(duv->space().size());
  const util::SeedStream stream(kSeedRoot);
  for (std::size_t i = 0; i < kCount; ++i) {
    reference.record(duv->simulate(tmpl, stream.at(i)));
  }

  exec::ThreadFarm one(1);
  exec::ThreadFarm eight(8);
  const coverage::SimStats serial = one.run(*duv, tmpl, kCount, kSeedRoot);
  const coverage::SimStats pooled = eight.run(*duv, tmpl, kCount, kSeedRoot);
  EXPECT_EQ(serial, reference);
  EXPECT_EQ(pooled, reference);
}

TEST_P(BatchEquivalence, FarmRunAllMatchesScalarReferencePerJob) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const std::vector<tgen::TestTemplate> suite = duv->suite();
  ASSERT_FALSE(suite.empty());

  std::vector<exec::Job> jobs;
  for (std::size_t j = 0; j < suite.size(); ++j) {
    // Deliberately not a multiple of the chunk width.
    jobs.push_back({&suite[j], 70, kSeedRoot + j});
  }

  exec::ThreadFarm farm(8);
  const auto results = farm.run_all(*duv, jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    coverage::SimStats reference(duv->space().size());
    const util::SeedStream stream(jobs[j].seed_root);
    for (std::size_t i = 0; i < jobs[j].count; ++i) {
      reference.record(duv->simulate(*jobs[j].tmpl, stream.at(i)));
    }
    EXPECT_EQ(results[j], reference) << "job " << j;
  }
}

/// Points that exercise every branch of Skeleton::weights: random
/// interior points, the all-zero point (every marked parameter falls
/// back to uniform), and points with -0 and negative coordinates
/// (clamped to zero).
std::vector<std::vector<double>> points_under_test(std::size_t dim,
                                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> point(dim);
    for (double& x : point) x = rng.uniform();
    points.push_back(std::move(point));
  }
  points.emplace_back(dim, 0.0);
  points.emplace_back(dim, -0.0);
  std::vector<double> signs(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    signs[i] = i % 3 == 0 ? -rng.uniform() : i % 3 == 1 ? -0.0 : rng.uniform();
  }
  points.push_back(std::move(signs));
  return points;
}

// A tuned point's job is the skeleton's base template plus the point's
// weights: compiling the base once and reweighting the tables must
// simulate exactly what compiling the instantiated template does, for
// every point in a row over the same tables, and again after the
// worker's tables moved to a job of another base (exec::JobTables, the
// farms' per-worker cache).
TEST_P(BatchEquivalence, ReweightedTablesMatchTheInstantiatedTemplate) {
  const auto duv = make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const cdg::Skeletonizer skeletonizer;
  const std::vector<tgen::Skeleton> skeletons{
      skeletonizer.skeletonize(duv->defaults()),
      skeletonizer.skeletonize(duv->suite().front())};
  std::vector<tgen::TestTemplate> bases;
  for (const tgen::Skeleton& skel : skeletons) {
    ASSERT_GT(skel.mark_count(), 0u) << skel.name();
    bases.push_back(skel.base(skel.name()));
  }
  const auto seeds = make_seeds(64);
  const auto expect_instantiated = [&](std::size_t b,
                                       const std::vector<double>& point,
                                       const tgen::TestTemplate& tmpl,
                                       const Duv::Compiled* tables) {
    const tgen::TestTemplate concrete =
        skeletons[b].instantiate("concrete", point);
    const auto want =
        run_batch(*duv, concrete, duv->compile(concrete).get(), seeds);
    EXPECT_EQ(run_batch(*duv, tmpl, tables, seeds), want)
        << duv->name() << "/" << skeletons[b].name();
  };

  // One compiled base, reweighted point after point.
  for (std::size_t b = 0; b < skeletons.size(); ++b) {
    const auto compiled = duv->compile(bases[b]);
    ASSERT_NE(compiled, nullptr);
    for (const auto& point :
         points_under_test(skeletons[b].mark_count(), 7 + b)) {
      ASSERT_TRUE(compiled->reweight(skeletons[b].weights(point)));
      expect_instantiated(b, point, bases[b], compiled.get());
    }
  }

  // A worker's tables alternating between the two bases' jobs.
  exec::JobTables tables;
  const auto points0 = points_under_test(skeletons[0].mark_count(), 21);
  const auto points1 = points_under_test(skeletons[1].mark_count(), 22);
  for (std::size_t i = 0; i < points0.size(); ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      const auto& point = b == 0 ? points0[i] : points1[i];
      const std::vector<double> weights = skeletons[b].weights(point);
      const tgen::TestTemplate& tmpl = tables.load(*duv, bases[b], weights);
      EXPECT_EQ(&tmpl, &bases[b]);
      expect_instantiated(b, point, tmpl, tables.compiled());
    }
  }
  // A weight vector of the wrong length is a ValidationError.
  const auto compiled = duv->compile(bases[0]);
  EXPECT_THROW(
      (void)compiled->reweight(std::vector<double>(bases[0].weight_count() + 1)),
      util::ValidationError);
}

INSTANTIATE_TEST_SUITE_P(AllUnits, BatchEquivalence,
                         ::testing::Values("ifu", "lsu", "io_unit",
                                           "l3_cache"));

// --- Scalar-fallback contract ----------------------------------------
// A wrapper around a real RTL simulator implements only simulate();
// the inherited simulate_batch must route through it unchanged and the
// farm must accept the nullptr compile() result (docs/porting.md).

class ScalarOnlyDuv final : public Duv {
 public:
  ScalarOnlyDuv() : defaults_("scalar_only_defaults") {
    for (int e = 0; e < 8; ++e) {
      events_.push_back(space_.declare_event("ev" + std::to_string(e)));
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "scalar_only";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate&, std::uint64_t seed) const override {
    coverage::CoverageVector vec(space_.size());
    util::Xoshiro256 rng(seed);
    vec.hit(events_[static_cast<std::size_t>(
        rng.uniform_i64(0, static_cast<std::int64_t>(events_.size()) - 1))]);
    return vec;
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return {defaults_};
  }

 private:
  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> events_;
};

TEST(ScalarFallback, CompileReturnsNullAndBatchFallsBackToScalar) {
  const ScalarOnlyDuv duv;
  EXPECT_EQ(duv.compile(duv.defaults()), nullptr);
  const auto seeds = make_seeds(7);
  const auto batch = run_batch(duv, duv.defaults(), nullptr, seeds);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batch[i], duv.simulate(duv.defaults(), seeds[i]));
  }
}

TEST(ScalarFallback, FarmRunsAScalarOnlyUnit) {
  const ScalarOnlyDuv duv;
  coverage::SimStats reference(duv.space().size());
  const util::SeedStream stream(kSeedRoot);
  for (std::size_t i = 0; i < 150; ++i) {
    reference.record(duv.simulate(duv.defaults(), stream.at(i)));
  }
  exec::ThreadFarm farm(8);
  EXPECT_EQ(farm.run(duv, duv.defaults(), 150, kSeedRoot), reference);
}

}  // namespace
}  // namespace ascdg::duv
