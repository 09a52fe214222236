// Tests for the derivative-free optimizers: convergence on smooth and
// noisy synthetic objectives (property sweeps over hyperparameters),
// Algorithm-1 semantics (step halving, center resampling), stopping
// criteria, budget accounting, determinism, and config validation.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "opt/baselines.hpp"
#include "opt/implicit_filtering.hpp"
#include "opt/synthetic.hpp"
#include "util/error.hpp"

namespace ascdg::opt {
namespace {

double distance(std::span<const double> a, std::span<const double> b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(total);
}

// ------------------------------------------------- implicit filtering --

TEST(ImplicitFiltering, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.7, 0.3};
  NoisyQuadratic objective(optimum, 0.0);
  ImplicitFilteringOptions options;
  options.max_iterations = 200;
  options.directions = 8;
  options.min_step = 1e-5;
  options.seed = 3;
  const std::vector<double> x0{0.1, 0.9};
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.05);
  EXPECT_GT(result.best_value, 0.99);
}

TEST(ImplicitFiltering, ConvergesUnderBernoulliNoise) {
  // The CDG-shaped noise model: empirical mean of Bernoulli draws.
  const std::vector<double> optimum{0.6, 0.4, 0.5};
  BernoulliHill objective(optimum, 0.8, 4.0, 200);
  ImplicitFilteringOptions options;
  options.max_iterations = 60;
  options.directions = 12;
  options.initial_step = 0.3;
  options.seed = 11;
  const std::vector<double> x0{0.1, 0.9, 0.1};
  const auto result = implicit_filtering(objective, x0, options);
  // Must end up close enough that the true probability is near peak.
  EXPECT_GT(objective.hit_probability(result.best_point), 0.55);
}

TEST(ImplicitFiltering, EmitsOneOptIterTraceEventPerIteration) {
  const std::vector<double> optimum{0.7, 0.3};
  NoisyQuadratic objective(optimum, 0.0);
  std::ostringstream out;
  obs::Tracer tracer(out);
  ImplicitFilteringOptions options;
  options.max_iterations = 6;
  options.directions = 4;
  options.seed = 5;
  options.trace = &tracer;
  options.trace_label = "unit-test";
  const std::vector<double> x0{0.1, 0.9};
  const auto result = implicit_filtering(objective, x0, options);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t iter_lines = 0;
  while (std::getline(lines, line)) {
    ASSERT_NE(line.find("\"event\":\"opt_iter\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"label\":\"unit-test\""), std::string::npos);
    EXPECT_NE(line.find("\"iter\":" + std::to_string(iter_lines)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"objective\":"), std::string::npos);
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_NE(line.find("\"resamples\":"), std::string::npos);
    EXPECT_NE(line.find("\"halved\":"), std::string::npos);
    ++iter_lines;
  }
  EXPECT_EQ(iter_lines, result.trace.size());
  // The emitted series mirrors the in-memory IterationRecord trace.
  for (const auto& record : result.trace) {
    EXPECT_EQ(record.resamples, (options.resample_center &&
                                 record.iteration > 0)
                                    ? 1u
                                    : 0u);
  }
}

TEST(ImplicitFiltering, StepHalvesWhenCenterIsBest) {
  // At the exact optimum of a noiseless bowl, no stencil point improves,
  // so every iteration must halve h until min_step stops the run.
  const std::vector<double> optimum{0.5, 0.5};
  NoisyQuadratic objective(optimum, 0.0);
  ImplicitFilteringOptions options;
  options.initial_step = 0.2;
  options.min_step = 0.04;
  options.max_iterations = 100;
  options.directions = 6;
  options.seed = 5;
  const auto result = implicit_filtering(objective, optimum, options);
  EXPECT_EQ(result.reason, StopReason::kMinStep);
  // 0.2 -> 0.1 -> 0.05 -> 0.025 (<0.04): 3 halvings = 3 iterations.
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_DOUBLE_EQ(result.trace[0].step, 0.2);
  EXPECT_DOUBLE_EQ(result.trace[1].step, 0.1);
  EXPECT_DOUBLE_EQ(result.trace[2].step, 0.05);
  for (const auto& record : result.trace) EXPECT_FALSE(record.moved);
}

TEST(ImplicitFiltering, RespectsMaxEvaluations) {
  NoisyQuadratic objective({0.5}, 0.0);
  CountingObjective counting(objective);
  ImplicitFilteringOptions options;
  options.max_iterations = 1000;
  options.max_evaluations = 37;
  options.min_step = 1e-12;
  options.seed = 7;
  const std::vector<double> x0{0.0};
  const auto result = implicit_filtering(counting, x0, options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(counting.count(), 37u);  // exact: batches truncate to the budget
  EXPECT_EQ(result.evaluations, counting.count());
}

TEST(ImplicitFiltering, StopsAtTargetValue) {
  NoisyQuadratic objective({0.5, 0.5}, 0.0);
  ImplicitFilteringOptions options;
  options.target_value = 0.9;
  options.max_iterations = 500;
  options.min_step = 1e-9;
  options.seed = 9;
  const std::vector<double> x0{0.05, 0.05};
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_EQ(result.reason, StopReason::kTargetReached);
  EXPECT_GE(result.best_value, 0.9);
}

TEST(ImplicitFiltering, DeterministicGivenSeed) {
  BernoulliHill obj_a({0.3, 0.7}, 0.5, 3.0, 50);
  BernoulliHill obj_b({0.3, 0.7}, 0.5, 3.0, 50);
  ImplicitFilteringOptions options;
  options.max_iterations = 20;
  options.seed = 123;
  const std::vector<double> x0{0.5, 0.5};
  const auto a = implicit_filtering(obj_a, x0, options);
  const auto b = implicit_filtering(obj_b, x0, options);
  EXPECT_EQ(a.best_point, b.best_point);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
}

TEST(ImplicitFiltering, StaysInsideBox) {
  NoisyQuadratic objective({2.0, 2.0}, 0.0);  // optimum outside the box
  ImplicitFilteringOptions options;
  options.max_iterations = 100;
  options.seed = 13;
  const std::vector<double> x0{0.5, 0.5};
  const auto result = implicit_filtering(objective, x0, options);
  for (const double v : result.best_point) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Best point should push to the box corner nearest the optimum.
  EXPECT_GT(result.best_point[0], 0.9);
  EXPECT_GT(result.best_point[1], 0.9);
}

TEST(ImplicitFiltering, CoordinateModeAlsoConverges) {
  NoisyQuadratic objective({0.25, 0.75}, 0.0);
  ImplicitFilteringOptions options;
  options.direction_mode = DirectionMode::kCoordinate;
  options.directions = 4;  // covers +-e0, +-e1
  options.max_iterations = 200;
  options.min_step = 1e-5;
  options.seed = 17;
  const std::vector<double> x0{0.9, 0.1};
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_LT(distance(result.best_point, std::vector<double>{0.25, 0.75}), 0.05);
}

TEST(ImplicitFiltering, TraceIsWellFormed) {
  NoisyQuadratic objective({0.5}, 0.05);
  ImplicitFilteringOptions options;
  options.max_iterations = 15;
  options.min_step = 1e-9;
  options.seed = 19;
  const std::vector<double> x0{0.1};
  const auto result = implicit_filtering(objective, x0, options);
  ASSERT_EQ(result.trace.size(), 15u);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i].iteration, i);
    EXPECT_GE(result.trace[i].best_value, result.trace[i].center_value);
    if (i > 0) {
      EXPECT_GT(result.trace[i].evaluations, result.trace[i - 1].evaluations);
    }
  }
}

struct BadOptionsCase {
  const char* label;
  std::size_t directions;
  double initial_step;
  double lower;
  double upper;
  std::size_t x0_dim;
};

// Print the label, not the raw bytes: the struct holds pointers, so the
// default byte dump would put load addresses into the test's name.
void PrintTo(const BadOptionsCase& c, std::ostream* os) { *os << c.label; }

class ImplicitFilteringBadOptions
    : public ::testing::TestWithParam<BadOptionsCase> {};

TEST_P(ImplicitFilteringBadOptions, Throws) {
  const auto& p = GetParam();
  NoisyQuadratic objective({0.5, 0.5}, 0.0);
  ImplicitFilteringOptions options;
  options.directions = p.directions;
  options.initial_step = p.initial_step;
  options.lower = p.lower;
  options.upper = p.upper;
  const std::vector<double> x0(p.x0_dim, 0.5);
  EXPECT_THROW((void)implicit_filtering(objective, x0, options),
               util::ConfigError);
}

INSTANTIATE_TEST_SUITE_P(
    Opt, ImplicitFilteringBadOptions,
    ::testing::Values(
        BadOptionsCase{"zero_directions", 0, 0.25, 0.0, 1.0, 2},
        BadOptionsCase{"zero_step", 8, 0.0, 0.0, 1.0, 2},
        BadOptionsCase{"negative_step", 8, -0.1, 0.0, 1.0, 2},
        BadOptionsCase{"empty_box", 8, 0.25, 1.0, 0.0, 2},
        BadOptionsCase{"dim_mismatch", 8, 0.25, 0.0, 1.0, 3}),
    [](const auto& p) { return p.param.label; });

// Hyperparameter sweep (property): implicit filtering beats its starting
// value on the noisy hill for every (n, h, N) combination in the grid.
struct HyperCase {
  std::size_t directions;
  double step;
  std::size_t samples;
};

class HyperSweep : public ::testing::TestWithParam<HyperCase> {};

TEST_P(HyperSweep, ImprovesOverStart) {
  const auto& p = GetParam();
  const std::vector<double> optimum{0.7, 0.7};
  BernoulliHill objective(optimum, 0.7, 3.0, p.samples);
  const std::vector<double> x0{0.2, 0.2};
  const double start_p = objective.hit_probability(x0);

  ImplicitFilteringOptions options;
  options.directions = p.directions;
  options.initial_step = p.step;
  options.max_iterations = 40;
  options.seed = 31;
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_GT(objective.hit_probability(result.best_point), start_p * 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Opt, HyperSweep,
    ::testing::Values(HyperCase{4, 0.1, 100}, HyperCase{4, 0.3, 100},
                      HyperCase{8, 0.1, 100}, HyperCase{8, 0.3, 400},
                      HyperCase{16, 0.2, 100}, HyperCase{16, 0.3, 25},
                      HyperCase{8, 0.5, 100}, HyperCase{32, 0.25, 50}),
    [](const auto& p) {
      return "n" + std::to_string(p.param.directions) + "_h" +
             std::to_string(static_cast<int>(p.param.step * 100)) + "_N" +
             std::to_string(p.param.samples);
    });

// All direction modes must converge on a moderate-dimension bowl.
class DirectionModes : public ::testing::TestWithParam<DirectionMode> {};

TEST_P(DirectionModes, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.6, 0.4, 0.7, 0.3};
  NoisyQuadratic objective(optimum, 0.0);
  ImplicitFilteringOptions options;
  options.direction_mode = GetParam();
  options.directions = 12;
  options.max_iterations = 300;
  options.min_step = 1e-6;
  options.halve_patience = 2;
  options.seed = 51;
  const std::vector<double> x0{0.1, 0.9, 0.1, 0.9};
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.1)
      << "mode " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Opt, DirectionModes,
    ::testing::Values(DirectionMode::kRandomSphere, DirectionMode::kCoordinate,
                      DirectionMode::kRademacher, DirectionMode::kSparse),
    [](const auto& p) {
      switch (p.param) {
        case DirectionMode::kRandomSphere:
          return "sphere";
        case DirectionMode::kCoordinate:
          return "coordinate";
        case DirectionMode::kRademacher:
          return "rademacher";
        case DirectionMode::kSparse:
          return "sparse";
      }
      return "unknown";
    });

TEST(ImplicitFiltering, HalvePatienceDelaysShrinking) {
  // At the exact optimum of a noiseless bowl nothing improves; with
  // patience 3 the step halves only every 3rd iteration.
  const std::vector<double> optimum{0.5, 0.5};
  NoisyQuadratic objective(optimum, 0.0);
  ImplicitFilteringOptions options;
  options.initial_step = 0.2;
  options.min_step = 0.06;
  options.max_iterations = 100;
  options.directions = 4;
  options.halve_patience = 3;
  options.seed = 5;
  const auto result = implicit_filtering(objective, optimum, options);
  EXPECT_EQ(result.reason, StopReason::kMinStep);
  // 3 stale rounds at 0.2 -> 0.1; 3 more -> 0.05 (< 0.06): 6 iterations.
  ASSERT_EQ(result.trace.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(result.trace[i].step, 0.2);
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(result.trace[i].step, 0.1);
  }
}

TEST(ImplicitFiltering, ZeroPatienceThrows) {
  NoisyQuadratic objective({0.5}, 0.0);
  ImplicitFilteringOptions options;
  options.halve_patience = 0;
  const std::vector<double> x0{0.5};
  EXPECT_THROW((void)implicit_filtering(objective, x0, options),
               util::ConfigError);
}

TEST(ImplicitFiltering, SparseDirectionsAreSparse) {
  // Indirect check: with sparse directions and a separable objective
  // whose optimum differs from the start in ONE coordinate, sparse mode
  // must converge without disturbing the other coordinates much.
  std::vector<double> optimum(8, 0.5);
  optimum[3] = 0.9;
  NoisyQuadratic objective(optimum, 0.0);
  ImplicitFilteringOptions options;
  options.direction_mode = DirectionMode::kSparse;
  options.directions = 8;
  options.max_iterations = 120;
  options.min_step = 1e-6;
  options.seed = 77;
  const std::vector<double> x0(8, 0.5);
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.1);
}

// ------------------------------------------------------------ baselines --

TEST(RandomSearch, FindsDecentPointOnSmoothBowl) {
  NoisyQuadratic objective({0.5, 0.5}, 0.0);
  RandomSearchOptions options;
  options.samples = 500;
  options.seed = 37;
  const auto result = random_search(objective, options);
  EXPECT_EQ(result.evaluations, 500u);
  EXPECT_GT(result.best_value, 0.9);
}

TEST(RandomSearch, ZeroSamplesThrows) {
  NoisyQuadratic objective({0.5}, 0.0);
  RandomSearchOptions options;
  options.samples = 0;
  EXPECT_THROW((void)random_search(objective, options), util::ConfigError);
}

TEST(RandomSearch, BestValueIsMonotoneInTrace) {
  NoisyQuadratic objective({0.5, 0.5}, 0.1);
  RandomSearchOptions options;
  options.samples = 100;
  options.seed = 41;
  const auto result = random_search(objective, options);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].best_value, result.trace[i - 1].best_value);
  }
}

TEST(CoordinateSearch, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.3, 0.6};
  NoisyQuadratic objective(optimum, 0.0);
  CoordinateSearchOptions options;
  options.max_iterations = 200;
  options.min_step = 1e-5;
  const std::vector<double> x0{0.9, 0.1};
  const auto result = coordinate_search(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.05);
}

TEST(CoordinateSearch, DimensionMismatchThrows) {
  NoisyQuadratic objective({0.5, 0.5}, 0.0);
  const std::vector<double> x0{0.5};
  EXPECT_THROW((void)coordinate_search(objective, x0, {}), util::ConfigError);
}

TEST(NelderMead, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.4, 0.6};
  NoisyQuadratic objective(optimum, 0.0);
  NelderMeadOptions options;
  options.max_iterations = 300;
  options.tolerance = 1e-8;
  const std::vector<double> x0{0.9, 0.1};
  const auto result = nelder_mead(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.05);
}

TEST(NelderMead, RespectsBox) {
  NoisyQuadratic objective({3.0, 3.0}, 0.0);
  NelderMeadOptions options;
  options.max_iterations = 200;
  const std::vector<double> x0{0.5, 0.5};
  const auto result = nelder_mead(objective, x0, options);
  for (const double v : result.best_point) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NelderMead, BadScaleThrows) {
  NoisyQuadratic objective({0.5}, 0.0);
  NelderMeadOptions options;
  options.initial_scale = 0.0;
  const std::vector<double> x0{0.5};
  EXPECT_THROW((void)nelder_mead(objective, x0, options), util::ConfigError);
}

TEST(CrossEntropy, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.35, 0.65};
  NoisyQuadratic objective(optimum, 0.0);
  CrossEntropyOptions options;
  options.max_iterations = 60;
  options.seed = 61;
  const std::vector<double> x0{0.9, 0.1};
  const auto result = cross_entropy(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.08);
}

TEST(CrossEntropy, HandlesBernoulliNoise) {
  const std::vector<double> optimum{0.6, 0.4};
  BernoulliHill objective(optimum, 0.7, 3.0, 100);
  CrossEntropyOptions options;
  options.max_iterations = 30;
  options.seed = 63;
  const std::vector<double> x0{0.2, 0.8};
  const auto result = cross_entropy(objective, x0, options);
  EXPECT_GT(objective.hit_probability(result.best_point), 0.4);
}

TEST(CrossEntropy, BadConfigThrows) {
  NoisyQuadratic objective({0.5}, 0.0);
  const std::vector<double> x0{0.5};
  CrossEntropyOptions options;
  options.elite = 0;
  EXPECT_THROW((void)cross_entropy(objective, x0, options), util::ConfigError);
  options = {};
  options.elite = options.population + 1;
  EXPECT_THROW((void)cross_entropy(objective, x0, options), util::ConfigError);
  options = {};
  options.initial_stddev = 0.0;
  EXPECT_THROW((void)cross_entropy(objective, x0, options), util::ConfigError);
}

TEST(CrossEntropy, RespectsEvaluationBudget) {
  NoisyQuadratic objective({0.5, 0.5}, 0.1);
  CountingObjective counting(objective);
  CrossEntropyOptions options;
  options.max_evaluations = 77;
  options.max_iterations = 1000;
  options.min_stddev = 1e-12;
  const std::vector<double> x0{0.2, 0.2};
  const auto result = cross_entropy(counting, x0, options);
  EXPECT_EQ(counting.count(), 77u);  // exact: batches truncate to the budget
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
}

TEST(SimulatedAnnealing, ConvergesOnNoiselessQuadratic) {
  const std::vector<double> optimum{0.7, 0.3};
  NoisyQuadratic objective(optimum, 0.0);
  SimulatedAnnealingOptions options;
  options.max_evaluations = 2000;
  options.seed = 67;
  const std::vector<double> x0{0.1, 0.9};
  const auto result = simulated_annealing(objective, x0, options);
  EXPECT_LT(distance(result.best_point, optimum), 0.1);
  EXPECT_EQ(result.evaluations, 2000u);
}

TEST(SimulatedAnnealing, EscapesLocalPeak) {
  // Two peaks: SA started at the local peak should find the global one
  // reasonably often; assert it at least never does worse than the
  // local value.
  TwoPeaks objective({0.8, 0.8}, {0.2, 0.2}, 0.5, 0.0);
  SimulatedAnnealingOptions options;
  options.max_evaluations = 3000;
  options.initial_temperature = 0.4;
  options.step = 0.25;
  options.seed = 71;
  const std::vector<double> x0{0.2, 0.2};
  const auto result = simulated_annealing(objective, x0, options);
  EXPECT_GT(result.best_value, 0.5);
  EXPECT_GT(objective.true_value(result.best_point), 0.5);
}

TEST(SimulatedAnnealing, BadConfigThrows) {
  NoisyQuadratic objective({0.5}, 0.0);
  const std::vector<double> x0{0.5};
  SimulatedAnnealingOptions options;
  options.cooling = 1.5;
  EXPECT_THROW((void)simulated_annealing(objective, x0, options),
               util::ConfigError);
  options = {};
  options.initial_temperature = 0.0;
  EXPECT_THROW((void)simulated_annealing(objective, x0, options),
               util::ConfigError);
}

// On the flat-spike landscape, local methods started far away are stuck
// at zero — the §IV-A motivation for the approximated target.
TEST(FlatLandscape, LocalSearchFindsNothingWithoutNeighbors) {
  FlatSpike objective({0.9, 0.9}, 0.05, 100);
  ImplicitFilteringOptions options;
  options.max_iterations = 30;
  options.initial_step = 0.1;
  options.seed = 43;
  const std::vector<double> x0{0.1, 0.1};
  const auto result = implicit_filtering(objective, x0, options);
  EXPECT_DOUBLE_EQ(result.best_value, 0.0);
}

// ----------------------------------------------------- batched dispatch --
//
// Every optimizer draws eval seeds in point order from a dedicated
// stream, so whether the objective runs the default scalar loop or a
// native evaluate_batch override must not change the trajectory at all:
// the whole OptResult has to be bit-identical.

void expect_same_result(const OptResult& a, const OptResult& b) {
  EXPECT_EQ(a.best_point, b.best_point);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.reason, b.reason);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    EXPECT_EQ(a.trace[i].center_value, b.trace[i].center_value);
    EXPECT_EQ(a.trace[i].best_value, b.trace[i].best_value);
    EXPECT_EQ(a.trace[i].step, b.trace[i].step);
    EXPECT_EQ(a.trace[i].evaluations, b.trace[i].evaluations);
    EXPECT_EQ(a.trace[i].moved, b.trace[i].moved);
    EXPECT_EQ(a.trace[i].resamples, b.trace[i].resamples);
    EXPECT_EQ(a.trace[i].halved, b.trace[i].halved);
  }
}

// Runs the optimizer twice over identical Bernoulli landscapes — once
// through the scalar dispatch path, once through a native batch override
// that records dispatched batch sizes — and demands identical results
// plus at least one batch of `min_batch` points (proof the optimizer
// really hands whole stencils/populations to the objective).
template <typename Run>
void check_dispatch_equivalence(Run run, std::size_t min_batch) {
  BernoulliHill scalar_inner({0.6, 0.4}, 0.7, 3.0, 40);
  BernoulliHill batched_inner({0.6, 0.4}, 0.7, 3.0, 40);
  ScalarizedObjective scalar(scalar_inner);
  BatchRecordingObjective batched(batched_inner);
  const OptResult a = run(scalar);
  const OptResult b = run(batched);
  expect_same_result(a, b);
  EXPECT_EQ(scalar_inner.draws(), batched_inner.draws());
  EXPECT_GE(batched.max_batch_size(), min_batch);
}

TEST(BatchDispatch, ImplicitFilteringScalarAndBatchedIdentical) {
  ImplicitFilteringOptions options;
  options.max_iterations = 12;
  options.directions = 8;
  options.seed = 101;
  const std::vector<double> x0{0.2, 0.8};
  check_dispatch_equivalence(
      [&](Objective& o) { return implicit_filtering(o, x0, options); },
      options.directions);
}

TEST(BatchDispatch, RandomSearchScalarAndBatchedIdentical) {
  RandomSearchOptions options;
  options.samples = 64;
  options.seed = 103;
  check_dispatch_equivalence(
      [&](Objective& o) { return random_search(o, options); }, 64u);
}

TEST(BatchDispatch, CoordinateSearchScalarAndBatchedIdentical) {
  CoordinateSearchOptions options;
  options.max_iterations = 25;
  options.seed = 107;
  const std::vector<double> x0{0.2, 0.8};
  check_dispatch_equivalence(
      [&](Objective& o) { return coordinate_search(o, x0, options); },
      4u);  // the full +-h stencil in 2-D
}

TEST(BatchDispatch, NelderMeadScalarAndBatchedIdentical) {
  NelderMeadOptions options;
  options.max_iterations = 40;
  options.tolerance = 1e-12;
  options.seed = 109;
  const std::vector<double> x0{0.2, 0.8};
  check_dispatch_equivalence(
      [&](Objective& o) { return nelder_mead(o, x0, options); },
      3u);  // the initial 2-D simplex
}

TEST(BatchDispatch, CrossEntropyScalarAndBatchedIdentical) {
  CrossEntropyOptions options;
  options.max_iterations = 10;
  options.seed = 113;
  const std::vector<double> x0{0.2, 0.8};
  check_dispatch_equivalence(
      [&](Objective& o) { return cross_entropy(o, x0, options); },
      options.population);
}

TEST(BatchDispatch, SimulatedAnnealingScalarAndBatchedIdentical) {
  // SA is inherently sequential (each proposal depends on the previous
  // accept/reject), so it stays on the scalar path — but it must still
  // be indifferent to which wrapper the objective sits behind.
  SimulatedAnnealingOptions options;
  options.max_evaluations = 200;
  options.seed = 127;
  const std::vector<double> x0{0.2, 0.8};
  check_dispatch_equivalence(
      [&](Objective& o) { return simulated_annealing(o, x0, options); }, 1u);
}

TEST(BatchDispatch, DefaultBatchMatchesScalarCallSequence) {
  BernoulliHill via_batch({0.5, 0.5}, 0.6, 2.0, 30);
  BernoulliHill via_scalar({0.5, 0.5}, 0.6, 2.0, 30);
  const std::vector<Point> xs{{0.1, 0.2}, {0.3, 0.4}, {0.1, 0.2}};
  const std::vector<std::uint64_t> seeds{11, 22, 11};
  const std::vector<double> batched = via_batch.evaluate_batch(xs, seeds);
  ASSERT_EQ(batched.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(batched[i], via_scalar.evaluate(xs[i], seeds[i]));
  }
  // Same (point, seed) pair -> same value, per the Objective contract.
  EXPECT_EQ(batched[0], batched[2]);
  EXPECT_EQ(via_batch.draws(), via_scalar.draws());
}

// Budget truncation is exact: batches are cut to the remaining budget
// *before* dispatch, so runs never overshoot max_evaluations and stop
// with exactly the configured count.

TEST(BatchDispatch, CoordinateSearchHitsBudgetExactly) {
  NoisyQuadratic objective({0.4, 0.6}, 0.05);
  CountingObjective counting(objective);
  CoordinateSearchOptions options;
  options.max_iterations = 1000;
  options.max_evaluations = 12;  // 1 center + 2 stencils + a 3-point rump
  options.min_step = 1e-12;
  const std::vector<double> x0{0.9, 0.1};
  const auto result = coordinate_search(counting, x0, options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(result.evaluations, 12u);
  EXPECT_EQ(counting.count(), 12u);
}

TEST(BatchDispatch, NelderMeadHitsBudgetExactly) {
  NoisyQuadratic objective({0.4, 0.6}, 0.05);
  CountingObjective counting(objective);
  NelderMeadOptions options;
  options.max_iterations = 1000;
  options.max_evaluations = 10;
  options.tolerance = 0.0;  // never converge: only the budget can stop it
  const std::vector<double> x0{0.9, 0.1};
  const auto result = nelder_mead(counting, x0, options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(result.evaluations, 10u);
  EXPECT_EQ(counting.count(), 10u);
}

TEST(BatchDispatch, NelderMeadBudgetSmallerThanSimplexTruncates) {
  NoisyQuadratic objective({0.4, 0.6, 0.5}, 0.0);
  CountingObjective counting(objective);
  NelderMeadOptions options;
  options.max_evaluations = 2;  // < dim + 1 = 4 initial vertices
  const std::vector<double> x0{0.9, 0.1, 0.5};
  const auto result = nelder_mead(counting, x0, options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(result.evaluations, 2u);
  EXPECT_EQ(counting.count(), 2u);
  EXPECT_FALSE(result.best_point.empty());
}

TEST(BatchDispatch, CrossEntropyHitsBudgetExactly) {
  NoisyQuadratic objective({0.5, 0.5}, 0.1);
  CountingObjective counting(objective);
  CrossEntropyOptions options;
  options.max_evaluations = 77;  // 2 full generations of 30 + a rump of 17
  options.max_iterations = 1000;
  options.min_stddev = 1e-12;
  const std::vector<double> x0{0.2, 0.2};
  const auto result = cross_entropy(counting, x0, options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(result.evaluations, 77u);
  EXPECT_EQ(counting.count(), 77u);
}

TEST(BatchDispatch, ZeroBudgetReturnsWithoutEvaluating) {
  NoisyQuadratic objective({0.5, 0.5}, 0.0);
  CountingObjective counting(objective);
  const std::vector<double> x0{0.2, 0.2};

  ImplicitFilteringOptions if_options;
  if_options.max_evaluations = 0;
  auto result = implicit_filtering(counting, x0, if_options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(counting.count(), 0u);

  CoordinateSearchOptions cs_options;
  cs_options.max_evaluations = 0;
  result = coordinate_search(counting, x0, cs_options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(counting.count(), 0u);

  SimulatedAnnealingOptions sa_options;
  sa_options.max_evaluations = 0;
  result = simulated_annealing(counting, x0, sa_options);
  EXPECT_EQ(result.reason, StopReason::kMaxEvaluations);
  EXPECT_EQ(counting.count(), 0u);
}

// ------------------------------------------------------------ synthetic --

TEST(Synthetic, BernoulliHillNoiseSeedStable) {
  BernoulliHill objective({0.5}, 0.5, 2.0, 100);
  const std::vector<double> x{0.4};
  EXPECT_DOUBLE_EQ(objective.evaluate(x, 9), objective.evaluate(x, 9));
  EXPECT_EQ(objective.draws(), 200u);
}

TEST(Synthetic, TwoPeaksGlobalHigherThanLocal) {
  TwoPeaks objective({0.8, 0.8}, {0.2, 0.2}, 0.5, 0.0);
  const std::vector<double> at_global{0.8, 0.8};
  const std::vector<double> at_local{0.2, 0.2};
  EXPECT_GT(objective.true_value(at_global), objective.true_value(at_local));
  EXPECT_NEAR(objective.true_value(at_local), 0.5, 1e-9);
}

TEST(Synthetic, QuadraticNoiseAveragesOut) {
  NoisyQuadratic objective({0.5}, 0.2);
  const std::vector<double> x{0.5};
  double total = 0.0;
  for (std::uint64_t s = 0; s < 2000; ++s) total += objective.evaluate(x, s);
  EXPECT_NEAR(total / 2000.0, 1.0, 0.02);
}

}  // namespace
}  // namespace ascdg::opt
