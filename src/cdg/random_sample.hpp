// The random-sampling phase (paper §IV-D): instantiate n random
// test-templates that uniformly span the skeleton's marks, simulate N
// instances of each, and use the empirical approximated-target values
// to pick the starting point for the optimizer. "This good starting
// point can save the optimization algorithm many iterations of
// wandering in an almost flat area."
//
// It keeps a score, not a simulation record: the templates go to the
// backend a slice at a time, and each sample's statistics are scored
// against every target and dropped, so memory holds one slice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/backend.hpp"
#include "neighbors/neighbors.hpp"
#include "tgen/skeleton.hpp"

namespace ascdg::cdg {

struct RandomSampleOptions {
  std::size_t templates = 200;        ///< n — random templates
  std::size_t sims_per_template = 100;  ///< N — instances per template
  std::uint64_t seed = 1;
};

/// Templates per backend dispatch; results do not depend on it.
extern const std::size_t kSampleSlice;

/// The best sampled template for one scoring target.
struct SampleBest {
  std::size_t index = 0;      ///< in generation order
  double value = 0.0;         ///< the target's T_N over the sample's stats
  std::vector<double> point;  ///< the sample's mark weights
};

struct RandomSampleResult {
  std::size_t templates = 0;          ///< n
  std::size_t sims_per_template = 0;  ///< N
  coverage::SimStats combined;        ///< union over the whole phase
  std::size_t simulations = 0;        ///< n * N
  std::vector<SampleBest> best;       ///< one per scoring target, in order
};

/// Scores sample `index` against every target and keeps it as target
/// t's best when its value beats best[t]'s strictly (an empty `best`
/// takes it): offered in index order, a tie keeps the lowest index.
void keep_best(std::span<const neighbors::ApproximatedTarget> targets,
               std::size_t index, std::span<const double> point,
               const coverage::SimStats& stats, std::vector<SampleBest>& best);

/// Runs the random-sampling phase, scoring every sample against each of
/// `targets`. Throws util::ConfigError for a zero template/sim budget,
/// no target, or a skeleton without marks.
[[nodiscard]] RandomSampleResult random_sample(
    const duv::Duv& duv, exec::Backend& farm, const tgen::Skeleton& skeleton,
    std::span<const neighbors::ApproximatedTarget> targets,
    const RandomSampleOptions& options);

}  // namespace ascdg::cdg
