#include "cdg/random_sample.hpp"

#include "cdg/cdg_objective.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::cdg {

RandomSampleResult random_sample(const duv::Duv& duv, exec::Backend& farm,
                                 const tgen::Skeleton& skeleton,
                                 const neighbors::ApproximatedTarget& target,
                                 const RandomSampleOptions& options) {
  if (options.templates == 0 || options.sims_per_template == 0) {
    throw util::ConfigError("random sample needs a non-zero budget");
  }
  const std::size_t dim = skeleton.mark_count();
  if (dim == 0) {
    throw util::ConfigError("random sample over a skeleton with no marks");
  }

  util::Xoshiro256 rng(options.seed);
  util::SeedStream job_seeds(options.seed ^ 0x5A3B1E5EEDULL);

  // Generate the n random points up front, then evaluate them through
  // the CdgObjective batch path: one farm dispatch covers the whole
  // phase, and the objective's bookkeeping (per-point stats, combined
  // coverage, simulation count) replaces the bespoke job assembly this
  // phase used to carry.
  std::vector<opt::Point> points(options.templates);
  std::vector<std::uint64_t> seeds(options.templates);
  for (std::size_t t = 0; t < options.templates; ++t) {
    points[t].resize(dim);
    for (double& w : points[t]) w = rng.uniform();
    seeds[t] = job_seeds.next();
  }

  CdgObjective objective(duv, farm, skeleton, target,
                         options.sims_per_template, nullptr, "rand");
  auto evals = objective.evaluate_batch_full(points, seeds);

  RandomSampleResult result;
  result.combined = objective.combined();
  result.samples.reserve(options.templates);
  for (std::size_t t = 0; t < options.templates; ++t) {
    result.samples.push_back({std::move(points[t]), std::move(evals[t].stats),
                              evals[t].value});
    if (evals[t].value > result.samples[result.best_index].target_value) {
      result.best_index = t;
    }
  }
  result.simulations = objective.simulations();
  return result;
}

}  // namespace ascdg::cdg
