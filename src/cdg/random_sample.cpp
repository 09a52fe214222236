#include "cdg/random_sample.hpp"

#include <algorithm>
#include <utility>

#include "cdg/cdg_objective.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::cdg {

// closure_bench ifu-fine (5000 templates x 4 sims, 4 threads, 4-core
// Xeon): peak RSS 5.4-5.6 MB at 64, 5.8-5.9 MB at 256 and 8.6-8.7 MB
// at 1024 templates per slice, against 24.9 MB for one dispatch of all
// 5000; flow wall time could not be told apart between these sizes.
const std::size_t kSampleSlice = 256;

void keep_best(std::span<const neighbors::ApproximatedTarget> targets,
               std::size_t index, std::span<const double> point,
               const coverage::SimStats& stats, std::vector<SampleBest>& best) {
  const bool first = best.empty();
  if (first) best.resize(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double value = targets[t].value(stats);
    if (first || value > best[t].value) {
      best[t] = {index, value, {point.begin(), point.end()}};
    }
  }
}

RandomSampleResult random_sample(
    const duv::Duv& duv, exec::Backend& farm, const tgen::Skeleton& skeleton,
    std::span<const neighbors::ApproximatedTarget> targets,
    const RandomSampleOptions& options) {
  if (options.templates == 0 || options.sims_per_template == 0) {
    throw util::ConfigError("random sample needs a non-zero budget");
  }
  if (targets.empty()) {
    throw util::ConfigError("random sample needs a target to score");
  }
  const std::size_t dim = skeleton.mark_count();
  if (dim == 0) {
    throw util::ConfigError("random sample over a skeleton with no marks");
  }

  util::Xoshiro256 rng(options.seed);
  util::SeedStream job_seeds(options.seed ^ 0x5A3B1E5EEDULL);

  // One rng and seed stream draw the points in generation order, a
  // slice per farm dispatch; the objective's totals span every slice.
  CdgObjective objective(duv, farm, skeleton, targets.front(),
                         options.sims_per_template);
  std::vector<SampleBest> best;
  std::vector<opt::Point> points;
  std::vector<std::uint64_t> seeds;
  for (std::size_t first = 0; first < options.templates;
       first += points.size()) {
    points.assign(std::min(kSampleSlice, options.templates - first),
                  opt::Point(dim));
    seeds.clear();
    for (opt::Point& point : points) {
      for (double& w : point) w = rng.uniform();
      seeds.push_back(job_seeds.next());
    }
    const auto evals = objective.evaluate_batch_full(points, seeds);
    for (std::size_t i = 0; i < points.size(); ++i) {
      keep_best(targets, first + i, points[i], evals[i].stats, best);
    }
  }
  return {options.templates, options.sims_per_template, objective.combined(),
          objective.simulations(), std::move(best)};
}

}  // namespace ascdg::cdg
