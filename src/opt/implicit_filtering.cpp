#include "opt/implicit_filtering.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_state.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace ascdg::opt {

namespace {

void check_options(const Objective& objective, std::span<const double> x0,
                   const ImplicitFilteringOptions& options) {
  if (options.directions == 0) {
    throw util::ConfigError("implicit filtering needs at least one direction");
  }
  if (options.halve_patience == 0) {
    throw util::ConfigError("implicit filtering halve_patience must be >= 1");
  }
  if (!(options.initial_step > 0.0) || !(options.min_step > 0.0)) {
    throw util::ConfigError("implicit filtering steps must be positive");
  }
  if (!(options.lower < options.upper)) {
    throw util::ConfigError("implicit filtering box is empty (lower >= upper)");
  }
  if (x0.size() != objective.dimension()) {
    throw util::ConfigError(
        "starting point dimension " + std::to_string(x0.size()) +
        " != objective dimension " + std::to_string(objective.dimension()));
  }
  if (objective.dimension() == 0) {
    throw util::ConfigError("objective has zero dimension");
  }
}

std::vector<double> clamped(std::span<const double> x, double lo, double hi) {
  std::vector<double> out(x.begin(), x.end());
  for (double& v : out) v = std::clamp(v, lo, hi);
  return out;
}

/// One stencil direction: either a random unit vector or +-e_i.
std::vector<double> make_direction(DirectionMode mode, std::size_t index,
                                   std::size_t dim, util::Xoshiro256& rng) {
  std::vector<double> d(dim, 0.0);
  if (mode == DirectionMode::kCoordinate) {
    // 2*dim stencil points cycled: +e0, -e0, +e1, -e1, ...
    const std::size_t axis = (index / 2) % dim;
    d[axis] = (index % 2 == 0) ? 1.0 : -1.0;
    return d;
  }
  if (mode == DirectionMode::kRademacher) {
    for (double& v : d) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
    return d;
  }
  if (mode == DirectionMode::kSparse) {
    bool any = false;
    while (!any) {
      for (double& v : d) {
        if (rng.bernoulli(0.25)) {
          v = rng.bernoulli(0.5) ? 1.0 : -1.0;
          any = true;
        } else {
          v = 0.0;
        }
      }
    }
    return d;
  }
  double norm = 0.0;
  do {
    norm = 0.0;
    for (double& v : d) {
      v = rng.normal();
      norm += v * v;
    }
  } while (norm == 0.0);
  norm = std::sqrt(norm);
  for (double& v : d) v /= norm;
  return d;
}

}  // namespace

OptResult implicit_filtering(Objective& objective, std::span<const double> x0,
                             const ImplicitFilteringOptions& options) {
  check_options(objective, x0, options);
  const std::size_t dim = objective.dimension();
  util::Xoshiro256 rng(options.seed);
  std::uint64_t seed_state = options.seed ^ 0xA5CD6F11E51D5EEDULL;
  util::SeedStream eval_seeds(util::splitmix64_next(seed_state));

  // Process-wide convergence books (registration is cold; the handles'
  // mutators are wait-free).
  obs::Registry& reg = obs::registry();
  obs::Counter& m_iterations = reg.counter("ascdg_opt_iterations_total");
  obs::Counter& m_evaluations = reg.counter("ascdg_opt_evaluations_total");
  obs::Counter& m_halvings = reg.counter("ascdg_opt_step_halvings_total");
  obs::Counter& m_resamples = reg.counter("ascdg_opt_center_resamples_total");

  OptResult result;
  std::vector<double> center = clamped(x0, options.lower, options.upper);
  double h = options.initial_step;
  double center_value = 0.0;
  std::size_t stale_rounds = 0;
  std::size_t start_iteration = 0;

  // All evaluations go through one batched dispatch: eval seeds are
  // drawn sequentially in point order, so the trajectory is identical
  // whether the objective implements evaluate_batch natively or falls
  // back to the scalar loop. Batches are truncated to the remaining
  // budget before dispatch, so `evaluations` never exceeds
  // max_evaluations and OptResult reports the exact count.
  std::size_t evaluations = 0;
  const auto sample_batch = [&](std::span<const Point> points) {
    std::vector<std::uint64_t> seeds(points.size());
    for (auto& seed : seeds) seed = eval_seeds.next();
    auto values = objective.evaluate_batch(points, seeds);
    evaluations += points.size();
    m_evaluations.add(points.size());
    return values;
  };

  result.best_point = center;
  result.reason = StopReason::kMaxIterations;
  if (options.max_evaluations == 0) {
    result.reason = StopReason::kMaxEvaluations;
    return result;
  }
  if (options.resume != nullptr) {
    // Warm start: restore the complete iteration state, including the
    // direction generator and the eval-seed counter, so the resumed
    // trajectory is indistinguishable from the uninterrupted one.
    const IfCheckpoint& ckpt = *options.resume;
    if (ckpt.center.size() != dim) {
      throw util::ConfigError(
          "implicit filtering resume: checkpoint dimension " +
          std::to_string(ckpt.center.size()) + " != objective dimension " +
          std::to_string(dim));
    }
    start_iteration = ckpt.next_iteration;
    center = clamped(ckpt.center, options.lower, options.upper);
    center_value = ckpt.center_value;
    h = ckpt.step;
    stale_rounds = ckpt.stale_rounds;
    evaluations = ckpt.evaluations;
    result.best_point = ckpt.best_point;
    result.best_value = ckpt.best_value;
    result.trace = ckpt.trace;
    rng.restore(ckpt.rng_state);
    eval_seeds = util::SeedStream(eval_seeds.root(), ckpt.eval_seed_counter);
    // Re-apply the stop conditions the checkpointed iteration may have
    // already triggered (the original run breaks before checkpointing
    // again, so the decision must be reproduced here).
    if (options.target_value.has_value() &&
        center_value >= *options.target_value) {
      result.reason = StopReason::kTargetReached;
      result.evaluations = evaluations;
      return result;
    }
    if (h < options.min_step) {
      result.reason = StopReason::kMinStep;
      result.evaluations = evaluations;
      return result;
    }
    if (evaluations >= options.max_evaluations) {
      result.reason = StopReason::kMaxEvaluations;
      result.evaluations = evaluations;
      return result;
    }
  } else {
    center_value = sample_batch({&center, 1}).front();
    result.best_value = center_value;
  }

  for (std::size_t iter = start_iteration; iter < options.max_iterations;
       ++iter) {
    if (evaluations >= options.max_evaluations) {
      result.reason = StopReason::kMaxEvaluations;
      break;
    }
    // Assemble the iteration's whole batch: the resampled center (noise
    // modification #2) followed by the stencil, truncated to the budget.
    const bool resample = options.resample_center && iter > 0;
    std::size_t budget = options.max_evaluations - evaluations;
    std::vector<Point> batch;
    batch.reserve(std::min(options.directions, budget) + 1);
    if (resample) {
      batch.push_back(center);
      --budget;
    }
    const std::size_t n_dirs = std::min(options.directions, budget);
    for (std::size_t d = 0; d < n_dirs; ++d) {
      const auto direction =
          make_direction(options.direction_mode,
                         iter * options.directions + d, dim, rng);
      Point candidate(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        candidate[i] =
            std::clamp(center[i] + h * direction[i], options.lower, options.upper);
      }
      batch.push_back(std::move(candidate));
    }
    const std::vector<double> values = sample_batch(batch);

    std::size_t resamples = 0;
    std::size_t first_candidate = 0;
    if (resample) {
      center_value = values[0];
      first_candidate = 1;
      resamples = 1;
      m_resamples.inc();
    }

    double best = center_value;
    std::vector<double> next_center = center;
    bool moved = false;
    for (std::size_t k = first_candidate; k < values.size(); ++k) {
      if (values[k] > best) {
        best = values[k];
        next_center = batch[k];
        moved = true;
      }
    }

    if (best > result.best_value) {
      result.best_value = best;
      result.best_point = next_center;
    }

    const double step_this_iter = h;
    bool halved = false;
    if (!moved) {
      if (++stale_rounds >= options.halve_patience) {
        h /= 2.0;
        stale_rounds = 0;
        halved = true;
        m_halvings.inc();
      }
    } else {
      stale_rounds = 0;
      center = std::move(next_center);
      center_value = best;
    }

    result.trace.push_back({iter, center_value, best, step_this_iter,
                            evaluations, moved, resamples, halved});
    m_iterations.inc();
    // Heartbeat for /runz.
    obs::run_state().set_optimizer(iter, center_value);
    if (options.trace != nullptr) {
      // Note center_value here is the *post-move* objective — the value
      // the next iteration starts from, i.e. the convergence curve.
      options.trace->emit(util::JsonObject{}
                              .add("event", "opt_iter")
                              .add("label", options.trace_label)
                              .add("iter", iter)
                              .add("objective", center_value)
                              .add("best", best)
                              .add("step", step_this_iter)
                              .add("evals", evaluations)
                              .add("moved", moved)
                              .add("resamples", resamples)
                              .add("halved", halved));
    }

    if (options.on_checkpoint) {
      IfCheckpoint ckpt;
      ckpt.next_iteration = iter + 1;
      ckpt.center = center;
      ckpt.center_value = center_value;
      ckpt.step = h;
      ckpt.stale_rounds = stale_rounds;
      ckpt.evaluations = evaluations;
      ckpt.best_point = result.best_point;
      ckpt.best_value = result.best_value;
      ckpt.trace = result.trace;
      ckpt.rng_state = rng.state();
      ckpt.eval_seed_counter = eval_seeds.counter();
      options.on_checkpoint(ckpt);
    }

    if (options.target_value.has_value() && center_value >= *options.target_value) {
      result.reason = StopReason::kTargetReached;
      break;
    }
    if (h < options.min_step) {
      result.reason = StopReason::kMinStep;
      break;
    }
    if (evaluations >= options.max_evaluations) {
      result.reason = StopReason::kMaxEvaluations;
      break;
    }
  }

  result.evaluations = evaluations;
  return result;
}

}  // namespace ascdg::opt
