#include "cdg/cdg_objective.hpp"

#include <utility>

#include "util/error.hpp"

namespace ascdg::cdg {

CdgObjective::CdgObjective(const duv::Duv& duv, exec::Backend& farm,
                           const tgen::Skeleton& skeleton,
                           const neighbors::ApproximatedTarget& target,
                           std::size_t sims_per_point, obs::Tracer* trace)
    : duv_(&duv),
      farm_(&farm),
      skeleton_(&skeleton),
      target_(&target),
      sims_per_point_(sims_per_point),
      trace_(trace),
      combined_(duv.space().size()),
      m_batch_size_(&obs::registry().histogram("ascdg_eval_batch_size")) {
  if (sims_per_point_ == 0) {
    throw util::ConfigError("CdgObjective needs sims_per_point >= 1");
  }
  if (skeleton_->mark_count() == 0) {
    throw util::ConfigError("CdgObjective over a skeleton with no marks");
  }
  base_ = skeleton_->base(skeleton_->name());
}

double CdgObjective::evaluate(std::span<const double> x,
                              std::uint64_t eval_seed) {
  const opt::Point point(x.begin(), x.end());
  return evaluate_batch_full({&point, 1}, {&eval_seed, 1}).front().value;
}

std::vector<double> CdgObjective::evaluate_batch(
    std::span<const opt::Point> xs, std::span<const std::uint64_t> seeds) {
  const auto evals = evaluate_batch_full(xs, seeds);
  std::vector<double> values;
  values.reserve(evals.size());
  for (const auto& eval : evals) values.push_back(eval.value);
  return values;
}

std::vector<CdgObjective::PointEval> CdgObjective::evaluate_batch_full(
    std::span<const opt::Point> xs, std::span<const std::uint64_t> seeds) {
  if (xs.size() != seeds.size()) {
    throw util::ConfigError("CdgObjective::evaluate_batch: " +
                            std::to_string(xs.size()) + " points but " +
                            std::to_string(seeds.size()) + " seeds");
  }
  const std::size_t n = xs.size();
  for (const auto& x : xs) {
    if (x.size() != dimension()) {
      throw util::ConfigError(
          "CdgObjective::evaluate_batch: point dimension " +
          std::to_string(x.size()) + " != " + std::to_string(dimension()));
    }
  }
  if (n == 0) return {};

  m_batch_size_->observe(n);
  obs::Span span = obs::make_span(trace_, "eval_batch");

  // One weight vector and one backend job per point over the shared
  // base, all in a single dispatch; the point's eval seed is the job's
  // seed root, so each point's stats match a scalar evaluate() of the
  // same (point, seed).
  std::vector<std::vector<double>> weights;
  weights.reserve(n);
  std::vector<exec::Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(skeleton_->weights(xs[i]));
    jobs.emplace_back(&base_, sims_per_point_, seeds[i], weights.back());
  }
  std::vector<coverage::SimStats> results = farm_->run_all(*duv_, jobs);

  // Account every point in batch order, so evaluation counting,
  // coverage accumulation, and best tracking are identical to a
  // sequence of scalar evaluate() calls.
  std::size_t batch_sims = 0;
  std::vector<PointEval> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PointEval eval{target_->value(results[i]), std::move(results[i])};
    sims_ += eval.stats.sims();
    batch_sims += eval.stats.sims();
    combined_.merge(eval.stats);
    if (!has_best() || eval.value > best_value_) {
      best_value_ = eval.value;
      best_point_.assign(xs[i].begin(), xs[i].end());
    }
    out.push_back(std::move(eval));
  }

  span.fields().add("points", n).add("sims", batch_sims);
  return out;
}

}  // namespace ascdg::cdg
