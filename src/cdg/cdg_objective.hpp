// Adapter that exposes the CDG problem as an opt::Objective: a point in
// [0,1]^d is a weight assignment for the skeleton's marks; evaluating it
// simulates the skeleton's template with those weights N times on the
// execution backend and returns the empirical approximated-target value
// T_N(t).
//
// A point costs a weight copy, not a template: the objective builds the
// skeleton's base template once (tgen::Skeleton::base) and hands each
// point to the backend as that base plus the point's weight vector
// (tgen::Skeleton::weights, exec::Job::weights). Backend workers compile
// the base once per dispatch and reweight the compiled tables per
// point, which simulates exactly what instantiate(point) would.
//
// Evaluation is batched: evaluate_batch() submits a single
// Backend::run_all covering every point's sims_per_point simulations,
// so the backend's workers stay saturated across a whole optimizer
// stencil / population instead of a single point. Per-point statistics
// are separated by job (seed_root = the point's eval seed), preserving
// the per-(point, seed) determinism of the scalar path — scalar
// evaluate() is just a batch of one.
//
// Every evaluation simulates: the optimizers draw a fresh eval seed for
// each point (util::SeedStream), so a repeated (point, seed) pair does
// not occur in a flow, and one that a caller does repeat resimulates to
// bit-identical statistics. Batch sizes feed the ascdg_eval_batch_size
// histogram, and each batch can emit an "eval_batch" span when a tracer
// is attached.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/backend.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/objective.hpp"
#include "tgen/skeleton.hpp"

namespace ascdg::cdg {

class CdgObjective final : public opt::Objective {
 public:
  /// All referenced objects (including `trace`, when given) must
  /// outlive the objective. Throws util::ConfigError for a zero
  /// sims_per_point or a skeleton without marks, and
  /// util::ValidationError when the skeleton's base template is
  /// invalid.
  CdgObjective(const duv::Duv& duv, exec::Backend& farm,
               const tgen::Skeleton& skeleton,
               const neighbors::ApproximatedTarget& target,
               std::size_t sims_per_point, obs::Tracer* trace = nullptr);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return skeleton_->mark_count();
  }

  [[nodiscard]] double evaluate(std::span<const double> x,
                                std::uint64_t eval_seed) override;

  [[nodiscard]] std::vector<double> evaluate_batch(
      std::span<const opt::Point> xs,
      std::span<const std::uint64_t> seeds) override;

  /// One point's batched evaluation: the approximated-target value plus
  /// the per-event statistics that produced it.
  struct PointEval {
    double value = 0.0;
    coverage::SimStats stats;
  };

  /// Batched evaluation that also hands back each point's statistics —
  /// the random-sampling phase scores them against every campaign
  /// target before it drops them. Semantics are identical to
  /// evaluate_batch (same dispatch and bookkeeping).
  [[nodiscard]] std::vector<PointEval> evaluate_batch_full(
      std::span<const opt::Point> xs, std::span<const std::uint64_t> seeds);

  /// Simulations run through this objective so far: evaluations * N.
  [[nodiscard]] std::size_t simulations() const noexcept { return sims_; }

  /// Coverage accumulated across every evaluation — the paper's
  /// "Optimization phase" hit-statistics column aggregates exactly this.
  [[nodiscard]] const coverage::SimStats& combined() const noexcept {
    return combined_;
  }

  /// Best point seen so far by approximated-target value, with its stats.
  [[nodiscard]] const std::vector<double>& best_point() const noexcept {
    return best_point_;
  }
  [[nodiscard]] double best_value() const noexcept { return best_value_; }
  [[nodiscard]] bool has_best() const noexcept { return !best_point_.empty(); }

 private:
  const duv::Duv* duv_;
  exec::Backend* farm_;
  const tgen::Skeleton* skeleton_;
  const neighbors::ApproximatedTarget* target_;
  std::size_t sims_per_point_;
  obs::Tracer* trace_;
  /// The skeleton's base template: every job's tmpl.
  tgen::TestTemplate base_;
  std::size_t sims_ = 0;
  coverage::SimStats combined_;
  std::vector<double> best_point_;
  double best_value_ = 0.0;

  /// Registry handle (process-wide series, registered once per
  /// objective construction — registration is cold, mutation wait-free).
  obs::Histogram* m_batch_size_;
};

}  // namespace ascdg::cdg
