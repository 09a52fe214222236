// Concrete pipeline stages. Each reproduces one section of the old
// monolithic CdgRunner::run / run_from_template verbatim — same seed
// mixes, same log lines — so results do not depend on the stage split.
// Their spans are opened by the pipeline (see stage.hpp).
//
// Optimize and Harvest take their seed mix (and the harvest its
// instance-name suffix) as constructor parameters because the
// multi-target campaign driver runs them per target with per-target
// mixes (config.seed ^ (base + t)).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "flow/stage.hpp"

namespace ascdg::flow {

/// §IV-B: TAC-ranks the before-CDG repository's templates against the
/// approximated target and merges the best n into ctx.seed_template.
/// Zero simulations; the artifact is the merged seed template itself.
class CoarseSearchStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "coarse";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-C: marks the seed template's tunable settings. Also emits the
/// flow_start trace event (the monolith emitted it right after
/// skeletonizing, once the mark count was known).
class SkeletonizeStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "skeletonize";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-D: the random-sampling phase, keeping the best sample for each
/// of `targets`, which must outlive the stage.
class SampleStage final : public Stage {
 public:
  explicit SampleStage(std::span<const neighbors::ApproximatedTarget> targets)
      : targets_(targets) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sampling";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;

 private:
  std::span<const neighbors::ApproximatedTarget> targets_;
};

/// §IV-E: implicit filtering over the skeleton's weight space. With a
/// session attached every iteration appends one record (its
/// IfCheckpoint + the stage's partial sims/stats) to the durable
/// journal `optimization.ckpt.jsonl`, and an interrupted stage resumes
/// mid-optimization with a bit-identical trajectory.
class OptimizeStage final : public Stage {
 public:
  explicit OptimizeStage(std::uint64_t seed_mix = 0x0B71417EULL)
      : seed_mix_(seed_mix) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "optimization";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;

 private:
  std::uint64_t seed_mix_;
};

/// §IV-E refinement. Always present in the pipeline (so the session's
/// stage list is config-independent); when refinement is disabled or
/// evidence is missing it only adds its (short) wall time to the
/// optimization phase, which covers both stages.
class RefineStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "refinement";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-F: instantiates the best point and runs the harvest budget.
class HarvestStage final : public Stage {
 public:
  explicit HarvestStage(std::uint64_t seed_mix = 0x4A12E57EDULL,
                        std::string instance_suffix = "_cdg_best")
      : seed_mix_(seed_mix), instance_suffix_(std::move(instance_suffix)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "harvest";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;

 private:
  std::uint64_t seed_mix_;
  std::string instance_suffix_;
};

}  // namespace ascdg::flow
