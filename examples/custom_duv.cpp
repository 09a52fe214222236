// Bringing your own design under verification.
//
// AS-CDG is "black box": it only needs (a) your coverage events, (b) a
// default test-template describing the generator's parameters, and (c)
// a simulate() call. This example wires a from-scratch toy DUV — a
// store queue whose fill-level family stq_fill_1..stq_fill_12 gets
// harder with depth — into the flow, without touching any library code.
//
//   $ ./custom_duv
#include <algorithm>
#include <iostream>

#include "exec/thread_farm.hpp"
#include "flow/runner.hpp"
#include "duv/duv.hpp"
#include "neighbors/neighbors.hpp"
#include "report/report.hpp"
#include "stimgen/compiled.hpp"
#include "stimgen/sampler.hpp"
#include "tgen/parser.hpp"
#include "util/rng.hpp"

namespace {

using namespace ascdg;

/// A 12-deep store queue: stores enqueue, and the queue drains one
/// entry every `DrainPeriod` cycles. stq_fill_k fires when occupancy
/// reaches k. Deep fills need bursts of stores with short gaps.
class StoreQueueUnit final : public duv::Duv {
 public:
  static constexpr std::size_t kDepth = 12;

  StoreQueueUnit() : defaults_("stq_defaults") {
    std::vector<std::string> suffixes;
    for (std::size_t k = 1; k <= kDepth; ++k) {
      suffixes.push_back(std::to_string(k));
    }
    fill_events_ = space_.declare_family("stq_fill", suffixes);
    ev_store_ = space_.declare_event("stq_op_store");
    ev_load_ = space_.declare_event("stq_op_load");
    ev_full_reject_ = space_.declare_event("stq_full_reject");

    using tgen::RangeParameter;
    using tgen::Value;
    using tgen::WeightParameter;
    defaults_.add(WeightParameter{
        "Op", {{Value{"store"}, 30}, {Value{"load"}, 60}, {Value{"fence"}, 10}}});
    defaults_.add(RangeParameter{"OpGap", 0, 15});
    defaults_.add(RangeParameter{"DrainPeriod", 2, 10});
    defaults_.add(RangeParameter{"NumOps", 80, 200});
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "store_queue";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }

  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    util::Xoshiro256 rng(seed);
    const stimgen::CompiledTemplate table(&tmpl, defaults_);
    stimgen::ParameterSampler sampler(table, rng);
    coverage::CoverageVector vec(space_.size());

    const std::int64_t num_ops = sampler.draw_range("NumOps");
    const std::int64_t drain_period = sampler.draw_range("DrainPeriod");
    std::int64_t now = 0;
    std::int64_t last_drain = 0;
    std::size_t occupancy = 0;
    std::size_t max_fill = 0;

    for (std::int64_t op = 0; op < num_ops; ++op) {
      now += sampler.draw_range("OpGap");
      while (occupancy > 0 && now - last_drain >= drain_period) {
        --occupancy;
        last_drain += drain_period;
      }
      if (occupancy == 0) last_drain = now;
      const auto kind = sampler.draw("Op").as_symbol();
      if (kind == "store") {
        vec.hit(ev_store_);
        if (occupancy >= kDepth) {
          vec.hit(ev_full_reject_);
        } else {
          ++occupancy;
          max_fill = std::max(max_fill, occupancy);
        }
      } else if (kind == "load") {
        vec.hit(ev_load_);
      } else {
        // fence: drains everything.
        occupancy = 0;
        last_drain = now;
      }
    }
    for (std::size_t k = 0; k < fill_events_.size(); ++k) {
      if (max_fill >= k + 1) vec.hit(fill_events_[k]);
    }
    return vec;
  }

  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return tgen::parse_templates(R"(
      template stq_default {
        weight Op { store: 30, load: 60, fence: 10 }
      }
      template stq_load_heavy {
        weight Op { store: 10, load: 85, fence: 5 }
      }
      template stq_store_smoke {
        weight Op { store: 55, load: 40, fence: 5 }
        range OpGap [0, 10]
      }
      template stq_fence_storm {
        weight Op { store: 30, load: 30, fence: 40 }
      }
    )");
  }

 private:
  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> fill_events_;
  coverage::EventId ev_store_{}, ev_load_{}, ev_full_reject_{};
};

}  // namespace

int main() {
  const StoreQueueUnit stq;
  exec::ThreadFarm farm;

  coverage::CoverageRepository repo(stq.space().size());
  for (const auto& tmpl : stq.suite()) {
    repo.record(tmpl.name(), farm.run(stq, tmpl, 2500, 11));
  }

  const auto target =
      neighbors::family_target(stq.space(), "stq_fill", repo.total());
  std::cout << "store-queue fill events uncovered before CDG: "
            << target.targets().size() << '\n';

  flow::FlowConfig config;
  config.sample_templates = 80;
  config.sample_sims = 40;
  config.opt_directions = 8;
  config.opt_sims_per_point = 80;
  config.opt_max_iterations = 8;
  config.harvest_sims = 3000;
  flow::CdgRunner runner(stq, farm, config);
  const auto result = runner.run(target, repo, stq.suite());

  const auto family = stq.space().family_events("stq_fill");
  std::cout << "Seed template: " << result.seed_template << "\n\n";
  report::phase_table(stq.space(), family, result)
      .render(std::cout, util::stdout_supports_color());
  std::cout << "\nHarvested template:\n" << tgen::to_text(result.best_template);
  return 0;
}
