// Ablation A2 (design choice §IV-D): does the random-sampling phase
// earn its n x N simulations?
//
// The paper argues the sampling phase "helps find a good starting point
// ... [which] can save the optimization algorithm many iterations of
// wandering in an almost flat area reached by a random start". This
// bench runs the optimization phase on the L3 objective from
//
//   A. the best-of-sampling start (full flow), vs.
//   B. a random start with the sampling budget handed to the optimizer
//      as extra iterations (equal total simulation budget),
//
// and reports the best approximated-target value each reaches.
//
// Pass a scale factor for a quick run: ./bench_ablation_sampling 0.25
#include <cstdlib>

#include "exec/thread_farm.hpp"
#include "bench_common.hpp"
#include "cdg/cdg_objective.hpp"
#include "cdg/random_sample.hpp"
#include "cdg/skeletonizer.hpp"
#include "duv/l3_cache.hpp"
#include "opt/implicit_filtering.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace ascdg;
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  const auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        static_cast<double>(n) * scale));
  };
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header(
      "Ablation: random-sampling phase vs. random start with equal budget",
      "the design rationale of paper §IV-D");

  const duv::L3Cache l3;
  exec::ThreadFarm farm;
  bench::Stopwatch watch;

  const auto probe = farm.run(l3, l3.defaults(), scaled(3000), 13);
  const auto target =
      neighbors::family_target(l3.space(), "byp_reqs", probe);

  const auto suite = l3.suite();
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& tmpl : suite) {
    if (tmpl.name() == "l3_nc_smoke") seed_tmpl = &tmpl;
  }
  if (seed_tmpl == nullptr) return 1;
  const auto skeleton = cdg::Skeletonizer().skeletonize(*seed_tmpl);

  const std::size_t sample_templates = scaled(120);
  const std::size_t sample_sims = scaled(100);
  const std::size_t sims_per_point = scaled(100);
  const std::size_t opt_iterations = 12;
  const std::size_t directions = 10;
  // Sampling budget expressed as extra optimizer evaluations.
  const std::size_t sampling_evals = sample_templates * sample_sims / sims_per_point;

  util::Table table({"Variant", "seed", "start value", "best value",
                     "total sims"});
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    // --- A: full flow (sampling picks the start) -----------------------
    {
      cdg::RandomSampleOptions sopt;
      sopt.templates = sample_templates;
      sopt.sims_per_template = sample_sims;
      sopt.seed = seed;
      const auto sampling =
          cdg::random_sample(l3, farm, skeleton, {&target, 1}, sopt);
      cdg::CdgObjective objective(l3, farm, skeleton, target, sims_per_point);
      opt::ImplicitFilteringOptions ifopt;
      ifopt.directions = directions;
      ifopt.max_iterations = opt_iterations;
      ifopt.seed = seed;
      const auto result =
          opt::implicit_filtering(objective, sampling.best.front().point, ifopt);
      table.add_row({"with sampling", std::to_string(seed),
                     util::format_number(sampling.best.front().value, 4),
                     util::format_number(result.best_value, 4),
                     util::format_count(sampling.simulations +
                                        objective.simulations())});
    }
    // --- B: random start, sampling budget converted to iterations ------
    {
      util::Xoshiro256 rng(seed ^ 0xABCDULL);
      std::vector<double> x0(skeleton.mark_count());
      for (double& v : x0) v = rng.uniform();
      cdg::CdgObjective objective(l3, farm, skeleton, target, sims_per_point);
      opt::ImplicitFilteringOptions ifopt;
      ifopt.directions = directions;
      ifopt.max_iterations = 1000;  // bounded by evaluations instead
      ifopt.max_evaluations =
          sampling_evals + opt_iterations * (directions + 1);
      ifopt.seed = seed;
      const double start = objective.evaluate(x0, seed);
      const auto result = opt::implicit_filtering(objective, x0, ifopt);
      table.add_row({"random start", std::to_string(seed),
                     util::format_number(start, 4),
                     util::format_number(result.best_value, 4),
                     util::format_count(objective.simulations())});
    }
    table.add_separator();
  }
  table.render(std::cout, bench::use_color());
  std::cout << "\n(Equal simulation budgets; 'with sampling' should start "
               "higher and finish at least as high.)\n"
            << "Total simulations: "
            << util::format_count(farm.total_simulations())
            << "  |  wall time: " << watch.seconds() << " s\n";
  return 0;
}
