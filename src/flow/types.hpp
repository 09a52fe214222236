// Flow-level configuration and result types, shared by every driver of
// the stage pipeline (single-target CdgRunner, the multi-target
// campaign driver, the CLI). Moved here from cdg/runner.hpp when the
// monolithic runner was decomposed into stages; ascdg::cdg re-exports
// the names for source compatibility.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cdg/random_sample.hpp"
#include "cdg/skeletonizer.hpp"
#include "exec/backend.hpp"
#include "obs/trace.hpp"
#include "opt/implicit_filtering.hpp"
#include "tgen/skeleton.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::flow {

struct FlowConfig {
  // Coarse-grained search (§IV-B).
  /// TAC best-n: the parameters of the n best-scoring existing templates
  /// are merged (higher rank wins name clashes) into the seed template
  /// that gets skeletonized.
  std::size_t coarse_best_templates = 3;

  // Skeletonizer (§IV-C).
  cdg::SkeletonizerOptions skeletonizer{};

  // Random-sampling phase (§IV-D).
  std::size_t sample_templates = 200;     ///< n
  std::size_t sample_sims = 100;          ///< N per template

  // Optimization phase (§IV-E).
  std::size_t opt_directions = 20;        ///< n directions per iteration
  std::size_t opt_sims_per_point = 200;   ///< N sims per point
  std::size_t opt_max_iterations = 7;
  double opt_initial_step = 0.4;
  /// Direction sampling for the stencil. Sparse (+-h on a random ~25%
  /// of the coordinates) is the default: template weight spaces are
  /// moderate-dimensional with weakly coupled coordinates, so targeted
  /// moves that leave most settings alone escape noisy plateaus far
  /// faster than unit-sphere or full-coordinate directions (see
  /// bench_ablation_hyper for the comparison).
  opt::DirectionMode opt_direction_mode = opt::DirectionMode::kSparse;
  /// See ImplicitFilteringOptions::halve_patience; 3 tolerates unlucky
  /// noisy rounds before shrinking the stencil.
  std::size_t opt_halve_patience = 3;
  double opt_min_step = 1e-3;
  bool opt_resample_center = true;
  std::optional<double> opt_target_value; ///< early-stop threshold

  // Approximated-target expansion (§IV-A / the "Friends" idea [16]):
  // before the flow starts, pull in events whose per-template hit
  // profiles correlate with the target's known neighbors
  // (neighbors::CorrelationExpansion over the before-CDG repository).
  // Only applies to CdgRunner::run (which has the repository).
  bool expand_target_by_correlation = false;
  double correlation_min_similarity = 0.85;

  // Refinement (§IV-E): "Once there is good evidence for the target
  // event, we can repeat the process, this time with the real objective
  // function." When enabled, and the optimized template's summed
  // real-target hit rate reaches refine_threshold, a second implicit-
  // filtering run maximizes the real objective directly from the
  // optimization phase's best point.
  bool refine_with_real_target = false;
  double refine_threshold = 0.005;  ///< evidence needed to switch objectives
  std::size_t refine_max_iterations = 10;

  // Harvest (§IV-F).
  std::size_t harvest_sims = 10000;

  std::uint64_t seed = 2021;

  /// Execution backend the driver runs every simulation on (thread farm
  /// by default; forked worker processes via --backend=process[:N], see
  /// docs/backends.md). Like the telemetry knobs, the backend choice
  /// never changes results — backends are bit-identical by contract —
  /// so it is excluded from the session config fingerprint
  /// (flow/session.cpp): a session started on one backend may resume on
  /// another.
  exec::BackendConfig backend{};

  // Durable session (docs/sessions.md). When `session_dir` is
  // non-empty the flow checkpoints every stage boundary and every
  // optimizer iteration into that directory; with `resume` set it
  // restarts from the last completed checkpoint instead of
  // re-simulating. CLI: --session=DIR / --resume.
  std::string session_dir;
  bool resume = false;

  /// Optional JSONL run-trace sink (not owned; must outlive the run).
  /// When set, the runner emits flow_start / phase / flow_end events
  /// carrying each phase's simulation budget and wall latency, wraps
  /// the flow and each phase in obs spans (parent/child ids tie the
  /// events together), and streams the optimizer's per-iteration
  /// "opt_iter" convergence series — see docs/observability.md for the
  /// field schema.
  obs::Tracer* trace = nullptr;

  // Live introspection (docs/observability.md "Live monitoring"). The
  // flow itself always publishes its phase stack / optimizer heartbeat
  // into obs::run_state(); these knobs tell the *driver* (ascdg_cli)
  // which companion services to stand up around the run.
  /// When set, serve /metrics, /metrics.json, /healthz, /runz and
  /// /timeseries on 127.0.0.1:<port> for the duration of the run
  /// (0 = ephemeral port, printed at startup). CLI: --serve[=PORT].
  std::optional<std::uint16_t> serve_port;
  /// When non-zero, run an obs::TimeSeriesRecorder sampling every this
  /// many milliseconds into the session's telemetry.jsonl (and the
  /// /timeseries ring when serving). Requires session_dir for the
  /// durable file; memory-only otherwise. Excluded from the session
  /// config fingerprint like every other telemetry knob. CLI:
  /// --timeline[=MS].
  std::size_t timeline_interval_ms = 0;
};

/// Hit statistics of one flow phase, as shown in the paper's result
/// tables: the phase's simulation count and the coverage it accumulated.
struct PhaseOutcome {
  std::string name;
  std::size_t sims = 0;
  coverage::SimStats stats;
  /// Wall time the flow spent in this phase (0 for `before`, whose
  /// simulations predate the flow).
  double wall_ms = 0.0;
};

/// When a target event was first hit during the flow — the per-event
/// closure telemetry the NOVA-style coverage tracking asks for.
struct FirstHit {
  coverage::EventId event;
  /// "before", "sampling", "optimization", "harvest", or "never".
  std::string phase;
};

struct FlowResult {
  std::string seed_template;             ///< chosen by the coarse search
  tgen::Skeleton skeleton;
  cdg::RandomSampleResult sampling;
  opt::OptResult optimization;
  /// Present when the refinement stage ran (see
  /// FlowConfig::refine_with_real_target); its simulations are included
  /// in optimization_phase.
  std::optional<opt::OptResult> refinement;
  tgen::TestTemplate best_template;      ///< the harvested template
  PhaseOutcome before;                   ///< pre-CDG regression coverage
  PhaseOutcome sampling_phase;
  PhaseOutcome optimization_phase;
  PhaseOutcome harvest_phase;
  /// One entry per real target event: the first flow phase that hit it.
  std::vector<FirstHit> first_hits;
  /// Always 0: kept only because external readers still name them.
  std::size_t eval_cache_hits = 0;
  std::size_t eval_cache_misses = 0;

  /// Simulations spent by the flow itself (excludes `before`).
  [[nodiscard]] std::size_t flow_sims() const noexcept {
    return sampling_phase.sims + optimization_phase.sims + harvest_phase.sims;
  }
};

}  // namespace ascdg::flow
