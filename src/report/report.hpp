// Rendering of the paper's result artifacts:
//   * Fig. 3 / Fig. 4 — per-event hit statistics across the flow phases,
//     with the IBM color convention (red = never hit, orange = lightly
//     hit, green = well hit);
//   * Fig. 5 — event-status histogram per phase for a cross product;
//   * Fig. 6 — maximal target value per optimization iteration.
#pragma once

#include <filesystem>
#include <ostream>
#include <span>
#include <string>

#include "flow/runner.hpp"
#include "coverage/space.hpp"
#include "obs/metrics.hpp"
#include "opt/objective.hpp"
#include "util/table.hpp"

namespace ascdg::report {

/// Builds the Fig. 3/4-style table: one row per family event, one
/// (#hits, hit rate) column pair per phase.
[[nodiscard]] util::Table phase_table(
    const coverage::CoverageSpace& space,
    std::span<const coverage::EventId> family_events,
    const flow::FlowResult& flow);

/// Event-status counts over an event set.
struct StatusCounts {
  std::size_t never = 0;
  std::size_t lightly = 0;
  std::size_t well = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return never + lightly + well;
  }
};

[[nodiscard]] StatusCounts count_status(
    const coverage::SimStats& stats,
    std::span<const coverage::EventId> events);

/// Builds the Fig. 5-style table: status counts at each flow phase.
[[nodiscard]] util::Table status_table(
    const coverage::CoverageSpace& space,
    std::span<const coverage::EventId> events, const flow::FlowResult& flow);

/// Renders a Fig. 5-style horizontal bar chart of status counts per
/// phase (ASCII, colored when `use_color`).
void render_status_bars(std::ostream& os,
                        std::span<const coverage::EventId> events,
                        const flow::FlowResult& flow, bool use_color = true);

/// Renders a Fig. 6-style ASCII line chart: max target value per
/// optimization iteration. Traces longer than 60 iterations are
/// bucketed into at most 60 columns, each plotting its bucket's max and
/// labelled with the bucket's last iteration.
void render_trace(std::ostream& os, const opt::OptResult& result,
                  std::size_t height = 16);

/// One-paragraph phase header ("Sampling phase (200 tests x 100 sims)").
[[nodiscard]] std::string phase_caption(const flow::FlowResult& flow);

/// Builds the run-telemetry table: per flow phase, its simulation
/// budget, share of the flow's total, wall time, and throughput.
[[nodiscard]] util::Table telemetry_table(const flow::FlowResult& flow);

/// Renders a farm telemetry snapshot (counters + chunk-latency
/// histogram) as a markdown fragment.
void render_farm_telemetry(std::ostream& os,
                           const exec::TelemetrySnapshot& farm);

/// Renders the "Run health" fragment from a metrics-registry snapshot:
/// process RSS / peak RSS / CPU split (the ascdg_proc_* gauges), per-farm
/// worker utilization (ascdg_farm_worker_busy_fraction, ppm), and the
/// per-phase CPU/RSS footprint (ascdg_phase_*{phase=...}). Sections
/// whose series are absent from the snapshot are omitted, so the
/// fragment degrades gracefully when the sampler never ran.
void render_run_health(std::ostream& os, const obs::MetricsSnapshot& snapshot);

/// Renders the convergence section as markdown: the optimizer's
/// objective curve (paper Fig. 6) as a fenced ASCII chart plus the
/// per-iteration step/resample/halving dynamics, and the coverage
/// progress — which flow phase first hit each target event. When a
/// metrics snapshot is given, latency/batch-size histogram quantiles
/// (chunk latency, eval batch size) are appended — the per-simulation
/// cost behind the convergence curve.
void render_convergence(std::ostream& os, const coverage::CoverageSpace& space,
                        const flow::FlowResult& flow,
                        const obs::MetricsSnapshot* snapshot = nullptr);

/// Renders a durable-session manifest summary as a markdown fragment:
/// the session directory, seed, resume count, where the last resume
/// picked up, and the per-stage status/sims/wall table.
void render_session(std::ostream& os, const flow::SessionSummary& session);

/// Writes a complete markdown report of a flow run — caption, the
/// Fig. 3/4-style phase table, the status summary, the optimization
/// trace as a markdown table, the convergence section, run telemetry,
/// and the harvested template — to `path`. When `farm` is non-null its
/// counters are appended to the telemetry section; when `session` is
/// non-null a "Session" section describes the durable session the run
/// checkpointed into. Throws util::Error on IO failure.
void write_flow_markdown(const std::filesystem::path& path,
                         const coverage::CoverageSpace& space,
                         std::span<const coverage::EventId> family_events,
                         const flow::FlowResult& flow,
                         const exec::TelemetrySnapshot* farm = nullptr,
                         const flow::SessionSummary* session = nullptr);

/// Writes the machine-readable metrics snapshot of a flow run: one JSON
/// object (schema "ascdg-run-metrics-v1") holding the per-iteration
/// implicit-filtering series (objective value, step size, resamples,
/// halvings), the refinement series when present, per-target-event
/// first-hit phases, and the full metrics-registry snapshot. Throws
/// util::Error on IO failure. See docs/observability.md.
void write_metrics_json(const std::filesystem::path& path,
                        const coverage::CoverageSpace& space,
                        const flow::FlowResult& flow,
                        const obs::MetricsSnapshot& snapshot);

}  // namespace ascdg::report
