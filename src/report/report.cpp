#include "report/report.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"

namespace ascdg::report {

namespace {

using util::Cell;
using util::CellColor;

CellColor status_color(coverage::HitStatus status) {
  switch (status) {
    case coverage::HitStatus::kNever:
      return CellColor::kRed;
    case coverage::HitStatus::kLightly:
      return CellColor::kOrange;
    case coverage::HitStatus::kWell:
      return CellColor::kGreen;
  }
  return CellColor::kDefault;
}

/// The four phases of a flow result, in report order.
std::array<const flow::PhaseOutcome*, 4> phases_of(const flow::FlowResult& flow) {
  return {&flow.before, &flow.sampling_phase, &flow.optimization_phase,
          &flow.harvest_phase};
}

}  // namespace

util::Table phase_table(const coverage::CoverageSpace& space,
                        std::span<const coverage::EventId> family_events,
                        const flow::FlowResult& flow) {
  std::vector<std::string> headers{"Event"};
  for (const auto* phase : phases_of(flow)) {
    headers.push_back(phase->name + " #hits");
    headers.push_back("hit rate");
  }
  util::Table table(headers);
  for (const auto event : family_events) {
    std::vector<Cell> row;
    row.push_back({space.name(event), CellColor::kBold});
    for (const auto* phase : phases_of(flow)) {
      const std::size_t hits = phase->stats.sims() > 0 ? phase->stats.hits(event) : 0;
      const double rate =
          phase->stats.sims() > 0 ? phase->stats.hit_rate(event) : 0.0;
      const CellColor color = status_color(
          coverage::classify_hits(hits, phase->stats.sims()));
      row.push_back({util::format_count(hits), color});
      row.push_back({util::format_percent(rate), color});
    }
    table.add_row(std::move(row));
  }
  return table;
}

StatusCounts count_status(const coverage::SimStats& stats,
                          std::span<const coverage::EventId> events) {
  StatusCounts counts;
  for (const auto event : events) {
    const std::size_t hits = stats.sims() > 0 ? stats.hits(event) : 0;
    switch (coverage::classify_hits(hits, stats.sims())) {
      case coverage::HitStatus::kNever:
        ++counts.never;
        break;
      case coverage::HitStatus::kLightly:
        ++counts.lightly;
        break;
      case coverage::HitStatus::kWell:
        ++counts.well;
        break;
    }
  }
  return counts;
}

util::Table status_table(const coverage::CoverageSpace& space,
                         std::span<const coverage::EventId> events,
                         const flow::FlowResult& flow) {
  (void)space;
  util::Table table({"Phase", "never-hit", "lightly-hit", "well-hit", "sims"});
  for (const auto* phase : phases_of(flow)) {
    const StatusCounts counts = count_status(phase->stats, events);
    table.add_row(std::vector<Cell>{
        {phase->name, CellColor::kBold},
        {std::to_string(counts.never), CellColor::kRed},
        {std::to_string(counts.lightly), CellColor::kOrange},
        {std::to_string(counts.well), CellColor::kGreen},
        {util::format_count(phase->sims), CellColor::kDefault}});
  }
  return table;
}

void render_status_bars(std::ostream& os,
                        std::span<const coverage::EventId> events,
                        const flow::FlowResult& flow, bool use_color) {
  const std::size_t total = events.size();
  if (total == 0) return;
  constexpr std::size_t kWidth = 64;
  const char* red = use_color ? "\x1b[31m" : "";
  const char* orange = use_color ? "\x1b[33m" : "";
  const char* green = use_color ? "\x1b[32m" : "";
  const char* reset = use_color ? "\x1b[0m" : "";

  for (const auto* phase : phases_of(flow)) {
    const StatusCounts counts = count_status(phase->stats, events);
    const auto bar_len = [&](std::size_t n) {
      return (n * kWidth + total / 2) / total;
    };
    os << "  " << phase->name << std::string(
        phase->name.size() < 22 ? 22 - phase->name.size() : 1, ' ')
       << '[';
    os << red << std::string(bar_len(counts.never), '#') << reset;
    os << orange << std::string(bar_len(counts.lightly), '=') << reset;
    os << green << std::string(bar_len(counts.well), '+') << reset;
    const std::size_t used =
        bar_len(counts.never) + bar_len(counts.lightly) + bar_len(counts.well);
    if (used < kWidth) os << std::string(kWidth - used, ' ');
    os << "]  never=" << counts.never << " lightly=" << counts.lightly
       << " well=" << counts.well << '\n';
  }
}

void render_trace(std::ostream& os, const opt::OptResult& result,
                  std::size_t height) {
  if (result.trace.empty()) {
    os << "  (no optimization iterations)\n";
    return;
  }
  // At most kMaxColumns columns, 4 characters each: a longer trace is
  // bucketed, each column plotting its bucket's max best_value under
  // the bucket's last iteration.
  constexpr std::size_t kMaxColumns = 60;
  const std::size_t iterations = result.trace.size();
  const std::size_t per_column = (iterations + kMaxColumns - 1) / kMaxColumns;
  std::vector<double> values;
  std::vector<std::size_t> last_iteration;
  for (std::size_t begin = 0; begin < iterations; begin += per_column) {
    const std::size_t end = std::min(iterations, begin + per_column);
    double value = result.trace[begin].best_value;
    for (std::size_t i = begin + 1; i < end; ++i) {
      value = std::max(value, result.trace[i].best_value);
    }
    values.push_back(value);
    last_iteration.push_back(end);
  }
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *lo_it;
  const double hi = *hi_it == lo ? lo + 1.0 : *hi_it;

  // Top to bottom rows of the plot.
  for (std::size_t row = height; row-- > 0;) {
    const double level = lo + (hi - lo) * static_cast<double>(row) /
                                  static_cast<double>(height - 1);
    char label[32];
    std::snprintf(label, sizeof label, "%8.3f |", level);
    os << label;
    for (const double v : values) {
      const double cell = (v - lo) / (hi - lo) * static_cast<double>(height - 1);
      os << (std::llround(cell) == static_cast<long long>(row) ? " *  " : "    ");
    }
    os << '\n';
  }
  os << "         +" << std::string(4 * values.size(), '-') << "\n          ";
  for (const std::size_t iteration : last_iteration) {
    char label[32];
    std::snprintf(label, sizeof label, "%3zu ", iteration);
    os << label;
  }
  // The caption gets a line of its own, so no line outgrows the plot.
  os << "\n          (iteration";
  if (per_column > 1) {
    os << "; each column is the max of up to " << per_column;
  }
  os << ")\n";
}

void render_session(std::ostream& os, const flow::SessionSummary& session) {
  os << "Session directory: `" << session.dir << "`  \n"
     << "Seed: " << session.seed << "  \n"
     << "Resumes: " << session.resumes;
  if (!session.resumed_from.empty()) {
    os << " (last resumed from: " << session.resumed_from << ")";
  }
  os << "\n\n"
     << "| stage | status | sims | wall ms |\n"
     << "| --- | --- | ---: | ---: |\n";
  for (const auto& stage : session.stages) {
    char wall_ms[32];
    std::snprintf(wall_ms, sizeof wall_ms, "%.1f", stage.wall_ms);
    os << "| " << stage.name << " | " << stage.status << " | " << stage.sims
       << " | " << wall_ms << " |\n";
  }
}

void write_flow_markdown(const std::filesystem::path& path,
                         const coverage::CoverageSpace& space,
                         std::span<const coverage::EventId> family_events,
                         const flow::FlowResult& flow,
                         const exec::TelemetrySnapshot* farm,
                         const flow::SessionSummary* session) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      throw util::Error("cannot create directory '" +
                        path.parent_path().string() + "': " + ec.message());
    }
  }
  std::ofstream os(path);
  if (!os) {
    throw util::Error("cannot open '" + path.string() + "' for writing");
  }

  os << "# AS-CDG flow report\n\n"
     << "Seed template: `" << flow.seed_template << "`\n\n"
     << phase_caption(flow) << "\n\n"
     << "## Hit statistics per phase\n\n";
  phase_table(space, family_events, flow).render_markdown(os);

  os << "\n## Status summary\n\n";
  status_table(space, family_events, flow).render_markdown(os);

  os << "\n## Optimization progress\n\n"
     << "| iteration | center value | best value | step | evals | moved "
        "| resampled | halved |\n"
     << "| ---: | ---: | ---: | ---: | ---: | --- | --- | --- |\n";
  for (const auto& record : flow.optimization.trace) {
    os << "| " << record.iteration + 1 << " | " << record.center_value
       << " | " << record.best_value << " | " << record.step << " | "
       << record.evaluations << " | " << (record.moved ? "yes" : "no")
       << " | " << (record.resamples != 0 ? "yes" : "no") << " | "
       << (record.halved ? "yes" : "no") << " |\n";
  }

  const obs::MetricsSnapshot metrics = obs::registry().snapshot();
  os << '\n';
  render_convergence(os, space, flow, &metrics);

  os << "\n## Run telemetry\n\n";
  telemetry_table(flow).render_markdown(os);
  if (farm != nullptr) {
    os << '\n';
    render_farm_telemetry(os, *farm);
  }

  os << "\n## Run health\n\n";
  render_run_health(os, metrics);

  if (session != nullptr) {
    os << "\n## Session\n\n";
    render_session(os, *session);
  }

  os << "\n## Harvested test-template\n\n```\n"
     << tgen::to_text(flow.best_template) << "```\n";
  os.flush();
  if (!os) {
    throw util::Error("failed writing '" + path.string() + "'");
  }
}

util::Table telemetry_table(const flow::FlowResult& flow) {
  util::Table table({"Phase", "sims", "share", "wall ms", "sims/s"});
  const std::array<const flow::PhaseOutcome*, 3> flow_phases{
      &flow.sampling_phase, &flow.optimization_phase, &flow.harvest_phase};
  const std::size_t total = flow.flow_sims();
  double total_ms = 0.0;
  const auto fmt = [](double v, const char* spec) {
    char buf[32];
    std::snprintf(buf, sizeof buf, spec, v);
    return std::string(buf);
  };
  for (const auto* phase : flow_phases) {
    total_ms += phase->wall_ms;
    const double share =
        total == 0 ? 0.0
                   : static_cast<double>(phase->sims) /
                         static_cast<double>(total);
    const double rate =
        phase->wall_ms > 0.0
            ? static_cast<double>(phase->sims) / (phase->wall_ms / 1000.0)
            : 0.0;
    table.add_row(std::vector<Cell>{{phase->name, CellColor::kBold},
                                    {util::format_count(phase->sims)},
                                    {fmt(100.0 * share, "%.1f%%")},
                                    {fmt(phase->wall_ms, "%.2f")},
                                    {util::format_count(
                                        static_cast<std::size_t>(rate))}});
  }
  const double total_rate =
      total_ms > 0.0 ? static_cast<double>(total) / (total_ms / 1000.0) : 0.0;
  table.add_row(std::vector<Cell>{
      {"Flow total", CellColor::kBold},
      {util::format_count(total)},
      {"100.0%"},
      {fmt(total_ms, "%.2f")},
      {util::format_count(static_cast<std::size_t>(total_rate))}});
  return table;
}

void render_farm_telemetry(std::ostream& os,
                           const exec::TelemetrySnapshot& farm) {
  os << "Farm counters: " << util::format_count(farm.simulations)
     << " sims in " << util::format_count(farm.chunks) << " chunks ("
     << farm.exceptions << " exceptions, " << farm.runs << " runs).\n\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", farm.mean_chunk_us());
  os << "Mean chunk wall time: " << buf << " us.\n";
  bool any = false;
  for (const std::size_t count : farm.chunk_latency) any = any || count != 0;
  if (!any) return;
  os << "\nChunk latency histogram (log2 us buckets):\n\n"
     << "| bucket | chunks |\n| --- | ---: |\n";
  for (std::size_t i = 0; i < farm.chunk_latency.size(); ++i) {
    if (farm.chunk_latency[i] == 0) continue;
    os << "| [" << (1ull << i) << ", " << (1ull << (i + 1)) << ") us | "
       << farm.chunk_latency[i] << " |\n";
  }
}

void render_run_health(std::ostream& os, const obs::MetricsSnapshot& snapshot) {
  const auto gauge = [&](std::string_view name) -> std::int64_t {
    const obs::MetricSample* sample = snapshot.find(name);
    return sample != nullptr ? sample->gauge : 0;
  };
  const auto mib = [](std::int64_t bytes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
    return std::string(buf);
  };

  if (snapshot.find("ascdg_proc_rss_bytes") != nullptr) {
    os << "Process: RSS " << mib(gauge("ascdg_proc_rss_bytes"))
       << " MiB (peak " << mib(gauge("ascdg_proc_max_rss_bytes"))
       << " MiB), CPU " << gauge("ascdg_proc_cpu_user_ms") << " ms user + "
       << gauge("ascdg_proc_cpu_system_ms") << " ms system, "
       << gauge("ascdg_proc_major_faults") << " major faults.\n\n";
  }

  bool any_farm = false;
  for (const auto& sample : snapshot.samples) {
    if (sample.name != "ascdg_farm_worker_busy_fraction") continue;
    if (!any_farm) os << "Worker utilization since farm start:\n\n";
    any_farm = true;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%",
                  static_cast<double>(sample.gauge) / 1e4);
    os << "  * farm {" << sample.labels << "}: " << buf << " busy\n";
  }
  if (any_farm) os << '\n';

  bool any_phase = false;
  for (const auto& sample : snapshot.samples) {
    if (sample.name != "ascdg_phase_cpu_ms") continue;
    if (!any_phase) {
      os << "Per-phase footprint:\n\n"
         << "| phase | CPU ms | RSS at end |\n| --- | ---: | ---: |\n";
    }
    any_phase = true;
    const obs::MetricSample* rss =
        snapshot.find("ascdg_phase_rss_bytes", sample.labels);
    os << "| {" << sample.labels << "} | " << sample.gauge << " | "
       << (rss != nullptr ? mib(rss->gauge) + " MiB" : std::string("?"))
       << " |\n";
  }
  if (!any_phase && !any_farm &&
      snapshot.find("ascdg_proc_rss_bytes") == nullptr) {
    os << "(no health telemetry recorded)\n";
  }
}

namespace {

/// Sums the batched-kernel farm counters across every `farm="<id>"`
/// series: simulations retired, and the busy-worker nanoseconds that
/// retired them. Both stay zero when no thread farm ran under this
/// registry.
struct FarmTotals {
  std::uint64_t sims = 0;
  std::uint64_t busy_ns = 0;

  /// Simulations per second of busy worker time — the wall-clock cost
  /// of the simulate_batch hot path, independent of how long the main
  /// thread sat blocked in run_all.
  [[nodiscard]] double sims_per_sec() const noexcept {
    return busy_ns == 0 ? 0.0
                        : static_cast<double>(sims) * 1e9 /
                              static_cast<double>(busy_ns);
  }
};

FarmTotals farm_totals(const obs::MetricsSnapshot& snapshot) {
  FarmTotals totals;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "ascdg_farm_simulations_total") {
      totals.sims += sample.counter;
    } else if (sample.name == "ascdg_farm_busy_ns_total") {
      totals.busy_ns += sample.counter;
    }
  }
  return totals;
}

}  // namespace

void render_convergence(std::ostream& os, const coverage::CoverageSpace& space,
                        const flow::FlowResult& flow,
                        const obs::MetricsSnapshot* snapshot) {
  os << "## Convergence\n\n"
     << "Best objective value per optimization iteration (paper Fig. 6):\n\n"
     << "```\n";
  render_trace(os, flow.optimization);
  os << "```\n";

  // Histogram quantiles for the cost per unit of convergence: what a
  // simulation chunk latency and an eval batch looked like, not just
  // their totals. Omitted when the series never registered.
  if (snapshot != nullptr) {
    // The throughput headline: how fast the batched simulate_batch
    // kernels actually ran, measured in busy-worker time so the number
    // survives a blocked main thread and compares across worker counts.
    // The process backend cannot observe worker-busy time from the
    // parent (busy_ns stays 0), so the line is omitted rather than
    // reporting a meaningless 0 sims/sec.
    if (const FarmTotals farm = farm_totals(*snapshot);
        farm.sims != 0 && farm.busy_ns != 0) {
      os << "\nSimulation throughput: " << util::format_count(farm.sims)
         << " farm sims at " << util::format_number(farm.sims_per_sec(), 3)
         << " sims/sec of busy worker time.\n";
    }
    const auto quantile_line = [&os, snapshot](const char* name,
                                               const char* caption,
                                               const char* unit) {
      bool first = true;
      for (const auto& sample : snapshot->samples) {
        if (sample.name != name ||
            sample.kind != obs::MetricKind::kHistogram || sample.count == 0) {
          continue;
        }
        if (first) {
          os << "\n" << caption << ":\n\n";
          first = false;
        }
        os << "- ";
        if (!sample.labels.empty()) os << '`' << sample.labels << "` ";
        os << "p50/p95/p99 = "
           << util::format_number(obs::histogram_quantile(sample, 0.50), 4)
           << " / "
           << util::format_number(obs::histogram_quantile(sample, 0.95), 4)
           << " / "
           << util::format_number(obs::histogram_quantile(sample, 0.99), 4)
           << ' ' << unit << " (" << util::format_count(sample.count)
           << " observations)\n";
      }
    };
    quantile_line("ascdg_farm_chunk_latency_us", "Chunk latency quantiles",
                  "us");
    quantile_line("ascdg_eval_batch_size", "Evaluation batch-size quantiles",
                  "points");
  }

  if (flow.first_hits.empty()) return;

  // Coverage progress: how many target events each phase closed.
  static constexpr std::array<const char*, 5> kPhases{
      "before", "sampling", "optimization", "harvest", "never"};
  std::array<std::size_t, 5> newly{};
  for (const auto& hit : flow.first_hits) {
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      if (hit.phase == kPhases[p]) {
        ++newly[p];
        break;
      }
    }
  }
  os << "\nCoverage progress (" << flow.first_hits.size()
     << " target events):\n\n"
     << "| phase | newly hit | cumulative |\n| --- | ---: | ---: |\n";
  std::size_t cumulative = 0;
  for (std::size_t p = 0; p + 1 < kPhases.size(); ++p) {
    cumulative += newly[p];
    os << "| " << kPhases[p] << " | " << newly[p] << " | " << cumulative
       << " |\n";
  }
  if (newly.back() != 0) {
    os << "| never | " << newly.back() << " | — |\n";
  }

  if (flow.first_hits.size() <= 24) {
    os << "\n| target event | first hit |\n| --- | --- |\n";
    for (const auto& hit : flow.first_hits) {
      os << "| `" << space.name(hit.event) << "` | " << hit.phase << " |\n";
    }
  }
}

void write_metrics_json(const std::filesystem::path& path,
                        const coverage::CoverageSpace& space,
                        const flow::FlowResult& flow,
                        const obs::MetricsSnapshot& snapshot) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      throw util::Error("cannot create directory '" +
                        path.parent_path().string() + "': " + ec.message());
    }
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    throw util::Error("cannot open '" + path.string() + "' for writing");
  }

  const auto series_json = [](const opt::OptResult& result) {
    std::string out = "[";
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
      const auto& r = result.trace[i];
      if (i != 0) out += ',';
      out += util::JsonObject{}
                 .add("iter", r.iteration)
                 .add("objective", r.center_value)
                 .add("best", r.best_value)
                 .add("step", r.step)
                 .add("evals", r.evaluations)
                 .add("moved", r.moved)
                 .add("resamples", r.resamples)
                 .add("halved", r.halved)
                 .str();
    }
    out += ']';
    return out;
  };

  std::string first_hits = "[";
  for (std::size_t i = 0; i < flow.first_hits.size(); ++i) {
    const auto& hit = flow.first_hits[i];
    if (i != 0) first_hits += ',';
    first_hits += util::JsonObject{}
                      .add("event", space.name(hit.event))
                      .add("event_id", hit.event.value)
                      .add("phase", hit.phase)
                      .str();
  }
  first_hits += ']';

  std::ostringstream registry;
  obs::write_json(registry, snapshot);
  std::string registry_json = registry.str();
  while (!registry_json.empty() && registry_json.back() == '\n') {
    registry_json.pop_back();
  }

  // Digest of the registry's health series (the full series are also in
  // "registry"; this block saves consumers the label-parsing).
  const auto health_gauge = [&](std::string_view name) -> std::int64_t {
    const obs::MetricSample* sample = snapshot.find(name);
    return sample != nullptr ? sample->gauge : 0;
  };
  util::JsonObject run_health;
  run_health.add("rss_bytes", health_gauge("ascdg_proc_rss_bytes"))
      .add("max_rss_bytes", health_gauge("ascdg_proc_max_rss_bytes"))
      .add("cpu_user_ms", health_gauge("ascdg_proc_cpu_user_ms"))
      .add("cpu_system_ms", health_gauge("ascdg_proc_cpu_system_ms"))
      .add("major_faults", health_gauge("ascdg_proc_major_faults"));

  // The throughput headline rides along pre-digested so that
  // `ascdg inspect --compare` (and any trend dashboard) can show the
  // batched-kernel speedup without re-summing the registry series.
  const FarmTotals farm = farm_totals(snapshot);

  util::JsonObject document;
  document.add("schema", "ascdg-run-metrics-v1")
      .add("seed_template", flow.seed_template)
      .add("flow_sims", flow.flow_sims())
      .add("farm_sims", farm.sims)
      .add("sims_per_sec", farm.sims_per_sec())
      .add_raw("run_health", run_health.str())
      .add_raw("opt_series", series_json(flow.optimization));
  if (flow.refinement.has_value()) {
    document.add_raw("refine_series", series_json(*flow.refinement));
  }
  document.add_raw("first_hits", first_hits)
      .add_raw("registry", registry_json);
  os << document.str() << '\n';
  os.flush();
  if (!os) {
    throw util::Error("failed writing '" + path.string() + "'");
  }
}

std::string phase_caption(const flow::FlowResult& flow) {
  std::string caption;
  caption += "Before CDG (" + util::format_count(flow.before.sims) + " sims); ";
  caption += "Sampling (" + std::to_string(flow.sampling.templates) +
             " tests x " + std::to_string(flow.sampling.sims_per_template) +
             " sims each); ";
  caption += "Optimization (" + std::to_string(flow.optimization.trace.size()) +
             " iterations, " + util::format_count(flow.optimization_phase.sims) +
             " sims); ";
  caption += "Best test (" + util::format_count(flow.harvest_phase.sims) +
             " sims)";
  return caption;
}

}  // namespace ascdg::report
