// ascdg — command-line front end for the AS-CDG flow on the bundled
// simulated units.
//
//   ascdg units
//   ascdg events <unit> [prefix]
//   ascdg suite <unit> [--out FILE]
//   ascdg skeletonize <template-file> [--subranges N] [--geometric]
//                     [--mark-zeros] [--out FILE]
//   ascdg before <unit> [--sims N] [--csv FILE]
//   ascdg policy <unit> [--sims N]
//   ascdg holes <unit> --family F [--sims N] [--max-order K]
//   ascdg run <unit> --family F [--before-sims N] [--samples N]
//             [--sample-sims N] [--iterations N] [--directions N]
//             [--point-sims N] [--harvest N] [--seed S] [--refine]
//             [--backend=thread|process[:N]] [--session DIR] [--resume]
//             [--save-best FILE] [--csv FILE] [--metrics FILE]
//             [--serve[=PORT]] [--timeline[=MS]]
//   ascdg campaign <unit> --families F1,F2,... [budget flags as `run`]
//             [--seed-template NAME] [--session DIR] [--resume]
//             [--save-best FILE] [--timeline[=MS]]
//   ascdg inspect <session-dir> [--compare DIR2] [--json]
//   ascdg metrics-dump [unit] [--sims N] [--json]
//
// Unknown flags are rejected (exit 1) rather than silently ignored.
// Exit codes: 0 success, 1 usage error, 2 runtime error.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "flow/campaign.hpp"
#include "flow/runner.hpp"
#include "cdg/skeletonizer.hpp"
#include "coverage/holes.hpp"
#include "coverage/repository_io.hpp"
#include "duv/registry.hpp"
#include "neighbors/neighbors.hpp"
#include "flow/artifacts.hpp"
#include "flow/session.hpp"
#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/run_state.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "obs/trace_profile.hpp"
#include "report/report.hpp"
#include "stimgen/profile.hpp"
#include "tac/tac.hpp"
#include "tgen/file_io.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace {

using namespace ascdg;

int usage() {
  std::cerr <<
      R"(usage: ascdg <command> [options]

commands:
  units                             list the bundled simulated units
  events <unit> [prefix]            list coverage events (optionally filtered)
  suite <unit> [--out FILE]         print/save the unit's regression suite
  skeletonize <template-file>       print the skeleton of a template
      [--subranges N] [--geometric] [--mark-zeros] [--out FILE]
  before <unit> [--sims N]          simulate the suite; TAC coverage summary
      [--csv FILE]
  policy <unit> [--sims N]          suggest a minimal regression policy
  profile <unit> [--sims N]         per-parameter draw counts (SS-III)
  holes <unit> --family F           cross-product hole analysis
      [--sims N] [--max-order K]
  run <unit> --family F             the full AS-CDG flow on a family
      [--before-sims N] [--samples N] [--sample-sims N] [--iterations N]
      [--directions N] [--point-sims N] [--harvest N] [--seed S]
      [--refine] [--save-best FILE] [--csv FILE] [--report FILE.md]
      [--backend=thread|process[:N]] (execution backend, default thread;
                       process forks N worker processes — also accepted
                       by before/policy/holes/campaign/metrics-dump)
      [--session DIR] (checkpoint every stage boundary and optimizer
                       iteration into a durable session directory)
      [--resume] (restart from DIR's last checkpoint after a crash)
      [--save-before FILE.csv] [--before-csv FILE.csv]
      [--trace[ FILE.jsonl]] (bare --trace with --session writes
                              DIR/trace.jsonl for `ascdg inspect`)
      [--metrics FILE.json]
      [--serve[=PORT]] (live HTTP introspection on 127.0.0.1; bare
                        --serve picks an ephemeral port)
      [--timeline[=MS]] (periodic telemetry sampling into the session's
                         telemetry.jsonl + /timeseries; bare --timeline
                         samples once a second)
  campaign <unit> --families F1,F2,...  multi-target flow: one shared
      [budget flags as `run`]        sampling phase, per-target
      [--seed-template NAME]         optimization + harvest
      [--session DIR] [--resume]     (independently resumable per target)
      [--save-best FILE] [--timeline[=MS]]
  inspect <session-dir>              offline analysis of a durable session
      [--compare DIR2]               (or campaign root): stage costs,
      [--json]                       coverage convergence, telemetry
                                     timeline, span-trace profile;
                                     --compare prints the A/B delta
  metrics-dump [unit] [--sims N]     run a small workload and dump the
      [--json]                       metrics registry (Prometheus text,
                                     or one JSON object with --json)
)";
  return 1;
}

std::unique_ptr<duv::Duv> make_unit(const std::string& name) {
  return duv::make_unit(name);
}

/// Tiny argv cursor: flag/value extraction with error reporting.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// First non-flag positional argument, consumed.
  std::optional<std::string> positional() {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!args_[i].starts_with("--")) {
        std::string value = args_[i];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return value;
      }
    }
    return std::nullopt;
  }

  bool flag(const char* name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Accepts both "--name VALUE" and "--name=VALUE". A following token
  /// that starts with "--" is the next flag, never a value: "--name"
  /// then stays unconsumed, so a caller may still take it as a bare
  /// flag.
  std::optional<std::string> value(const char* name) {
    const std::string joined = std::string(name) + "=";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].starts_with(joined)) {
        std::string out = args_[i].substr(joined.size());
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return out;
      }
      if (i + 1 < args_.size() && args_[i] == name &&
          !args_[i + 1].starts_with("--")) {
        std::string out = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return out;
      }
    }
    return std::nullopt;
  }

  std::size_t size_value(const char* name, std::size_t fallback) {
    const auto text = value(name);
    if (!text.has_value()) return fallback;
    const auto parsed = util::parse_int(*text);
    if (!parsed.has_value() || *parsed < 0) {
      throw util::ConfigError(std::string("bad value for ") + name + ": '" +
                              *text + "'");
    }
    return static_cast<std::size_t>(*parsed);
  }

  /// Remaining unconsumed arguments (should be empty at the end).
  [[nodiscard]] const std::vector<std::string>& rest() const { return args_; }

 private:
  std::vector<std::string> args_;
};

/// Consumes --backend[=SPEC] (thread farm by default). A spec that
/// does not parse is a usage error: the message lands on stderr and
/// nullopt comes back, so callers `return 1` instead of letting the
/// exception reach main's runtime-error path (exit 2).
std::optional<ascdg::exec::BackendConfig> backend_config_from_args(
    Args& args) {
  ascdg::exec::BackendConfig config;
  if (const auto spec = args.value("--backend"); spec.has_value()) {
    try {
      config = ascdg::exec::parse_backend_spec(*spec);
    } catch (const util::ConfigError& err) {
      std::cerr << "error: " << err.what() << '\n';
      return std::nullopt;
    }
  }
  return config;
}

/// Builds the configured execution backend. Callers must do so BEFORE
/// starting any helper thread (HTTP server, timeline sampler): the
/// process backend forks its workers here, and fork + threads do not
/// mix (see docs/backends.md).
std::unique_ptr<ascdg::exec::Backend> start_backend(
    const ascdg::exec::BackendConfig& config) {
  obs::run_state().set_backend(ascdg::exec::to_string(config));
  return ascdg::exec::make_backend(config);
}

/// Unknown flags fail the command: a typo like --timline=30 that
/// silently no-ops is worse than an error. Prints the usage error and
/// returns true when any argument is left unconsumed.
bool reject_leftover_args(const Args& args) {
  if (args.rest().empty()) return false;
  std::cerr << "error: unrecognized argument(s):";
  for (const auto& arg : args.rest()) std::cerr << ' ' << arg;
  std::cerr << "\nrun `ascdg` without arguments for usage\n";
  return true;
}

/// A flow config no run could complete (flow::validate) is a usage
/// error: prints it and returns true, before any simulation or side
/// effect.
bool reject_invalid_config(const flow::FlowConfig& config) {
  try {
    flow::validate(config);
  } catch (const util::ConfigError& err) {
    std::cerr << "error: " << err.what() << '\n';
    return true;
  }
  return false;
}

/// Reads --backend, rejects leftover arguments, then starts the
/// backend; nullptr after the usage error on a bad spec or a leftover.
/// Call once every other option is read.
std::unique_ptr<ascdg::exec::Backend> backend_from_args(Args& args) {
  const auto config = backend_config_from_args(args);
  if (!config.has_value() || reject_leftover_args(args)) return nullptr;
  return start_backend(*config);
}

coverage::CoverageRepository simulate_suite(const duv::Duv& unit,
                                            exec::Backend& farm,
                                            std::size_t sims) {
  coverage::CoverageRepository repo(unit.space().size());
  const auto suite = unit.suite();
  std::vector<exec::Job> jobs;
  for (std::size_t j = 0; j < suite.size(); ++j) {
    jobs.push_back({&suite[j], sims, 0xC11 + j});
  }
  const auto stats = farm.run_all(unit, jobs);
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), stats[j]);
  }
  return repo;
}

int cmd_units(const Args& args) {
  if (reject_leftover_args(args)) return 1;
  for (const auto& name : duv::unit_names()) {
    std::cout << name << std::string(name.size() < 10 ? 10 - name.size() : 1, ' ')
              << duv::unit_description(name) << '\n';
  }
  return 0;
}

int cmd_events(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const auto prefix = args.positional().value_or("");
  if (reject_leftover_args(args)) return 1;
  const auto& space = unit->space();
  std::size_t shown = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const coverage::EventId id{static_cast<std::uint32_t>(i)};
    if (!space.name(id).starts_with(prefix)) continue;
    std::cout << space.name(id) << '\n';
    ++shown;
  }
  std::cerr << shown << " events";
  if (!prefix.empty()) std::cerr << " matching '" << prefix << "'";
  std::cerr << "; families:";
  for (const auto& family : space.family_names()) std::cerr << ' ' << family;
  std::cerr << '\n';
  return 0;
}

int cmd_suite(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const auto out = args.value("--out");
  if (reject_leftover_args(args)) return 1;
  const auto suite = unit->suite();
  if (out.has_value()) {
    tgen::save_templates(*out, suite);
    std::cerr << "wrote " << suite.size() << " templates to " << *out << '\n';
    return 0;
  }
  for (const auto& tmpl : suite) std::cout << tgen::to_text(tmpl) << '\n';
  return 0;
}

int cmd_skeletonize(Args& args) {
  const auto file = args.positional();
  if (!file.has_value()) return usage();
  cdg::SkeletonizerOptions options;
  options.subranges = args.size_value("--subranges", options.subranges);
  if (args.flag("--geometric")) {
    options.spacing = cdg::SubrangeSpacing::kGeometric;
  }
  options.mark_zero_weights = args.flag("--mark-zeros");
  const auto out = args.value("--out");
  if (reject_leftover_args(args)) return 1;
  const auto tmpl = tgen::load_template(*file);
  const auto skeleton = cdg::Skeletonizer(options).skeletonize(tmpl);
  if (out.has_value()) {
    tgen::save_skeleton(*out, skeleton);
    std::cerr << "wrote skeleton (" << skeleton.mark_count() << " marks) to "
              << *out << '\n';
  } else {
    std::cout << tgen::to_text(skeleton);
    std::cerr << skeleton.mark_count() << " marks\n";
  }
  return 0;
}

int cmd_before(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const std::size_t sims = args.size_value("--sims", 2000);
  const auto csv = args.value("--csv");
  const auto farm = backend_from_args(args);
  if (farm == nullptr) return 1;
  const auto repo = simulate_suite(*unit, *farm, sims);

  util::Table table({"template", "sims", "events hit", "uncovered after"});
  const tac::Tac tac_view(repo);
  coverage::SimStats cumulative(unit->space().size());
  for (const auto& name : repo.template_names()) {
    const auto& stats = repo.stats(name);
    std::size_t hit = 0;
    for (std::size_t e = 0; e < stats.event_count(); ++e) {
      if (stats.hits(coverage::EventId{static_cast<std::uint32_t>(e)}) > 0) {
        ++hit;
      }
    }
    cumulative.merge(stats);
    std::size_t uncovered = 0;
    for (std::size_t e = 0; e < cumulative.event_count(); ++e) {
      if (cumulative.hits(coverage::EventId{static_cast<std::uint32_t>(e)}) ==
          0) {
        ++uncovered;
      }
    }
    table.add_row({name, util::format_count(stats.sims()),
                   std::to_string(hit), std::to_string(uncovered)});
  }
  table.render(std::cout, util::stdout_supports_color());
  const auto uncovered = tac_view.uncovered_events();
  std::cout << "\nuncovered events (" << uncovered.size() << "):";
  for (const auto event : uncovered) {
    std::cout << ' ' << unit->space().name(event);
  }
  std::cout << '\n';
  if (csv.has_value()) {
    std::ofstream out(*csv);
    table.render_csv(out);
    std::cerr << "wrote " << *csv << '\n';
  }
  return 0;
}

int cmd_policy(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const std::size_t sims = args.size_value("--sims", 2000);
  const auto farm = backend_from_args(args);
  if (farm == nullptr) return 1;
  const auto repo = simulate_suite(*unit, *farm, sims);
  const tac::Tac tac_view(repo);
  const auto policy = tac_view.suggest_regression_policy();
  std::cout << "suggested regression policy (" << policy.size() << " of "
            << repo.template_names().size() << " templates, in value order):\n";
  for (const auto& name : policy) std::cout << "  " << name << '\n';
  return 0;
}

int cmd_profile(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const std::size_t sims = args.size_value("--sims", 500);
  if (reject_leftover_args(args)) return 1;
  stimgen::ScopedDrawProfiler profiler;
  for (std::size_t i = 0; i < sims; ++i) {
    (void)unit->simulate(unit->defaults(), 0xF0F1A + i);
  }
  util::Table table({"parameter", "total draws", "draws per simulation"});
  for (const auto& [name, count] : profiler.counts()) {
    table.add_row({name, util::format_count(count),
                   util::format_number(static_cast<double>(count) /
                                           static_cast<double>(sims),
                                       4)});
  }
  table.render(std::cout, util::stdout_supports_color());
  std::cout << "(" << sims << " simulations of the default template; "
            << "consult frequencies differ per parameter exactly as the "
               "paper's SS-III describes)\n";
  return 0;
}

int cmd_holes(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const auto family = args.value("--family");
  if (!family.has_value()) {
    std::cerr << "holes: --family is required\n";
    return 1;
  }
  const auto* cp = unit->space().find_cross_product(*family);
  if (cp == nullptr) {
    std::cerr << "'" << *family << "' is not a cross product on this unit\n";
    return 1;
  }
  const std::size_t sims = args.size_value("--sims", 2000);
  const std::size_t max_order = args.size_value("--max-order", 2);
  const auto farm = backend_from_args(args);
  if (farm == nullptr) return 1;
  const auto repo = simulate_suite(*unit, *farm, sims);
  const auto holes =
      coverage::find_holes(unit->space(), *cp, repo.total(), max_order);
  std::cout << holes.size() << " maximal holes (order <= " << max_order
            << ") after " << util::format_count(repo.total_sims())
            << " suite sims:\n";
  for (const auto& hole : holes) {
    std::cout << "  " << coverage::describe(*cp, hole) << '\n';
  }
  return 0;
}

int cmd_run(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const auto family = args.value("--family");
  if (!family.has_value()) {
    std::cerr << "run: --family is required\n";
    return 1;
  }
  if (unit->space().family_events(*family).empty()) {
    std::cerr << "unknown family '" << *family << "'; families:";
    for (const auto& name : unit->space().family_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 1;
  }

  flow::FlowConfig config;
  const std::size_t before_sims = args.size_value("--before-sims", 5000);
  config.sample_templates = args.size_value("--samples", 200);
  config.sample_sims = args.size_value("--sample-sims", 100);
  config.opt_max_iterations = args.size_value("--iterations", 25);
  config.opt_directions = args.size_value("--directions", 19);
  config.opt_sims_per_point = args.size_value("--point-sims", 200);
  config.harvest_sims = args.size_value("--harvest", 10000);
  config.seed = args.size_value("--seed", 2021);
  config.refine_with_real_target = args.flag("--refine");
  if (const auto session = args.value("--session"); session.has_value()) {
    config.session_dir = *session;
  }
  config.resume = args.flag("--resume");
  const auto backend_config = backend_config_from_args(args);
  if (!backend_config.has_value()) return 1;
  config.backend = *backend_config;

  // Live introspection. Bare `--serve` (consumed first so value() below
  // cannot eat the next flag as a port) means "ephemeral port"; the
  // spelled form must be `--serve=PORT`.
  if (args.flag("--serve")) {
    config.serve_port = 0;
  } else if (const auto port = args.value("--serve"); port.has_value()) {
    const auto parsed = util::parse_int(*port);
    if (!parsed.has_value() || *parsed < 0 || *parsed > 65535) {
      throw util::ConfigError("bad value for --serve: '" + *port + "'");
    }
    config.serve_port = static_cast<std::uint16_t>(*parsed);
  }
  // Bare --timeline samples once a second; --timeline=MS tunes it.
  if (args.flag("--timeline")) {
    config.timeline_interval_ms = 1000;
  } else {
    config.timeline_interval_ms = args.size_value("--timeline", 0);
  }
  std::string trace_path;
  if (const auto path = args.value("--trace"); path.has_value()) {
    trace_path = *path;
  } else if (args.flag("--trace") && !config.session_dir.empty()) {
    // Bare --trace (no FILE) drops the sink into the session directory,
    // where `ascdg inspect` picks it up.
    trace_path = (std::filesystem::path(config.session_dir) /
                  std::filesystem::path(flow::kTraceFile))
                     .string();
  }
  const auto metrics_path = args.value("--metrics");
  const auto before_csv = args.value("--before-csv");
  const auto save_before = args.value("--save-before");
  const auto save_best = args.value("--save-best");
  const auto csv_path = args.value("--csv");
  const auto report_path = args.value("--report");
  // Every option is read: a typo or an unrunnable budget fails here,
  // before any simulation or side effect (worker processes, session
  // directory, trace file).
  if (reject_leftover_args(args) || reject_invalid_config(config)) return 1;

  // The backend forks its worker processes (when --backend=process)
  // right here — before the timeline/HTTP helper threads below exist,
  // because fork + threads do not mix (docs/backends.md).
  const auto farm = start_backend(config.backend);

  // The telemetry sinks below (--trace, --timeline) may live inside the
  // session directory, which Session::create would otherwise only make
  // after the flow starts.
  if (!config.session_dir.empty()) {
    std::filesystem::create_directories(config.session_dir);
  }

  std::unique_ptr<obs::Tracer> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::Tracer>(trace_path);
    config.trace = trace.get();
  }

  // Declared before the server so the /timeseries route never outlives
  // the ring it reads.
  std::unique_ptr<obs::TimeSeriesRecorder> timeline;
  if (config.timeline_interval_ms != 0) {
    obs::TimeSeriesConfig ts_config;
    ts_config.sample_interval =
        std::chrono::milliseconds(config.timeline_interval_ms);
    ts_config.append = config.resume;
    if (!config.session_dir.empty()) {
      const std::filesystem::path session_dir = config.session_dir;
      ts_config.jsonl_path = session_dir / flow::kTelemetryFile;
      ts_config.index_path = session_dir / flow::kTelemetryIndexFile;
    }
    timeline = std::make_unique<obs::TimeSeriesRecorder>(ts_config);
  }
  std::unique_ptr<obs::HttpServer> server;
  if (config.serve_port.has_value()) {
    obs::HttpServerConfig http_config;
    http_config.port = *config.serve_port;
    http_config.timeline = timeline.get();
    server = std::make_unique<obs::HttpServer>(http_config);
    std::cerr << "serving live introspection on http://127.0.0.1:"
              << server->port()
              << " (/metrics /metrics.json /healthz /runz /timeseries)\n";
  }

  coverage::CoverageRepository repo(unit->space().size());
  if (before_csv.has_value()) {
    repo = coverage::load_repository(*before_csv, unit->space());
    std::cerr << "loaded before-CDG coverage from " << *before_csv << " ("
              << util::format_count(repo.total_sims()) << " sims)\n";
  } else {
    repo = simulate_suite(*unit, *farm, before_sims);
  }
  if (save_before.has_value()) {
    coverage::save_repository(*save_before, unit->space(), repo);
    std::cerr << "wrote before-CDG coverage to " << *save_before << '\n';
  }
  const auto target =
      neighbors::family_target(unit->space(), *family, repo.total());
  std::cout << "targets (" << target.targets().size() << "):";
  for (const auto event : target.targets()) {
    std::cout << ' ' << unit->space().name(event);
  }
  std::cout << '\n';

  flow::CdgRunner runner(*unit, *farm, config);
  const auto suite = unit->suite();
  const auto result = runner.run(target, repo, suite);

  const auto events = unit->space().family_events(*family);
  const bool color = util::stdout_supports_color();
  std::cout << "seed template: " << result.seed_template << "\n"
            << report::phase_caption(result) << "\n\n";
  if (events.size() <= 24) {
    report::phase_table(unit->space(), events, result).render(std::cout, color);
  } else {
    report::render_status_bars(std::cout, events, result, color);
    std::cout << '\n';
    report::status_table(unit->space(), events, result)
        .render(std::cout, color);
  }
  std::cout << "\ntotal simulations: "
            << util::format_count(farm->total_simulations()) << '\n';
  if (runner.session_summary().has_value()) {
    const auto& session = *runner.session_summary();
    std::cout << "session: " << session.dir;
    if (!session.resumed_from.empty()) {
      std::cout << " (resume #" << session.resumes << ", picked up after '"
                << session.resumed_from << "')";
    }
    std::cout << '\n';
  }

  if (save_best.has_value()) {
    tgen::save_template(*save_best, result.best_template);
    std::cerr << "wrote best template to " << *save_best << '\n';
  }
  if (csv_path.has_value()) {
    std::ofstream out(*csv_path);
    report::phase_table(unit->space(), events, result).render_csv(out);
    std::cerr << "wrote " << *csv_path << '\n';
  }
  if (report_path.has_value()) {
    const auto farm_stats = farm->telemetry();
    const auto& session = runner.session_summary();
    report::write_flow_markdown(*report_path, unit->space(), events, result,
                                &farm_stats,
                                session.has_value() ? &*session : nullptr);
    std::cerr << "wrote " << *report_path << '\n';
  }
  if (metrics_path.has_value()) {
    report::write_metrics_json(*metrics_path, unit->space(), result,
                               obs::registry().snapshot());
    std::cerr << "wrote metrics snapshot to " << *metrics_path << '\n';
  }
  if (trace != nullptr) {
    std::cerr << "wrote " << trace->lines() << " trace events to "
              << trace_path << '\n';
  }
  if (timeline != nullptr) {
    timeline->stop();
    std::cerr << "recorded " << timeline->samples_taken()
              << " telemetry samples";
    if (!config.session_dir.empty()) {
      std::cerr << " in " << config.session_dir << '/' << flow::kTelemetryFile;
    }
    std::cerr << '\n';
  }
  return 0;
}

int cmd_campaign(Args& args) {
  const auto unit_name = args.positional();
  if (!unit_name.has_value()) return usage();
  const auto unit = make_unit(*unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << *unit_name << "'\n";
    return 1;
  }
  const auto families_arg = args.value("--families");
  if (!families_arg.has_value()) {
    std::cerr << "campaign: --families F1,F2,... is required\n";
    return 1;
  }

  flow::FlowConfig config;
  const std::size_t before_sims = args.size_value("--before-sims", 5000);
  config.sample_templates = args.size_value("--samples", 200);
  config.sample_sims = args.size_value("--sample-sims", 100);
  config.opt_max_iterations = args.size_value("--iterations", 25);
  config.opt_directions = args.size_value("--directions", 19);
  config.opt_sims_per_point = args.size_value("--point-sims", 200);
  config.harvest_sims = args.size_value("--harvest", 10000);
  config.seed = args.size_value("--seed", 2021);
  if (const auto session = args.value("--session"); session.has_value()) {
    config.session_dir = *session;
  }
  config.resume = args.flag("--resume");
  const auto backend_config = backend_config_from_args(args);
  if (!backend_config.has_value()) return 1;
  config.backend = *backend_config;
  if (args.flag("--timeline")) {
    config.timeline_interval_ms = 1000;
  } else {
    config.timeline_interval_ms = args.size_value("--timeline", 0);
  }
  const auto seed_template_name = args.value("--seed-template");
  const auto save_best = args.value("--save-best");
  // Every option is read: a typo or an unrunnable budget fails here,
  // before any simulation or side effect (worker processes, session
  // directory).
  if (reject_leftover_args(args) || reject_invalid_config(config)) return 1;
  // Construct the backend before the timeline sampler thread below:
  // the process backend forks, and fork + threads do not mix.
  const auto farm = start_backend(config.backend);
  // The campaign timeline lives at the campaign root, spanning every
  // per-target sub-session; without a session directory there is no
  // durable home (or live server) for it, so it stays off.
  std::unique_ptr<obs::TimeSeriesRecorder> timeline;
  if (config.timeline_interval_ms != 0 && !config.session_dir.empty()) {
    obs::TimeSeriesConfig ts_config;
    ts_config.sample_interval =
        std::chrono::milliseconds(config.timeline_interval_ms);
    ts_config.append = config.resume;
    const std::filesystem::path root = config.session_dir;
    ts_config.jsonl_path = root / flow::kTelemetryFile;
    ts_config.index_path = root / flow::kTelemetryIndexFile;
    timeline = std::make_unique<obs::TimeSeriesRecorder>(ts_config);
  }

  const auto repo = simulate_suite(*unit, *farm, before_sims);

  std::vector<neighbors::ApproximatedTarget> targets;
  std::vector<std::string> family_names;
  for (const auto family : util::split(*families_arg, ',')) {
    if (family.empty()) continue;
    const std::string name(family);
    if (unit->space().family_events(name).empty()) {
      std::cerr << "unknown family '" << name << "'; families:";
      for (const auto& f : unit->space().family_names()) std::cerr << ' ' << f;
      std::cerr << '\n';
      return 1;
    }
    family_names.push_back(name);
    targets.push_back(
        neighbors::family_target(unit->space(), name, repo.total()));
  }
  if (targets.empty()) {
    std::cerr << "campaign: --families lists no usable family\n";
    return 1;
  }

  // Seed template: explicit --seed-template NAME, or the coarse
  // search's top pick for the first family.
  const auto suite = unit->suite();
  std::string wanted;
  if (seed_template_name.has_value()) {
    wanted = *seed_template_name;
  } else {
    wanted = flow::coarse_search(targets.front(), repo, 1).front().name;
  }
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& tmpl : suite) {
    if (tmpl.name() == wanted) {
      seed_tmpl = &tmpl;
      break;
    }
  }
  if (seed_tmpl == nullptr) {
    std::cerr << "campaign: seed template '" << wanted
              << "' is not in the unit's suite\n";
    return 1;
  }

  const auto result =
      flow::run_multi_target(*unit, *farm, config, targets, *seed_tmpl);

  std::cout << "campaign: " << targets.size() << " targets, shared sampling of "
            << util::format_count(result.sampling.simulations)
            << " sims saved " << util::format_count(result.sims_saved)
            << " sims\nseed template: " << seed_tmpl->name() << "\n\n";
  util::Table table({"family", "opt best value", "flow sims", "targets hit"});
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto& flow_result = result.per_target[t];
    const auto& harvest = flow_result.harvest_phase.stats;
    std::size_t hit = 0;
    for (const auto event : targets[t].targets()) {
      if (harvest.sims() != 0 && event.value < harvest.event_count() &&
          harvest.hits(event) > 0) {
        ++hit;
      }
    }
    table.add_row(
        {family_names[t],
         util::format_number(flow_result.optimization.best_value, 4),
         util::format_count(flow_result.flow_sims()),
         std::to_string(hit) + "/" +
             std::to_string(targets[t].targets().size())});
  }
  table.render(std::cout, util::stdout_supports_color());
  std::cout << "\ntotal simulations: "
            << util::format_count(farm->total_simulations()) << '\n';
  if (!result.session_dir.empty()) {
    std::cout << "campaign session: " << result.session_dir << " ("
              << result.sessions.size() << " sub-sessions)\n";
  }

  if (save_best.has_value()) {
    std::vector<tgen::TestTemplate> bests;
    bests.reserve(result.per_target.size());
    for (const auto& fr : result.per_target) bests.push_back(fr.best_template);
    tgen::save_templates(*save_best, bests);
    std::cerr << "wrote " << bests.size() << " best templates to " << *save_best
              << '\n';
  }
  if (timeline != nullptr) {
    timeline->stop();
    std::cerr << "recorded " << timeline->samples_taken()
              << " telemetry samples in " << config.session_dir << '/'
              << flow::kTelemetryFile << '\n';
  }
  return 0;
}

// --- ascdg inspect: offline analysis of a durable session ----------------

/// Everything `inspect` extracts from one session directory (or
/// campaign root, whose sub-sessions are merged into one view).
struct InspectData {
  std::string dir;
  bool campaign = false;
  std::uint64_t seed = 0;
  std::uint64_t resumes = 0;
  std::string resumed_from;

  struct StageRow {
    std::string session;  ///< sub-session name; "" for a single session
    std::string name;
    std::string status;
    std::size_t sims = 0;
    double wall_ms = 0.0;
    /// Iterations in the checkpoint journal of a stage caught running.
    std::optional<std::size_t> journaled;
  };
  std::vector<StageRow> stages;

  /// Coverage convergence: cumulative (sims, covered events) after each
  /// completed phase artifact, in execution order.
  struct Point {
    std::string label;
    std::size_t sims = 0;
    std::size_t covered = 0;
  };
  std::vector<Point> convergence;
  std::size_t total_sims = 0;
  std::size_t covered_events = 0;
  double wall_ms = 0.0;  ///< summed stage wall time
  std::optional<opt::OptResult> optimization;  ///< first target's curve

  bool has_telemetry = false;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t telemetry_last_t_ms = 0;
  std::uint64_t telemetry_peak_rss = 0;
  double telemetry_max_sims_per_sec = 0.0;

  bool has_trace = false;
  obs::TraceProfile profile;

  /// The headline efficiency number: flow simulations spent per event
  /// the flow covered (0 when nothing was covered).
  [[nodiscard]] double sims_per_covered_event() const noexcept {
    return covered_events == 0 ? 0.0
                               : static_cast<double>(total_sims) /
                                     static_cast<double>(covered_events);
  }

  /// The throughput headline: flow simulations per second of summed
  /// stage wall time (0 when no stage recorded any wall time). This is
  /// the number `--compare` turns into a speedup, so the batched-kernel
  /// win between two sessions is visible from the artifacts alone.
  [[nodiscard]] double sims_per_sec() const noexcept {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(total_sims) * 1000.0 / wall_ms;
  }
};

void merge_hits(std::vector<unsigned char>& hit_flags,
                const coverage::SimStats& stats) {
  if (stats.event_count() > hit_flags.size()) {
    hit_flags.resize(stats.event_count(), 0);
  }
  for (std::size_t e = 0; e < stats.event_count(); ++e) {
    if (stats.hits(coverage::EventId{static_cast<std::uint32_t>(e)}) > 0) {
      hit_flags[e] = 1;
    }
  }
}

std::optional<flow::PhaseOutcome> read_phase_artifact(
    const std::filesystem::path& file) {
  if (!std::filesystem::exists(file)) return std::nullopt;
  return flow::phase_outcome_from_json(
      flow::read_digested_json_file(file).at("phase"));
}

/// Folds one session directory's manifest + phase artifacts into
/// `data`, accumulating the covered-event union in `hit_flags`.
void gather_session(const std::filesystem::path& dir,
                    const std::string& session_label, InspectData& data,
                    std::vector<unsigned char>& hit_flags) {
  const util::JsonValue manifest =
      flow::read_digested_json_file(dir / "manifest.json");
  if (manifest.at("schema").as_string() != flow::kSessionSchema) {
    throw util::Error("'" + dir.string() + "' has unknown manifest schema '" +
                      manifest.at("schema").as_string() + "'");
  }
  if (session_label.empty()) {
    data.seed = flow::parse_hex_u64(manifest.at("seed"));
    data.resumed_from = manifest.at("resumed_from").as_string();
  }
  data.resumes += manifest.at("resumes").as_uint64();
  for (const auto& entry : manifest.at("stages").as_array()) {
    InspectData::StageRow row;
    row.session = session_label;
    row.name = entry.at("name").as_string();
    row.status = entry.at("status").as_string();
    row.sims = entry.at("sims").as_size();
    row.wall_ms = entry.at("wall_ms").as_double();
    const std::filesystem::path journal =
        dir / flow::checkpoint_journal_name(row.name);
    if (row.status == "running" && std::filesystem::exists(journal)) {
      row.journaled = util::read_journal(journal).records.size();
    }
    data.wall_ms += row.wall_ms;
    data.stages.push_back(std::move(row));
  }

  const auto add_point = [&](const flow::PhaseOutcome& phase) {
    data.total_sims += phase.sims;
    merge_hits(hit_flags, phase.stats);
    std::size_t covered = 0;
    for (const unsigned char flag : hit_flags) covered += flag;
    std::string label = phase.name;
    if (!session_label.empty()) label = session_label + ": " + label;
    data.convergence.push_back({std::move(label), data.total_sims, covered});
  };
  if (const auto phase = read_phase_artifact(dir / "sampling.json")) {
    add_point(*phase);
  }
  // refinement.json supersedes optimization.json: its "phase" is the
  // optimization phase with the refinement sims folded in.
  const std::filesystem::path refinement = dir / "refinement.json";
  const std::filesystem::path optimization = dir / "optimization.json";
  if (std::filesystem::exists(refinement)) {
    add_point(flow::phase_outcome_from_json(
        flow::read_digested_json_file(refinement).at("phase")));
  } else if (const auto phase = read_phase_artifact(optimization)) {
    add_point(*phase);
  }
  if (!data.optimization.has_value() &&
      std::filesystem::exists(optimization)) {
    data.optimization = flow::opt_result_from_json(
        flow::read_digested_json_file(optimization).at("optimization"));
  }
  if (const auto phase = read_phase_artifact(dir / "harvest.json")) {
    add_point(*phase);
  }
}

/// Summarizes the session's telemetry.jsonl (when present). Malformed
/// lines — say, the torn tail of a crashed run — are skipped.
void gather_telemetry(const std::filesystem::path& dir, InspectData& data) {
  std::ifstream in(dir / std::filesystem::path(flow::kTelemetryFile));
  if (!in) return;
  data.has_telemetry = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const util::JsonValue doc = util::json_parse(line);
      ++data.telemetry_samples;
      data.telemetry_last_t_ms = doc.at("t_ms").as_uint64();
      if (const auto* rate = doc.find("sims_per_sec");
          rate != nullptr && rate->is_number()) {
        data.telemetry_max_sims_per_sec =
            std::max(data.telemetry_max_sims_per_sec, rate->as_double());
      }
      for (const char* key : {"rss_bytes", "max_rss_bytes"}) {
        if (const auto* rss = doc.find(key);
            rss != nullptr && rss->is_number()) {
          data.telemetry_peak_rss =
              std::max(data.telemetry_peak_rss, rss->as_uint64());
        }
      }
    } catch (const std::exception&) {
      // torn tail of a crashed run — the rest of the file still counts
    }
  }
}

InspectData inspect_dir(const std::filesystem::path& dir) {
  InspectData data;
  data.dir = dir.string();
  std::vector<unsigned char> hit_flags;
  if (std::filesystem::exists(dir / "manifest.json")) {
    gather_session(dir, "", data, hit_flags);
  } else if (std::filesystem::exists(dir / "campaign.json")) {
    data.campaign = true;
    const util::JsonValue doc = flow::read_digested_json_file(dir / "campaign.json");
    data.seed = flow::parse_hex_u64(doc.at("seed"));
    std::vector<std::filesystem::path> subs;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_directory() &&
          std::filesystem::exists(entry.path() / "manifest.json")) {
        subs.push_back(entry.path());
      }
    }
    std::sort(subs.begin(), subs.end());
    // The shared sampling session ran first; two-digit target dirs
    // otherwise keep execution order lexicographically.
    std::stable_partition(subs.begin(), subs.end(),
                          [](const std::filesystem::path& p) {
                            return p.filename() == "shared";
                          });
    for (const auto& sub : subs) {
      gather_session(sub, sub.filename().string(), data, hit_flags);
    }
  } else {
    throw util::Error("'" + dir.string() +
                      "' is not a session directory (no manifest.json or "
                      "campaign.json)");
  }
  std::size_t covered = 0;
  for (const unsigned char flag : hit_flags) covered += flag;
  data.covered_events = covered;

  gather_telemetry(dir, data);
  const std::filesystem::path trace =
      dir / std::filesystem::path(flow::kTraceFile);
  if (std::filesystem::exists(trace)) {
    data.has_trace = true;
    data.profile = obs::TraceProfile::from_jsonl(trace);
  }
  return data;
}

void render_inspection(std::ostream& os, const InspectData& data) {
  os << (data.campaign ? "campaign" : "session") << ": " << data.dir
     << "\nseed: " << data.seed << "  resumes: " << data.resumes;
  if (!data.resumed_from.empty()) {
    os << " (last picked up after '" << data.resumed_from << "')";
  }
  os << '\n';

  util::Table stage_table({"session", "stage", "status", "sims", "wall ms"});
  for (const auto& row : data.stages) {
    stage_table.add_row({row.session.empty() ? "-" : row.session, row.name,
                         row.status, util::format_count(row.sims),
                         util::format_number(row.wall_ms, 4)});
  }
  os << '\n';
  stage_table.render(os, false);
  for (const auto& row : data.stages) {
    if (!row.journaled.has_value()) continue;
    if (!row.session.empty()) os << row.session << ": ";
    os << row.name << ": " << row.status << ", " << *row.journaled
       << " iterations journaled\n";
  }

  if (data.optimization.has_value() && !data.optimization->trace.empty()) {
    os << "\noptimization convergence (best value per iteration):\n";
    report::render_trace(os, *data.optimization);
  }

  os << "\ncoverage convergence (cumulative sims -> covered events):\n";
  util::Table curve({"phase", "cumulative sims", "covered events"});
  for (const auto& point : data.convergence) {
    curve.add_row({point.label, util::format_count(point.sims),
                   std::to_string(point.covered)});
  }
  curve.render(os, false);
  os << "covered events: " << data.covered_events
     << "  flow sims: " << util::format_count(data.total_sims)
     << "  sims per covered event: "
     << util::format_number(data.sims_per_covered_event(), 3)
     << "\nwall time (stages): " << util::format_number(data.wall_ms, 4)
     << " ms  throughput: " << util::format_number(data.sims_per_sec(), 3)
     << " sims/sec\n";

  if (data.has_telemetry) {
    os << "\ntelemetry (" << flow::kTelemetryFile
       << "): " << data.telemetry_samples << " samples over "
       << data.telemetry_last_t_ms << " ms";
    if (data.telemetry_peak_rss != 0) {
      os << ", peak RSS "
         << util::format_number(
                static_cast<double>(data.telemetry_peak_rss) / (1024.0 * 1024.0),
                1)
         << " MiB";
    }
    if (data.telemetry_max_sims_per_sec > 0.0) {
      os << ", peak "
         << util::format_number(data.telemetry_max_sims_per_sec, 3)
         << " sims/s";
    }
    os << '\n';
  }

  if (data.has_trace) {
    os << "\nspan-trace profile (" << flow::kTraceFile << ", "
       << data.profile.spans() << " spans):\n";
    data.profile.render(os);
  }
}

std::string inspection_json(const InspectData& data) {
  util::JsonObject obj;
  obj.add("dir", data.dir)
      .add("campaign", data.campaign)
      .add("seed", data.seed)
      .add("resumes", data.resumes)
      .add("total_sims", data.total_sims)
      .add("covered_events", data.covered_events)
      .add("sims_per_covered_event", data.sims_per_covered_event())
      .add("sims_per_sec", data.sims_per_sec())
      .add("wall_ms", data.wall_ms);
  std::string curve = "[";
  for (std::size_t i = 0; i < data.convergence.size(); ++i) {
    if (i != 0) curve += ',';
    curve += util::JsonObject{}
                 .add("phase", data.convergence[i].label)
                 .add("sims", data.convergence[i].sims)
                 .add("covered", data.convergence[i].covered)
                 .str();
  }
  curve += ']';
  obj.add_raw("convergence", curve);
  if (data.has_telemetry) {
    obj.add_raw("telemetry",
                util::JsonObject{}
                    .add("samples", data.telemetry_samples)
                    .add("wall_ms", data.telemetry_last_t_ms)
                    .add("peak_rss_bytes", data.telemetry_peak_rss)
                    .add("max_sims_per_sec", data.telemetry_max_sims_per_sec)
                    .str());
  }
  if (data.has_trace) {
    std::string spans = "[";
    bool first = true;
    for (const auto& node : data.profile.flatten()) {
      if (!first) spans += ',';
      first = false;
      spans += util::JsonObject{}
                   .add("name", node.name)
                   .add("depth", node.depth)
                   .add("count", node.count)
                   .add("total_us", node.total_us)
                   .add("self_us", node.self_us)
                   .add("p50_us", node.p50_us)
                   .add("p95_us", node.p95_us)
                   .add("p99_us", node.p99_us)
                   .str();
    }
    spans += ']';
    obj.add_raw("profile", spans);
  }
  return obj.str();
}

int cmd_inspect(Args& args) {
  const auto dir = args.positional();
  if (!dir.has_value()) {
    std::cerr << "inspect: a session directory is required\n";
    return 1;
  }
  const bool as_json = args.flag("--json");
  const auto compare_dir = args.value("--compare");
  if (reject_leftover_args(args)) return 1;

  const InspectData a = inspect_dir(*dir);
  if (!compare_dir.has_value()) {
    if (as_json) {
      std::cout << util::JsonObject{}
                       .add("schema", "ascdg-inspect-v1")
                       .add_raw("session", inspection_json(a))
                       .str()
                << '\n';
    } else {
      render_inspection(std::cout, a);
    }
    return 0;
  }

  const InspectData b = inspect_dir(*compare_dir);
  const double delta_spce =
      b.sims_per_covered_event() - a.sims_per_covered_event();
  // B over A; 0 when A recorded no throughput (nothing to compare to).
  const double speedup = a.sims_per_sec() > 0.0
                             ? b.sims_per_sec() / a.sims_per_sec()
                             : 0.0;
  if (as_json) {
    std::cout << util::JsonObject{}
                     .add("schema", "ascdg-inspect-v1")
                     .add_raw("session", inspection_json(a))
                     .add_raw("compare", inspection_json(b))
                     .add("delta_sims_per_covered_event", delta_spce)
                     .add("delta_covered_events",
                          static_cast<std::int64_t>(b.covered_events) -
                              static_cast<std::int64_t>(a.covered_events))
                     .add("delta_total_sims",
                          static_cast<std::int64_t>(b.total_sims) -
                              static_cast<std::int64_t>(a.total_sims))
                     .add("delta_wall_ms", b.wall_ms - a.wall_ms)
                     .add("delta_sims_per_sec",
                          b.sims_per_sec() - a.sims_per_sec())
                     .add("sims_per_sec_speedup", speedup)
                     .add("delta_peak_rss_bytes",
                          static_cast<std::int64_t>(b.telemetry_peak_rss) -
                              static_cast<std::int64_t>(a.telemetry_peak_rss))
                     .str()
              << '\n';
    return 0;
  }

  render_inspection(std::cout, a);
  std::cout << "\n=== compared against " << b.dir << " ===\n";
  render_inspection(std::cout, b);
  util::Table delta({"metric", "A", "B", "delta (B-A)"});
  delta.add_row({"sims per covered event",
                 util::format_number(a.sims_per_covered_event(), 2),
                 util::format_number(b.sims_per_covered_event(), 2),
                 util::format_number(delta_spce, 2)});
  delta.add_row({"covered events", std::to_string(a.covered_events),
                 std::to_string(b.covered_events),
                 std::to_string(static_cast<std::int64_t>(b.covered_events) -
                                static_cast<std::int64_t>(a.covered_events))});
  delta.add_row({"flow sims", util::format_count(a.total_sims),
                 util::format_count(b.total_sims),
                 std::to_string(static_cast<std::int64_t>(b.total_sims) -
                                static_cast<std::int64_t>(a.total_sims))});
  delta.add_row({"wall ms", util::format_number(a.wall_ms, 4),
                 util::format_number(b.wall_ms, 4),
                 util::format_number(b.wall_ms - a.wall_ms, 4)});
  delta.add_row(
      {"sims/sec", util::format_number(a.sims_per_sec(), 3),
       util::format_number(b.sims_per_sec(), 3),
       speedup > 0.0 ? util::format_number(speedup, 2) + "x"
                     : util::format_number(
                           b.sims_per_sec() - a.sims_per_sec(), 3)});
  delta.add_row(
      {"peak RSS bytes", std::to_string(a.telemetry_peak_rss),
       std::to_string(b.telemetry_peak_rss),
       std::to_string(static_cast<std::int64_t>(b.telemetry_peak_rss) -
                      static_cast<std::int64_t>(a.telemetry_peak_rss))});
  std::cout << "\ndelta (B - A):\n";
  delta.render(std::cout, false);
  return 0;
}

int cmd_metrics_dump(Args& args) {
  const auto unit_name = args.positional().value_or("io_unit");
  const auto unit = make_unit(unit_name);
  if (unit == nullptr) {
    std::cerr << "unknown unit '" << unit_name << "'\n";
    return 1;
  }
  const std::size_t sims = args.size_value("--sims", 200);
  const bool as_json = args.flag("--json");

  // Exercise the farm + TAC so the registry has something to show:
  // every metric family a real run would touch gets registered here.
  const auto farm = backend_from_args(args);
  if (farm == nullptr) return 1;
  const auto repo = simulate_suite(*unit, *farm, sims);
  const tac::Tac tac_view(repo);
  (void)tac_view.best_templates(tac_view.uncovered_events(), 3);

  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  if (as_json) {
    obs::write_json(std::cout, snapshot);
  } else {
    std::cout << obs::to_prometheus(snapshot);
  }
  std::cerr << snapshot.samples.size() << " metric series after "
            << util::format_count(farm->total_simulations())
            << " simulations on " << unit_name << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  util::set_log_level(util::LogLevel::kWarn);
  try {
    // Arm fault-injection points before any IO so the fuzz harness can
    // hit the very first manifest write; a malformed spec is fatal.
    util::FailurePoint::install_from_env();
    if (command == "units") return cmd_units(args);
    if (command == "events") return cmd_events(args);
    if (command == "suite") return cmd_suite(args);
    if (command == "skeletonize") return cmd_skeletonize(args);
    if (command == "before") return cmd_before(args);
    if (command == "policy") return cmd_policy(args);
    if (command == "profile") return cmd_profile(args);
    if (command == "holes") return cmd_holes(args);
    if (command == "run") return cmd_run(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "metrics-dump") return cmd_metrics_dump(args);
    return usage();
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 2;
  }
}
