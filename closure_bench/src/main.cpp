// AS-CDG closure benchmark.
//
//   closure_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR] [--spans DIR]
//   closure_bench --selftest [--scratch DIR]
//
// Every run first makes one untimed verification flow at kDefaultSeed
// and checks it against the workload's recorded digest. A timed run
// (--trace 0) then runs complete flows of one workload back to back —
// each with its own set-up — until S seconds have passed and the
// distinct seeds have each run once, and prints the end-to-end metrics.
// A traced run (--trace 1) alternates plain and traced flows of the
// same seeds and prints the per-layer metrics. The last stdout line is
// the result object; closure_bench/README.md documents every metric.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "duv/registry.hpp"
#include "flows.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "util/log.hpp"

namespace cb = closure_bench;
using ascdg::exec::BackendConfig;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  bool selftest = false;
  std::filesystem::path scratch = ".bench_build/closure_bench/scratch";
  std::filesystem::path spans;
};

int usage(const std::string& why) {
  std::cerr << "closure_bench: " << why << "\n"
            << "usage: closure_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--spans DIR]\n"
            << "       closure_bench --selftest [--scratch DIR]\n"
            << "workloads:";
  for (const auto& w : cb::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

std::optional<Options> parse_args(int argc, char** argv, std::string& error) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value, &used);
      } else if (flag == "--scratch") {
        opt.scratch = value;
      } else if (flag == "--spans") {
        opt.spans = value;
      } else {
        error = "unknown argument " + flag;
        return std::nullopt;
      }
      if (used != 0 && used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + flag;
      return std::nullopt;
    }
  }
  if (opt.selftest) return opt;
  if (cb::find_workload(opt.workload) == nullptr) {
    error = "unknown workload '" + opt.workload + "'";
  } else if (!opt.seed.has_value()) {
    error = "--seed is required";
  } else if (!(opt.seconds > 0.0)) {
    error = "--seconds must be positive";
  } else if (opt.trace != 0 && opt.trace != 1) {
    error = "--trace must be 0 or 1";
  }
  return error.empty() ? std::optional<Options>(opt) : std::nullopt;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak RSS of this process image. VmHWM rather than getrusage's
/// ru_maxrss, which Linux carries across execve and so would report the
/// launching interpreter's peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_machine(std::ostream& out) {
  out << "machine: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\""
      << cpu_model() << "\" build=" << CLOSURE_BENCH_BUILD_TYPE
      << " workers=" << cb::kWorkers << '\n';
}

/// Collects flows and cross-flow verification for one run.
class RunBook {
 public:
  explicit RunBook(const cb::Workload& workload) : workload_(workload) {}

  /// Checks `s` against every earlier flow and records it. A flow that is
  /// not `measured` counts as attempted but stays out of every metric.
  void add(cb::FlowSample s, bool measured = true) {
    if (s.ok()) {
      const auto [it, first] = digests_.emplace(s.seed, s.digest);
      if (!first && it->second != s.digest) {
        s.error = "digest differs from an earlier flow of the same seed" +
                  std::string(s.traced ? " (traced vs plain)" : "");
      } else if (s.seed == cb::kDefaultSeed &&
                 s.digest != workload_.golden_digest) {
        s.error = "digest differs from the recorded default-seed digest";
      }
    }
    if (!s.ok()) fail("flow seed " + std::to_string(s.seed) + ": " + s.error);
    (measured ? samples_ : unmeasured_).push_back(std::move(s));
  }

  [[nodiscard]] const std::vector<cb::FlowSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] const std::vector<cb::FlowSample>& unmeasured() const {
    return unmeasured_;
  }
  [[nodiscard]] std::size_t attempted() const {
    return samples_.size() + unmeasured_.size();
  }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  /// Medians over ok flows (optionally only traced or only plain ones).
  template <typename F>
  [[nodiscard]] cb::Measured median_of(F field, std::optional<bool> traced,
                                       std::string note = "") const {
    std::vector<double> values;
    for (const auto& s : samples_) {
      if (s.ok() && (!traced || s.traced == *traced)) values.push_back(field(s));
    }
    return {cb::median(values), values.size(), std::move(note)};
  }

  /// The first ok flow of each distinct seed: fixed inputs, so metrics
  /// over them repeat exactly at a fixed run seed.
  [[nodiscard]] std::vector<const cb::FlowSample*> distinct_flows() const {
    std::vector<const cb::FlowSample*> out;
    std::set<std::uint64_t> seen;
    for (const auto& s : samples_) {
      if (s.ok() && !s.traced && seen.insert(s.seed).second) out.push_back(&s);
    }
    return out;
  }

 private:
  void fail(const std::string& why) {
    std::cerr << "closure_bench: FAILED " << why << '\n';
    ++failed_;
  }

  const cb::Workload& workload_;
  std::map<std::uint64_t, std::uint64_t> digests_;
  std::vector<cb::FlowSample> samples_;
  std::vector<cb::FlowSample> unmeasured_;
  std::size_t failed_ = 0;
};

void end_to_end_metrics(const RunBook& book, double peak_rss,
                        cb::MetricValues& out) {
  const auto all = std::nullopt;
  out["flow_wall_s"] = book.median_of(
      [](const auto& s) { return s.flow_wall_s; }, all, "median over flows");
  out["sims_per_s"] = book.median_of(
      [](const auto& s) { return static_cast<double>(s.flow_sims) / s.flow_wall_s; },
      all, "flow sims / flow wall, real time");
  out["setup_s"] = book.median_of(
      [](const auto& s) { return s.setup_s; }, all,
      "unit + backend + before-CDG, median over flows");
  // Result quality over the distinct-seed flows. Means and a pooled
  // ratio, not medians: per flow these are small integers or their
  // ratios (l3-coarse hits 8 or 9 targets), so a median jumps between
  // neighbouring values from one run seed to the next.
  const auto distinct = book.distinct_flows();
  double sims = 0, hit = 0, rate = 0;
  for (const auto* s : distinct) {
    sims += static_cast<double>(s->flow_sims);
    hit += static_cast<double>(s->targets_hit);
    rate += s->best_target_rate;
  }
  const double n = static_cast<double>(distinct.size());
  out["sims_per_target_hit"] = {hit == 0 ? 0.0 : sims / hit, distinct.size(),
                                "total flow sims / total targets hit, distinct seeds"};
  out["targets_hit"] = {n == 0 ? 0.0 : hit / n, distinct.size(),
                        "mean over distinct seeds"};
  out["best_target_rate"] = {n == 0 ? 0.0 : rate / n, distinct.size(),
                             "mean over distinct seeds"};
  out["peak_rss_mb"] = {peak_rss, 1,
                        "after the distinct-seed flows; benchmark process only, "
                        "process-backend workers excluded"};
  const auto attempted = static_cast<double>(book.attempted());
  out["verified_ratio"] = {
      attempted == 0 ? 0.0 : (attempted - static_cast<double>(book.failed())) / attempted,
      book.attempted(), "flows completed and verified / flows attempted"};
}

/// Per-layer metrics of the traced flows, from their spans.
void per_layer_metrics(const RunBook& book, std::span<const cb::Span> spans,
                       BackendConfig::Kind backend, cb::MetricValues& out) {
  // Root of every span: a bench.setup or flow.run span, one pair per
  // traced flow, in order.
  std::unordered_map<std::uint32_t, const cb::Span*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  auto root_of = [&](const cb::Span& span) {
    const cb::Span* s = &span;
    while (s->parent != 0) s = by_id.at(s->parent);
    return s->id;
  };
  struct Acc {
    double flow_s = 0, duv_sims = 0, duv_calls = 0, duv_busy = 0;
    double compiles = 0, compile_s = 0, batches = 0, jobs = 0, exec_sims = 0,
           exec_wall = 0, startup = 0, before_s = 0;
  };
  std::map<std::uint32_t, Acc> flows;       // keyed by flow.run span id
  std::map<std::uint32_t, Acc> setups;      // keyed by bench.setup span id
  std::vector<double> batch_ms;
  for (const auto& span : spans) {
    const double dur = static_cast<double>(span.duration_ns()) * 1e-9;
    const std::uint32_t root = root_of(span);
    const bool in_flow = by_id.at(root)->kind == cb::SpanKind::kFlow;
    Acc& acc = in_flow ? flows[root] : setups[root];
    switch (span.kind) {
      case cb::SpanKind::kFlow: acc.flow_s = dur; break;
      case cb::SpanKind::kExecStartup: acc.startup = dur; break;
      case cb::SpanKind::kCoverageBefore: acc.before_s = dur; break;
      case cb::SpanKind::kRunAll:
        acc.batches += 1;
        acc.jobs += static_cast<double>(span.jobs);
        acc.exec_sims += static_cast<double>(span.sims);
        acc.exec_wall += dur;
        if (in_flow) batch_ms.push_back(dur * 1e3);
        break;
      case cb::SpanKind::kCompile:
        acc.compiles += 1;
        acc.compile_s += dur;
        break;
      case cb::SpanKind::kSimulateBatch:
      case cb::SpanKind::kSimulate:
        acc.duv_sims += static_cast<double>(span.sims);
        acc.duv_calls += 1;
        acc.duv_busy += dur;
        break;
      case cb::SpanKind::kSetup: break;
    }
  }
  const bool threads = backend == BackendConfig::Kind::kThread;
  const double workers = static_cast<double>(cb::kWorkers);
  std::map<std::string, std::vector<double>> per_flow;
  for (const auto& [id, a] : flows) {
    auto& m = per_flow;
    m["duv.sims"].push_back(a.duv_sims);
    m["duv.calls"].push_back(a.duv_calls);
    m["duv.batch_width"].push_back(a.duv_calls == 0 ? 0 : a.duv_sims / a.duv_calls);
    m["duv.busy_s"].push_back(a.duv_busy);
    m["duv.us_per_sim"].push_back(a.duv_sims == 0 ? 0 : a.duv_busy / a.duv_sims * 1e6);
    m["stimgen.compiles"].push_back(a.compiles);
    m["stimgen.compile_s"].push_back(a.compile_s);
    m["stimgen.compile_us"].push_back(a.compiles == 0 ? 0 : a.compile_s / a.compiles * 1e6);
    m["exec.batches"].push_back(a.batches);
    m["exec.jobs"].push_back(a.jobs);
    m["exec.sims_per_job"].push_back(a.jobs == 0 ? 0 : a.exec_sims / a.jobs);
    m["exec.wall_s"].push_back(a.exec_wall);
    m["exec.us_per_job"].push_back(a.jobs == 0 ? 0 : a.exec_wall / a.jobs * 1e6);
    // Worker busy time is kernel time alone: the thread farm compiles
    // every job on the calling thread before it enqueues any chunk.
    m["exec.idle_s"].push_back(threads ? workers * a.exec_wall - a.duv_busy : 0);
    m["exec.utilization"].push_back(
        threads && a.exec_wall > 0 ? a.duv_busy / (workers * a.exec_wall) : 0);
    m["cdg.self_s"].push_back(a.flow_s - a.exec_wall);
    m["cdg.self_share"].push_back(a.flow_s > 0 ? (a.flow_s - a.exec_wall) / a.flow_s : 0);
  }
  for (const auto& [id, a] : setups) {
    per_flow["exec.startup_ms"].push_back(a.startup * 1e3);
    per_flow["coverage.before_s"].push_back(a.before_s);
  }
  const std::string kernel_note =
      threads ? "median per traced flow"
              : "not observable: kernels run in the worker processes";
  for (auto& [name, values] : per_flow) {
    std::string note = "median per traced flow";
    if (name.starts_with("duv.") || name.starts_with("stimgen.")) note = kernel_note;
    if (!threads && (name == "exec.idle_s" || name == "exec.utilization")) {
      note = "thread backend only";
    }
    out[name] = {cb::median(values), values.size(), note};
  }
  const auto traced = std::optional<bool>(true);
  out["cdg.cache_hit_ratio"] = book.median_of(
      [](const auto& s) {
        const auto total = s.cache_hits + s.cache_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(s.cache_hits) / static_cast<double>(total);
      },
      traced, "eval-cache hits / lookups");
  out["flow.sampling_s"] = book.median_of([](const auto& s) { return s.sampling_s; }, traced);
  out["flow.optimization_s"] =
      book.median_of([](const auto& s) { return s.optimization_s; }, traced);
  out["flow.harvest_s"] = book.median_of([](const auto& s) { return s.harvest_s; }, traced);
  out["flow.session_bytes"] = book.median_of(
      [](const auto& s) { return static_cast<double>(s.session_bytes); }, traced,
      "session directory size at flow end");
  out["coverage.before_sims"] = book.median_of(
      [](const auto& s) { return static_cast<double>(s.before_sims); }, traced);
  const auto tail = cb::tail_percentile(batch_ms);
  out["exec.batch_ms.p50"] = {cb::median(batch_ms), batch_ms.size(), "run_all wall"};
  out["exec.batch_ms.tail"] = {tail.value, tail.samples,
                               "run_all wall at exec.batch_ms.tail_pct"};
  out["exec.batch_ms.tail_pct"] = {tail.pct, tail.samples,
                                   "highest percentile with >= 10 samples beyond"};
  out["exec.batch_ms.samples"] = {static_cast<double>(batch_ms.size()),
                                  batch_ms.size(), "run_all calls in traced flows"};
  const auto plain = book.median_of([](const auto& s) { return s.flow_wall_s; }, false);
  const auto traced_wall = book.median_of([](const auto& s) { return s.flow_wall_s; }, traced);
  out["obs.trace_overhead_pct"] = {
      plain.value > 0 ? (traced_wall.value / plain.value - 1.0) * 100.0 : 0.0,
      traced_wall.samples, "traced vs plain flow_wall_s, same seeds"};
}

int run_benchmark(const Options& opt) {
  const cb::Workload& workload = *cb::find_workload(opt.workload);
  const std::uint64_t seed = *opt.seed;
  const bool traced_run = opt.trace == 1;
  std::filesystem::create_directories(opt.scratch);

  print_machine(std::cout);
  std::cout << "workload: " << workload.name << " (" << workload.unit << ", family "
            << workload.family << ", "
            << ascdg::exec::to_string({workload.backend, cb::kWorkers})
            << ") seed=" << seed << " seconds=" << opt.seconds
            << " trace=" << opt.trace << "\nwhy: " << workload.why << '\n';

  RunBook book(workload);
  std::optional<cb::SpanLog> log;
  if (traced_run) log.emplace();

  // Checks the recorded digest whatever --seed is; in a traced run it
  // goes through the decorators, with spans that are discarded.
  {
    cb::SpanLog discarded;
    book.add(cb::run_flow(workload, cb::kDefaultSeed,
                          traced_run ? &discarded : nullptr, opt.scratch),
             /*measured=*/false);
  }

  const auto start = Clock::now();
  const std::size_t min_rounds = traced_run ? 2 : cb::kDistinctSeeds;
  // Peak RSS is read once the fixed distinct-seed flows are done, so the
  // number of extra timing flows that fit in --seconds cannot move it.
  double peak_rss = 0.0;
  for (std::size_t k = 0;
       k < min_rounds || seconds_since(start) < opt.seconds; ++k) {
    const std::uint64_t s = cb::flow_seed(seed, k % cb::kDistinctSeeds);
    book.add(cb::run_flow(workload, s, nullptr, opt.scratch));
    if (traced_run) book.add(cb::run_flow(workload, s, &*log, opt.scratch));
    if (k + 1 == cb::kDistinctSeeds) peak_rss = peak_rss_mb();
  }
  const double measured_s = seconds_since(start);

  std::printf("\n%-20s %8s %9s %11s %8s %7s %5s %10s %16s\n", "flow seed", "role",
              "setup_s", "flow_wall_s", "sims", "targets", "hit", "best_rate",
              "digest");
  const auto print_rows = [](const std::vector<cb::FlowSample>& rows, bool measured) {
    for (const auto& s : rows) {
      std::printf("%-20llu %8s %9.4f %11.4f %8zu %7zu %5zu %10.5f %016llx%s\n",
                  static_cast<unsigned long long>(s.seed),
                  !measured ? "verify" : s.traced ? "traced" : "plain", s.setup_s,
                  s.flow_wall_s, s.flow_sims, s.targets, s.targets_hit,
                  s.best_target_rate, static_cast<unsigned long long>(s.digest),
                  s.ok() ? "" : " FAILED");
    }
  };
  print_rows(book.unmeasured(), false);
  print_rows(book.samples(), true);
  std::fflush(stdout);

  cb::MetricValues values;
  if (traced_run) {
    const auto spans = log->collect();
    per_layer_metrics(book, spans, workload.backend, values);
    std::cout << "\nper-layer self time over " << spans.size() << " spans:\n";
    std::cout << "  span                 count        total_s       self_s\n";
    for (const auto& row : cb::self_time_table(spans)) {
      std::printf("  %-18s %7zu %14.4f %12.4f\n", std::string(row.name).c_str(),
                  row.count, row.total_s, row.self_s);
    }
    std::fflush(stdout);
    if (!opt.spans.empty()) {
      // One file per workload, overwritten by the next traced run.
      std::filesystem::create_directories(opt.spans);
      const auto path = opt.spans / (std::string(workload.name) + ".jsonl");
      std::ofstream out(path);
      cb::write_spans_jsonl(out, spans);
      std::cout << "spans: " << path.string() << '\n';
    }
  } else {
    end_to_end_metrics(book, peak_rss, values);
  }
  for (const auto& spec : cb::metric_catalogue()) {
    if (spec.end_to_end != traced_run && !values.contains(spec.name)) {
      throw std::logic_error("metric " + std::string(spec.name) + " was not measured");
    }
  }
  std::cout << "\nflows: " << book.samples().size() << " measured in " << measured_s
            << " s, " << book.unmeasured().size() << " verification; failed "
            << book.failed() << '\n';
  cb::print_record_table(std::cout, values);
  cb::print_result_line(std::cout, book.failed() == 0, book.attempted(),
                        book.failed(), values);
  return 0;
}

// ---------------------------------------------------------------- selftest

int g_failures = 0;
void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

int run_selftest(const Options& opt) {
  std::filesystem::create_directories(opt.scratch);
  std::cout << "percentile helper\n";
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto t100 = cb::tail_percentile(hundred);
  check(t100.pct == 90.0 && t100.value == 90.0 && t100.samples == 100,
        "100 samples -> p90 (10 beyond)");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);
  const auto t1000 = cb::tail_percentile(thousand);
  check(t1000.pct == 99.0 && t1000.value == 990.0, "1000 samples -> p99");
  const auto t5 = cb::tail_percentile({5, 1, 4, 2, 3});
  check(t5.pct == 50.0 && t5.value == 3.0, "5 samples -> p50 fallback");
  check(cb::median({4, 1, 3, 2}) == 2.5, "median of an even count");

  std::cout << "metric names\n";
  std::set<std::string_view> names;
  bool names_ok = true;
  for (const auto& spec : cb::metric_catalogue()) {
    names_ok = names_ok && cb::valid_metric_name(spec.name) &&
               names.insert(spec.name).second;
  }
  check(names_ok, "every metric name matches [A-Za-z0-9_.-]+ and is unique");
  check(!cb::valid_metric_name("p99 ms") && !cb::valid_metric_name(""),
        "names with spaces or empty names are rejected");

  std::cout << "decorators forward bit-identically\n";
  for (const auto kind : {BackendConfig::Kind::kThread, BackendConfig::Kind::kProcess}) {
    for (const auto& unit_name : ascdg::duv::unit_names()) {
      const auto unit = ascdg::duv::make_unit(unit_name);
      const auto suite = unit->suite();
      std::vector<ascdg::exec::Job> jobs;
      for (std::size_t j = 0; j < suite.size(); ++j) {
        jobs.push_back({&suite[j], 1 + 37 * j, 0xC0FFEE + j});
      }
      const auto plain = ascdg::exec::make_backend({kind, 2});
      const auto expected = plain->run_all(*unit, jobs);
      cb::SpanLog log;
      const cb::TracedDuv traced_duv(*unit, log);
      const auto inner = ascdg::exec::make_backend({kind, 2});
      cb::TracedBackend traced(*inner, log);
      const bool same = traced.run_all(traced_duv, jobs) == expected &&
                        traced.total_simulations() == plain->total_simulations() &&
                        traced_duv.simulate(suite[0], 7) ==
                            unit->simulate(suite[0], 7);
      check(same, unit_name + " on " + ascdg::exec::to_string({kind, 2}));
    }
  }

  std::cout << "result digests at the default seed\n";
  std::map<std::string_view, std::uint64_t> digests;
  for (const auto& w : cb::workloads()) {
    const auto first = cb::run_flow(w, cb::kDefaultSeed, nullptr, opt.scratch);
    cb::SpanLog log;
    const auto again = cb::run_flow(w, cb::kDefaultSeed, &log, opt.scratch);
    std::cout << "  " << w.name << " digest " << std::hex << first.digest << std::dec
              << (first.ok() ? "" : " error: " + first.error) << '\n';
    check(first.ok() && again.ok() && first.digest == again.digest,
          std::string(w.name) + ": stable across two runs, plain and traced");
    check(w.golden_digest == first.digest,
          std::string(w.name) + ": matches the recorded digest");
    digests[w.name] = first.digest;
  }
  // Known defect, reported rather than failed: process workers re-parse
  // each template from DSL text whose weights carry six significant
  // digits, so a sampled template with finer weights draws differently
  // there (README.md, "Known defect").
  const bool agree = digests["ifu-fine"] == digests["ifu-fine-process"];
  std::cout << (agree ? "  ok   " : "  KNOWN DEFECT ")
            << "ifu-fine and ifu-fine-process agree\n";
  std::cout << (g_failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ascdg::util::set_log_level(ascdg::util::LogLevel::kWarn);
  std::string error;
  const auto opt = parse_args(argc, argv, error);
  if (!opt) return usage(error);
  try {
    return opt->selftest ? run_selftest(*opt) : run_benchmark(*opt);
  } catch (const std::exception& err) {
    std::cerr << "closure_bench: " << err.what() << '\n';
    return 1;
  }
}
