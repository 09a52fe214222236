#include "flow/artifacts.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "flow/session.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/jsonl.hpp"

namespace ascdg::flow {

namespace {

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, ptr);
}

/// Reads a double field, accepting the null that non-finite doubles
/// serialize as (round-trips to NaN).
double json_double(const util::JsonValue& value) {
  if (value.is_null()) return std::nan("");
  return value.as_double();
}

std::string json_uint_array(std::span<const std::size_t> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

opt::StopReason stop_reason_from_string(const std::string& text) {
  for (const auto reason :
       {opt::StopReason::kMaxIterations, opt::StopReason::kMinStep,
        opt::StopReason::kTargetReached, opt::StopReason::kMaxEvaluations}) {
    if (text == opt::to_string(reason)) return reason;
  }
  throw util::Error("artifact: unknown stop reason '" + text + "'");
}

std::string to_json(const opt::IterationRecord& record) {
  return util::JsonObject{}
      .add("iteration", record.iteration)
      .add("center_value", record.center_value)
      .add("best_value", record.best_value)
      .add("step", record.step)
      .add("evaluations", record.evaluations)
      .add("moved", record.moved)
      .add("resamples", record.resamples)
      .add("halved", record.halved)
      .str();
}

opt::IterationRecord iteration_from_json(const util::JsonValue& value) {
  opt::IterationRecord record;
  record.iteration = value.at("iteration").as_size();
  record.center_value = json_double(value.at("center_value"));
  record.best_value = json_double(value.at("best_value"));
  record.step = json_double(value.at("step"));
  record.evaluations = value.at("evaluations").as_size();
  record.moved = value.at("moved").as_bool();
  record.resamples = value.at("resamples").as_size();
  record.halved = value.at("halved").as_bool();
  return record;
}

std::string trace_to_json(std::span<const opt::IterationRecord> trace) {
  std::string out = "[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 0) out += ',';
    out += to_json(trace[i]);
  }
  out += ']';
  return out;
}

std::vector<opt::IterationRecord> trace_from_json(
    const util::JsonValue& value) {
  std::vector<opt::IterationRecord> trace;
  for (const auto& entry : value.as_array()) {
    trace.push_back(iteration_from_json(entry));
  }
  return trace;
}

/// FNV-1a of the targets' weighted events: all that their scores read.
std::uint64_t targets_digest(
    std::span<const neighbors::ApproximatedTarget> targets) {
  std::string text;
  for (const auto& target : targets) {
    for (const auto& weighted : target.events()) {
      text += std::to_string(weighted.event.value) + ':';
      append_double(text, weighted.weight);
    }
    text += ';';
  }
  return fnv1a(text);
}

std::string read_artifact(const std::filesystem::path& path) {
  if (const int e = util::FailurePoint::check(
          util::FailurePoint::Id::kArtifactRead);
      e != 0) {
    throw util::Error("cannot open artifact '" + path.string() +
                      "': " + std::strerror(e));
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw util::Error("cannot open artifact '" + path.string() + "'");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

std::string hex_u64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t parse_hex_u64(const util::JsonValue& value) {
  const std::string& text = value.as_string();
  if (text.size() != 18 || !text.starts_with("0x")) {
    throw util::Error("artifact: expected 16-digit 0x hex, got '" + text + "'");
  }
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data() + 2, text.data() + text.size(), out, 16);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw util::Error("artifact: malformed hex value '" + text + "'");
  }
  return out;
}

std::string json_double_array(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_double(out, values[i]);
  }
  out += ']';
  return out;
}

std::vector<double> double_array_from_json(const util::JsonValue& value) {
  std::vector<double> out;
  for (const auto& entry : value.as_array()) out.push_back(json_double(entry));
  return out;
}

std::string to_json(const coverage::SimStats& stats) {
  return util::JsonObject{}
      .add("sims", stats.sims())
      .add_raw("hits", json_uint_array(stats.hit_counts()))
      .str();
}

coverage::SimStats sim_stats_from_json(const util::JsonValue& value) {
  std::vector<std::size_t> hits;
  for (const auto& entry : value.at("hits").as_array()) {
    hits.push_back(entry.as_size());
  }
  return coverage::SimStats::from_counts(value.at("sims").as_size(),
                                         std::move(hits));
}

std::string to_json(const PhaseOutcome& phase) {
  return util::JsonObject{}
      .add("name", phase.name)
      .add("sims", phase.sims)
      .add("wall_ms", phase.wall_ms)
      .add_raw("stats", to_json(phase.stats))
      .str();
}

PhaseOutcome phase_outcome_from_json(const util::JsonValue& value) {
  PhaseOutcome phase;
  phase.name = value.at("name").as_string();
  phase.sims = value.at("sims").as_size();
  phase.wall_ms = json_double(value.at("wall_ms"));
  phase.stats = sim_stats_from_json(value.at("stats"));
  return phase;
}

std::string to_json(const cdg::RandomSampleResult& sampling,
                    std::span<const neighbors::ApproximatedTarget> targets) {
  std::string best = "[";
  for (std::size_t t = 0; t < sampling.best.size(); ++t) {
    if (t != 0) best += ',';
    best += util::JsonObject{}
                .add("index", sampling.best[t].index)
                .add("value", sampling.best[t].value)
                .add_raw("point", json_double_array(sampling.best[t].point))
                .str();
  }
  best += ']';
  return util::JsonObject{}
      .add("templates", sampling.templates)
      .add("sims_per_template", sampling.sims_per_template)
      .add("targets", hex_u64(targets_digest(targets)))
      .add_raw("best", best)
      .add_raw("combined", to_json(sampling.combined))
      .add("simulations", sampling.simulations)
      .str();
}

cdg::RandomSampleResult sampling_from_json(
    const util::JsonValue& value,
    std::span<const neighbors::ApproximatedTarget> targets) {
  cdg::RandomSampleResult sampling;
  sampling.combined = sim_stats_from_json(value.at("combined"));
  sampling.simulations = value.at("simulations").as_size();
  if (const util::JsonValue* samples = value.find("samples")) {
    std::size_t events = 0;
    for (const auto& target : targets) {
      for (const auto& weighted : target.events()) {
        events = std::max<std::size_t>(events, weighted.event.value + 1);
      }
    }
    const auto& entries = samples->as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto stats = sim_stats_from_json(entries[i].at("stats"));
      if (stats.event_count() < events) {
        throw util::Error("sampling artifact: a sample misses target events");
      }
      cdg::keep_best(targets, i, double_array_from_json(entries[i].at("point")),
                     stats, sampling.best);
      if (i == 0) sampling.sims_per_template = stats.sims();
    }
    sampling.templates = entries.size();
  } else {
    if (parse_hex_u64(value.at("targets")) != targets_digest(targets)) {
      throw util::ConfigError(
          "sampling artifact: scored other targets than this run's");
    }
    sampling.templates = value.at("templates").as_size();
    sampling.sims_per_template = value.at("sims_per_template").as_size();
    for (const auto& entry : value.at("best").as_array()) {
      sampling.best.push_back({entry.at("index").as_size(),
                               json_double(entry.at("value")),
                               double_array_from_json(entry.at("point"))});
    }
  }
  if (sampling.best.size() != targets.size()) {
    throw util::Error("sampling artifact: not one best sample per target");
  }
  for (const auto& best : sampling.best) {
    if (best.index >= sampling.templates) {
      throw util::Error("sampling artifact: best index out of range");
    }
  }
  return sampling;
}

std::string to_json(const opt::OptResult& result) {
  return util::JsonObject{}
      .add_raw("best_point", json_double_array(result.best_point))
      .add("best_value", result.best_value)
      .add("evaluations", result.evaluations)
      .add("reason", opt::to_string(result.reason))
      .add_raw("trace", trace_to_json(result.trace))
      .str();
}

opt::OptResult opt_result_from_json(const util::JsonValue& value) {
  opt::OptResult result;
  result.best_point = double_array_from_json(value.at("best_point"));
  result.best_value = json_double(value.at("best_value"));
  result.evaluations = value.at("evaluations").as_size();
  result.reason = stop_reason_from_string(value.at("reason").as_string());
  result.trace = trace_from_json(value.at("trace"));
  return result;
}

std::string to_json(const opt::IfCheckpoint& ckpt) {
  std::string rng = "[";
  for (std::size_t i = 0; i < ckpt.rng_state.size(); ++i) {
    if (i != 0) rng += ',';
    rng += '"' + hex_u64(ckpt.rng_state[i]) + '"';
  }
  rng += ']';
  return util::JsonObject{}
      .add("next_iteration", ckpt.next_iteration)
      .add_raw("center", json_double_array(ckpt.center))
      .add("center_value", ckpt.center_value)
      .add("step", ckpt.step)
      .add("stale_rounds", ckpt.stale_rounds)
      .add("evaluations", ckpt.evaluations)
      .add_raw("best_point", json_double_array(ckpt.best_point))
      .add("best_value", ckpt.best_value)
      .add_raw("trace", trace_to_json(ckpt.trace))
      .add_raw("rng_state", rng)
      .add("eval_seed_counter", hex_u64(ckpt.eval_seed_counter))
      .str();
}

opt::IfCheckpoint checkpoint_from_json(const util::JsonValue& value) {
  opt::IfCheckpoint ckpt;
  ckpt.next_iteration = value.at("next_iteration").as_size();
  ckpt.center = double_array_from_json(value.at("center"));
  ckpt.center_value = json_double(value.at("center_value"));
  ckpt.step = json_double(value.at("step"));
  ckpt.stale_rounds = value.at("stale_rounds").as_size();
  ckpt.evaluations = value.at("evaluations").as_size();
  ckpt.best_point = double_array_from_json(value.at("best_point"));
  ckpt.best_value = json_double(value.at("best_value"));
  ckpt.trace = trace_from_json(value.at("trace"));
  const auto& rng = value.at("rng_state").as_array();
  if (rng.size() != ckpt.rng_state.size()) {
    throw util::Error("checkpoint artifact: rng_state must have 4 words");
  }
  for (std::size_t i = 0; i < rng.size(); ++i) {
    ckpt.rng_state[i] = parse_hex_u64(rng[i]);
  }
  ckpt.eval_seed_counter = parse_hex_u64(value.at("eval_seed_counter"));
  return ckpt;
}

std::string to_json(const OptStageCheckpoint& ckpt) {
  return util::JsonObject{}
      .add_raw("if", to_json(ckpt.ifc))
      .add("sims", ckpt.sims)
      .add_raw("stats", to_json(ckpt.stats))
      .add("wall_ms", ckpt.wall_ms)
      .add("evidence", ckpt.evidence)
      .str();
}

OptStageCheckpoint opt_stage_checkpoint_from_json(
    const util::JsonValue& value) {
  OptStageCheckpoint ckpt;
  ckpt.ifc = checkpoint_from_json(value.at("if"));
  ckpt.sims = value.at("sims").as_size();
  ckpt.stats = sim_stats_from_json(value.at("stats"));
  ckpt.wall_ms = value.at("wall_ms").as_double();
  ckpt.evidence = value.at("evidence").as_double();
  return ckpt;
}

void write_digested_json_file(const std::filesystem::path& path,
                              const util::JsonObject& doc) {
  std::string text = doc.str();
  text.pop_back();  // the closing '}'
  const std::uint64_t digest = fnv1a(text);
  text += ",\"digest\":\"";
  text += hex_u64(digest);
  text += "\"}\n";
  atomic_write_file(path, text);
}

util::JsonValue read_digested_json_file(const std::filesystem::path& path) {
  const std::string text = read_artifact(path);
  util::JsonValue doc = util::json_parse(text);
  if (const util::JsonValue* digest = doc.find("digest"); digest != nullptr) {
    const std::size_t end = text.rfind(",\"digest\":");
    if (end == std::string::npos ||
        parse_hex_u64(*digest) !=
            fnv1a(std::string_view(text).substr(0, end))) {
      throw util::Error("artifact '" + path.string() +
                        "' does not match its digest");
    }
  }
  return doc;
}

}  // namespace ascdg::flow
