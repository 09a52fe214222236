#include "flow/session.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "flow/artifacts.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace ascdg::flow {

namespace {

/// Parses ASCDG_CRASH_AFTER_WRITES strictly: the whole value must be a
/// non-negative decimal integer. std::atol would map garbage ("12abc",
/// "yes") to a number or to 0 — silently disabling the crash hook and
/// letting a misconfigured kill-and-resume test pass vacuously.
long parse_crash_after_writes() {
  const char* env = std::getenv("ASCDG_CRASH_AFTER_WRITES");
  if (env == nullptr) return 0;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || value < 0) {
    throw util::ConfigError(
        "ASCDG_CRASH_AFTER_WRITES='" + std::string(env) +
        "' is not a non-negative integer — refusing to run with a "
        "misconfigured crash hook");
  }
  return value;
}

/// See the ASCDG_CRASH_AFTER_WRITES doc on atomic_write_file.
void maybe_crash_after_write() {
  static const long crash_after = parse_crash_after_writes();
  if (crash_after <= 0) return;
  static std::atomic<long> writes{0};
  if (writes.fetch_add(1, std::memory_order_relaxed) + 1 >= crash_after) {
    std::raise(SIGKILL);
  }
}

std::string manifest_text(std::uint64_t fingerprint, std::uint64_t seed,
                          std::uint64_t resumes,
                          const std::string& resumed_from,
                          const std::vector<StageRecord>& stages) {
  std::string stage_array = "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) stage_array += ',';
    stage_array += util::JsonObject{}
                       .add("name", stages[i].name)
                       .add("status", stages[i].status)
                       .add("sims", stages[i].sims)
                       .add("wall_ms", stages[i].wall_ms)
                       .str();
  }
  stage_array += ']';
  return util::JsonObject{}
             .add("schema", kSessionSchema)
             .add("fingerprint", hex_u64(fingerprint))
             .add("seed", hex_u64(seed))
             .add("resumes", resumes)
             .add("resumed_from", resumed_from)
             .add_raw("stages", stage_array)
             .str() +
         "\n";
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content) {
  util::atomic_write_file(path, content);
  maybe_crash_after_write();
}

JournalWriter::JournalWriter(const std::filesystem::path& path,
                             std::uintmax_t keep_bytes)
    : util::JournalWriter(path, keep_bytes, maybe_crash_after_write) {}

std::string checkpoint_journal_name(std::string_view stage) {
  return std::string(stage) + ".ckpt.jsonl";
}

Session Session::create(const std::filesystem::path& dir,
                        std::uint64_t fingerprint, std::uint64_t seed,
                        std::span<const std::string> stage_names) {
  util::remove_stale_tmp_files(dir);
  Session session;
  session.dir_ = dir;
  session.fingerprint_ = fingerprint;
  session.seed_ = seed;
  for (const auto& name : stage_names) {
    session.stages_.push_back({name, "pending", 0, 0.0});
    // A stage resumes from any journal it finds, so a fresh run must
    // not inherit one from the interrupted run it replaces.
    std::error_code ec;
    std::filesystem::remove(dir / checkpoint_journal_name(name), ec);
  }
  session.write_manifest();
  return session;
}

Session Session::open(const std::filesystem::path& dir,
                      std::uint64_t expected_fingerprint,
                      std::span<const std::string> stage_names) {
  // A write that died between open and rename leaves a *.tmp next to
  // the artifacts; it holds no committed state, so re-opening the
  // session is the safe moment to reap it.
  util::remove_stale_tmp_files(dir);
  const std::filesystem::path manifest = dir / "manifest.json";
  if (const int e = util::FailurePoint::check(
          util::FailurePoint::Id::kManifestRead);
      e != 0) {
    throw util::Error("cannot read session manifest '" + manifest.string() +
                      "': " + std::strerror(e));
  }
  std::ifstream is(manifest, std::ios::binary);
  if (!is) {
    throw util::Error("cannot open session manifest '" + manifest.string() +
                      "' (did the session run before? resume needs an "
                      "existing --session directory)");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const util::JsonValue doc = util::json_parse(buffer.str());

  const std::string& schema = doc.at("schema").as_string();
  if (schema != kSessionSchema) {
    throw util::ConfigError("session manifest '" + manifest.string() +
                            "': unsupported schema '" + schema + "' (want '" +
                            std::string(kSessionSchema) + "')");
  }
  Session session;
  session.dir_ = dir;
  session.fingerprint_ = parse_hex_u64(doc.at("fingerprint"));
  session.seed_ = parse_hex_u64(doc.at("seed"));
  session.resumes_ = doc.at("resumes").as_uint64();
  if (session.fingerprint_ != expected_fingerprint) {
    throw util::ConfigError(
        "session '" + dir.string() +
        "' was created with a different configuration (fingerprint " +
        hex_u64(session.fingerprint_) + " != " +
        hex_u64(expected_fingerprint) +
        "); refusing to resume — rerun without --resume to start over");
  }
  for (const auto& entry : doc.at("stages").as_array()) {
    StageRecord record;
    record.name = entry.at("name").as_string();
    record.status = entry.at("status").as_string();
    record.sims = entry.at("sims").as_size();
    record.wall_ms = entry.at("wall_ms").as_double();
    session.stages_.push_back(std::move(record));
  }
  if (stage_names.size() != session.stages_.size()) {
    throw util::ConfigError("session '" + dir.string() + "' records " +
                            std::to_string(session.stages_.size()) +
                            " stages but this flow runs " +
                            std::to_string(stage_names.size()));
  }
  for (std::size_t i = 0; i < stage_names.size(); ++i) {
    if (session.stages_[i].name != stage_names[i]) {
      throw util::ConfigError("session '" + dir.string() + "' stage " +
                              std::to_string(i) + " is '" +
                              session.stages_[i].name + "', expected '" +
                              stage_names[i] + "'");
    }
  }
  // Record where this resume picks up: the last completed stage. A
  // "running" stage was interrupted mid-flight; its partial artifacts
  // (e.g. the optimizer's iteration checkpoint) are reused by the stage
  // itself.
  session.resumed_from_ = "none";
  for (const auto& record : session.stages_) {
    if (record.done()) session.resumed_from_ = record.name;
  }
  ++session.resumes_;
  session.write_manifest();
  return session;
}

bool Session::stage_done(std::string_view name) const noexcept {
  for (const auto& record : stages_) {
    if (record.name == name) return record.done();
  }
  return false;
}

void Session::mark_running(std::string_view name) {
  for (auto& record : stages_) {
    if (record.name == name) {
      record.status = "running";
      write_manifest();
      return;
    }
  }
  throw util::NotFoundError("session: unknown stage '" + std::string(name) +
                            "'");
}

void Session::mark_done(std::string_view name, std::size_t sims,
                        double wall_ms) {
  for (auto& record : stages_) {
    if (record.name == name) {
      record.status = "done";
      record.sims = sims;
      record.wall_ms = wall_ms;
      write_manifest();
      return;
    }
  }
  throw util::NotFoundError("session: unknown stage '" + std::string(name) +
                            "'");
}

SessionSummary Session::summary() const {
  SessionSummary out;
  out.dir = dir_.string();
  out.seed = seed_;
  out.resumes = resumes_;
  out.resumed_from = resumed_from_;
  out.stages = stages_;
  return out;
}

void Session::write_manifest() const {
  atomic_write_file(dir_ / "manifest.json",
                    manifest_text(fingerprint_, seed_, resumes_,
                                  resumed_from_, stages_));
}

std::uint64_t config_fingerprint(const FlowConfig& config,
                                 std::string_view context_key) {
  std::uint64_t state = 0xA5CD5E551017ULL;
  const auto mix = [&state](std::uint64_t value) {
    state ^= value;
    (void)util::splitmix64_next(state);
  };
  const auto mix_double = [&mix](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  mix(config.coarse_best_templates);
  mix(config.skeletonizer.subranges);
  mix(static_cast<std::uint64_t>(config.skeletonizer.spacing));
  mix(config.skeletonizer.mark_zero_weights ? 1 : 0);
  mix(config.sample_templates);
  mix(config.sample_sims);
  mix(config.opt_directions);
  mix(config.opt_sims_per_point);
  mix(config.opt_max_iterations);
  mix_double(config.opt_initial_step);
  mix(static_cast<std::uint64_t>(config.opt_direction_mode));
  mix(config.opt_halve_patience);
  mix_double(config.opt_min_step);
  mix(config.opt_resample_center ? 1 : 0);
  mix(config.opt_target_value.has_value() ? 1 : 0);
  mix_double(config.opt_target_value.value_or(0.0));
  mix(config.expand_target_by_correlation ? 1 : 0);
  mix_double(config.correlation_min_similarity);
  mix(config.refine_with_real_target ? 1 : 0);
  mix_double(config.refine_threshold);
  mix(config.refine_max_iterations);
  mix(config.harvest_sims);
  mix(config.seed);
  // Deliberately NOT mixed: config.backend (and the telemetry / serve /
  // session knobs). Backends are bit-identical by contract, so the
  // backend choice — like --serve or --timeline — cannot change what a
  // session computes, and a run started on one backend may resume on
  // another (exec_test pins this).
  for (const char c : context_key) {
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return state;
}

}  // namespace ascdg::flow
