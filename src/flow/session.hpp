// Durable on-disk sessions for the stage pipeline.
//
// A session is a directory holding a versioned JSON manifest
// ("ascdg-session-v1": config fingerprint, root RNG seed, per-stage
// status/sims/wall) plus one artifact file per completed stage
// (templates and skeletons in the DSL via tgen::file_io, everything
// else as JSON). Every write is atomic — temp file in the same
// directory, then rename — so a SIGKILL at any instant leaves either
// the previous checkpoint or the new one, never a torn file. The one
// exception is the optimizer's per-iteration checkpoint: an
// append-only journal (flow::JournalWriter) whose reader drops a torn
// tail. Resuming (`ascdg run --session=DIR --resume`) re-opens the
// manifest, verifies the config fingerprint, and replays completed
// stages from their artifacts instead of re-simulating them. See
// docs/sessions.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flow/types.hpp"
#include "util/fs.hpp"

namespace ascdg::flow {

inline constexpr std::string_view kSessionSchema = "ascdg-session-v1";
inline constexpr std::string_view kCampaignSchema = "ascdg-campaign-v1";

// Telemetry artifacts the TimeSeriesRecorder keeps alongside the stage
// checkpoints (docs/sessions.md "Session layout"). One name shared by
// the writer (ascdg run --timeline) and the readers (ascdg inspect,
// /timeseries) so neither hard-codes the other's file name.
inline constexpr std::string_view kTelemetryFile = "telemetry.jsonl";
inline constexpr std::string_view kTelemetryIndexFile = "telemetry.index.json";
/// Trace sink the CLI places inside a session directory (--trace with
/// --session defaults here; ascdg inspect profiles it).
inline constexpr std::string_view kTraceFile = "trace.jsonl";

/// Writes `content` to `path` atomically and durably — temp file,
/// fsync, rename, fsync of the parent directory — via
/// util::atomic_write_file (see util/fs.hpp for the durability
/// argument and the FailurePoint injection sites), then services the
/// crash hook below. Throws util::Error on IO failure; the temp file
/// never survives a failure.
///
/// Test hook: when the environment variable ASCDG_CRASH_AFTER_WRITES is
/// set to N > 0, the process raises SIGKILL immediately after the N-th
/// durable write completes — an atomic write, or a journal record
/// whose sync completed (flow::JournalWriter). The kill-and-resume
/// tests use this to die deterministically at a checkpoint boundary.
/// A value that is not a non-negative integer is a util::ConfigError,
/// not a silent no-op.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content);

/// util::JournalWriter that services the crash hook above once per
/// durable record, after its sync completes and before the next record
/// is written.
class JournalWriter : public util::JournalWriter {
 public:
  JournalWriter(const std::filesystem::path& path, std::uintmax_t keep_bytes);
};

/// File name of a stage's optimizer checkpoint journal:
/// "<stage>.ckpt.jsonl", one record per completed iteration.
[[nodiscard]] std::string checkpoint_journal_name(std::string_view stage);

/// One pipeline stage's entry in the manifest.
struct StageRecord {
  std::string name;
  std::string status = "pending";  ///< "pending" | "running" | "done"
  std::size_t sims = 0;            ///< simulations the stage cost
  double wall_ms = 0.0;

  [[nodiscard]] bool done() const noexcept { return status == "done"; }
};

/// Read-only view of a session for reports and /runz.
struct SessionSummary {
  std::string dir;
  std::uint64_t seed = 0;
  std::uint64_t resumes = 0;
  /// Last completed stage at the most recent resume ("" for a fresh
  /// run, "none" when resumed before any stage completed).
  std::string resumed_from;
  std::vector<StageRecord> stages;
};

class Session {
 public:
  /// Starts a fresh session: creates `dir` and writes a manifest with
  /// every stage pending. An existing manifest is overwritten and the
  /// stages' checkpoint journals are deleted (a non-resume run in the
  /// same directory starts over).
  static Session create(const std::filesystem::path& dir,
                        std::uint64_t fingerprint, std::uint64_t seed,
                        std::span<const std::string> stage_names);

  /// Re-opens an existing session for resume. Throws util::Error when
  /// the manifest is missing, util::ParseError when it is corrupt, and
  /// util::ConfigError when the schema, the config fingerprint, or the
  /// stage list does not match what this run would execute.
  static Session open(const std::filesystem::path& dir,
                      std::uint64_t expected_fingerprint,
                      std::span<const std::string> stage_names);

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  /// Path of a named artifact inside the session directory.
  [[nodiscard]] std::filesystem::path artifact_path(
      std::string_view file_name) const {
    return dir_ / file_name;
  }

  [[nodiscard]] bool stage_done(std::string_view name) const noexcept;
  /// Marks a stage in-flight and persists the manifest.
  void mark_running(std::string_view name);
  /// Marks a stage complete with its cost and persists the manifest.
  void mark_done(std::string_view name, std::size_t sims, double wall_ms);

  [[nodiscard]] const std::vector<StageRecord>& stages() const noexcept {
    return stages_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t resumes() const noexcept { return resumes_; }
  /// See SessionSummary::resumed_from.
  [[nodiscard]] const std::string& resumed_from() const noexcept {
    return resumed_from_;
  }

  [[nodiscard]] SessionSummary summary() const;

  /// Atomically rewrites the manifest from the in-memory state.
  void write_manifest() const;

 private:
  Session() = default;

  std::filesystem::path dir_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t resumes_ = 0;
  std::string resumed_from_;
  std::vector<StageRecord> stages_;
};

/// Fingerprint of everything that shapes the flow's trajectory: the
/// simulation/optimization budgets and seeds in `config` plus a
/// caller-supplied context key (unit + target identity). Telemetry
/// knobs (trace, serve, timeline, session paths) are excluded — they
/// never change what gets simulated, so toggling them between a crash
/// and a resume is legal. A mismatch on resume is a hard error: the
/// checkpoints on disk answer a different question.
[[nodiscard]] std::uint64_t config_fingerprint(const FlowConfig& config,
                                               std::string_view context_key);

}  // namespace ascdg::flow
