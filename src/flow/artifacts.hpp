// JSON round-trip for the stage pipeline's checkpoint artifacts.
//
// Each serializer emits compact JSON through util::JsonObject (doubles
// render shortest-round-trip, so values parse back bit-identically) and
// each reader reconstructs the typed result from util::json_parse
// output, throwing util::Error / util::ParseError on corrupt input.
// 64-bit quantities that a JSON double cannot hold exactly (seeds,
// fingerprints, raw RNG state) travel as 0x-prefixed hex strings.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdg/random_sample.hpp"
#include "coverage/repository.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "opt/implicit_filtering.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"

namespace ascdg::flow {

/// 0x-prefixed, zero-padded 16-digit hex — the manifest encoding for
/// 64-bit values (JSON doubles are only exact to 2^53).
[[nodiscard]] std::string hex_u64(std::uint64_t value);
/// Inverse of hex_u64; throws util::Error for a non-hex string.
[[nodiscard]] std::uint64_t parse_hex_u64(const util::JsonValue& value);

/// 64-bit FNV-1a of `text`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

[[nodiscard]] std::string to_json(const coverage::SimStats& stats);
[[nodiscard]] coverage::SimStats sim_stats_from_json(
    const util::JsonValue& value);

[[nodiscard]] std::string to_json(const PhaseOutcome& phase);
[[nodiscard]] PhaseOutcome phase_outcome_from_json(
    const util::JsonValue& value);

/// A sampling result scored against `targets`, with a digest of them.
[[nodiscard]] std::string to_json(
    const cdg::RandomSampleResult& sampling,
    std::span<const neighbors::ApproximatedTarget> targets);
/// Reads to_json(sampling, targets), or re-scores the per-sample layout
/// of older sessions ("samples": every point and stats) with
/// cdg::keep_best as the live phase does. Throws util::ConfigError when
/// it scored other targets, util::Error when it lacks one best sample
/// per target within its template count.
[[nodiscard]] cdg::RandomSampleResult sampling_from_json(
    const util::JsonValue& value,
    std::span<const neighbors::ApproximatedTarget> targets);

[[nodiscard]] std::string to_json(const opt::OptResult& result);
[[nodiscard]] opt::OptResult opt_result_from_json(const util::JsonValue& value);

[[nodiscard]] std::string to_json(const opt::IfCheckpoint& ckpt);
[[nodiscard]] opt::IfCheckpoint checkpoint_from_json(
    const util::JsonValue& value);

/// An optimizer stage's resumable state: the IfCheckpoint plus the
/// stage's cost prefix (sims / stats / wall spent so far), so a resumed
/// stage reports totals as if never interrupted. One record of the
/// stage's checkpoint journal is this with `ifc.trace` holding only
/// that iteration's record.
struct OptStageCheckpoint {
  opt::IfCheckpoint ifc;
  std::size_t sims = 0;
  coverage::SimStats stats;
  double wall_ms = 0.0;
  double evidence = 0.0;  ///< refine only: the probe's real-target value
};

[[nodiscard]] std::string to_json(const OptStageCheckpoint& ckpt);
[[nodiscard]] OptStageCheckpoint opt_stage_checkpoint_from_json(
    const util::JsonValue& value);

[[nodiscard]] std::string json_double_array(std::span<const double> values);
[[nodiscard]] std::vector<double> double_array_from_json(
    const util::JsonValue& value);

/// Writes `doc` with a last key "digest" (see read_digested_json_file)
/// and a newline through flow::atomic_write_file.
void write_digested_json_file(const std::filesystem::path& path,
                              const util::JsonObject& doc);

/// Reads and parses one JSON file of a session or campaign. An object
/// whose last key is "digest" must match it: the hex_u64 fnv1a of every
/// byte before `,"digest":`, so a file altered on disk that still
/// parses is an error, not a resume into another trajectory. A file
/// without the key (a manifest, or written before digests) is read as
/// is. Throws util::Error when the file cannot be read or does not
/// match its digest, util::ParseError when it is not valid JSON.
[[nodiscard]] util::JsonValue read_digested_json_file(
    const std::filesystem::path& path);

}  // namespace ascdg::flow
