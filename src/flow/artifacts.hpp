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
#include "opt/implicit_filtering.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace ascdg::flow {

/// 0x-prefixed, zero-padded 16-digit hex — the manifest encoding for
/// 64-bit values (JSON doubles are only exact to 2^53).
[[nodiscard]] std::string hex_u64(std::uint64_t value);
/// Inverse of hex_u64; throws util::Error for a non-hex string.
[[nodiscard]] std::uint64_t parse_hex_u64(const util::JsonValue& value);

/// 64-bit FNV-1a of `text`, continuing from `hash`, so a digest can be
/// taken over pieces as they stream past.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t hash = kFnv1aBasis) noexcept;

[[nodiscard]] std::string to_json(const coverage::SimStats& stats);
[[nodiscard]] coverage::SimStats sim_stats_from_json(
    const util::JsonValue& value);

[[nodiscard]] std::string to_json(const PhaseOutcome& phase);
[[nodiscard]] PhaseOutcome phase_outcome_from_json(
    const util::JsonValue& value);

[[nodiscard]] std::string to_json(const cdg::RandomSampleResult& sampling);
/// The same JSON as to_json(sampling), handed to `sink` one sample at a
/// time: at thousands of samples it runs to megabytes.
void write_json(const util::ContentSink& sink,
                const cdg::RandomSampleResult& sampling);
[[nodiscard]] cdg::RandomSampleResult sampling_from_json(
    const util::JsonValue& value);

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

/// Reads and parses one JSON artifact. Throws util::Error when the file
/// cannot be read, util::ParseError when it is not valid JSON.
[[nodiscard]] util::JsonValue read_json_file(const std::filesystem::path& path);

/// read_json_file for an object artifact whose last key is "digest":
/// the hex_u64 fnv1a of every byte before `,"digest":`. Throws
/// util::Error when it does not match, so a file altered on disk that
/// still parses is an error, not a resume into another trajectory. A
/// file without the key (written before digests) is read as is.
[[nodiscard]] util::JsonValue read_digested_json_file(
    const std::filesystem::path& path);

}  // namespace ascdg::flow
