// The closure benchmark's workloads and its unit of measurement: one
// complete AS-CDG flow (set-up, CdgRunner::run, verification).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "layers.hpp"

namespace closure_bench {

/// Every backend runs this many workers, never the hardware-concurrency
/// default, so the figures do not depend on the host's core count.
inline constexpr std::size_t kWorkers = 4;

/// The seed whose result digests are recorded below (the CLI's default).
inline constexpr std::uint64_t kDefaultSeed = 2021;

/// Distinct flow seeds a run cycles through; the quality metrics are
/// taken over exactly these flows, so they repeat at a fixed run seed.
inline constexpr std::size_t kDistinctSeeds = 16;

/// One workload: a unit, a target family, a backend and the flow budgets
/// (flags as in `ascdg run`).
struct Workload {
  std::string_view name;
  std::string_view unit;
  std::string_view family;
  ascdg::exec::BackendConfig::Kind backend;
  std::size_t before_sims;  ///< per suite template
  std::size_t samples;
  std::size_t sample_sims;
  std::size_t iterations;
  std::size_t directions;
  std::size_t point_sims;
  std::size_t harvest;
  bool session;  ///< durable session in a fresh directory per flow
  /// Result digest of flow 0 at kDefaultSeed.
  std::uint64_t golden_digest;
  std::string_view why;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Seed of the k-th distinct flow of a run; flow 0 uses the run seed.
[[nodiscard]] std::uint64_t flow_seed(std::uint64_t run_seed, std::size_t k);

/// Everything one flow measured and produced.
struct FlowSample {
  std::uint64_t seed = 0;
  bool traced = false;
  double setup_s = 0.0;          ///< unit + backend + before-CDG
  std::size_t before_sims = 0;
  double flow_wall_s = 0.0;      ///< CdgRunner::run
  std::size_t flow_sims = 0;
  std::size_t targets = 0;
  std::size_t targets_hit = 0;
  double best_target_rate = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double sampling_s = 0.0;
  double optimization_s = 0.0;
  double harvest_s = 0.0;
  std::uintmax_t session_bytes = 0;
  std::uint64_t digest = 0;
  /// Empty when the flow completed and passed its own checks.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Runs one flow of `workload` at `seed` on the workload's backend. With
/// `log` set, the unit and backend are wrapped in TracedDuv /
/// TracedBackend and the benchmark's own set-up, before and flow spans
/// are recorded. Session directories go under `scratch`. Never throws:
/// failures land in FlowSample::error.
[[nodiscard]] FlowSample run_flow(const Workload& workload, std::uint64_t seed,
                                  SpanLog* log,
                                  const std::filesystem::path& scratch);

}  // namespace closure_bench
