// The execution-backend seam.
//
// Every consumer of the batch environment — the batched objective, the
// flow stages, the CLI — submits work as "simulate these jobs, give me
// per-job SimStats" and never cares where the simulations run. Backend
// is that contract: an implementation takes a batch of Jobs and returns
// per-job hit-count partials, preserving two invariants the rest of the
// system is built on:
//
//   * determinism — the seed of instance i of a job is the pure
//     function SeedStream(seed_root).at(i), and hit-count accumulation
//     is commutative, so results are bit-identical across backends,
//     worker counts, and schedules;
//   * failure containment — if any simulation (or worker) fails, the
//     first error is raised to the caller after the batch has drained,
//     and the backend stays usable for subsequent calls. Never a hang.
//
// Two implementations ship: ThreadFarm (the in-process worker pool,
// exec/thread_farm.hpp) and ProcessFarm (fork-based worker processes,
// docs/backends.md).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "obs/metrics.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::exec {

/// Upper bound on a backend's worker count. parse_backend_spec rejects
/// larger counts, so a typo cannot ask for a million threads or
/// processes.
inline constexpr std::size_t kMaxWorkers = 1024;

/// A unit of backend work: one template simulated `count` times with
/// instance seeds derived from `seed_root`.
///
/// A tuned point is a job over a shared base template plus its own
/// weights: `weights` holds one value per weight or subrange entry of
/// `tmpl`, in template order (tgen::TestTemplate::weight_count), and
/// the job simulates `tmpl` with its entry weights replaced by them, as
/// tgen::TestTemplate::set_weights would write them. An empty span
/// means the template as is. Workers compile a base once per run and
/// reweight the compiled tables per job (Duv::Compiled::reweight), so
/// a point costs a weight copy, not a template. Both `tmpl` and the
/// weights must outlive run_all.
struct Job {
  Job() = default;
  Job(const tgen::TestTemplate* base, std::size_t sims, std::uint64_t seed,
      std::span<const double> point_weights = {}) noexcept
      : tmpl(base), count(sims), seed_root(seed), weights(point_weights) {}

  const tgen::TestTemplate* tmpl = nullptr;
  std::size_t count = 0;
  std::uint64_t seed_root = 0;
  std::span<const double> weights;
};

/// A farm worker's compiled tables for the job it is on. Jobs of one
/// base template compile it once and reweight the tables per job; a
/// unit whose compile() returns nullptr, or whose tables do not
/// reweight, simulates a copy of the template with the weights written
/// in. Owned by one worker; clear() it before the run's templates die.
class JobTables {
 public:
  /// Loads the tables of `tmpl` with `weights` (Job's meaning) and
  /// returns the template to pass to Duv::simulate_batch with
  /// compiled(). Throws what compile() or a weight-count check throws.
  const tgen::TestTemplate& load(const duv::Duv& duv,
                                 const tgen::TestTemplate& tmpl,
                                 std::span<const double> weights);

  [[nodiscard]] const duv::Duv::Compiled* compiled() const noexcept {
    return compiled_.get();
  }

  void clear() noexcept;

 private:
  /// The template compiled_ holds the tables of (nullptr when they are
  /// a materialized copy's), and whether they were reweighted since.
  const tgen::TestTemplate* base_ = nullptr;
  bool reweighted_ = false;
  std::unique_ptr<duv::Duv::Compiled> compiled_;
  std::optional<tgen::TestTemplate> materialized_;
};

/// Point-in-time copy of one farm's run counters, safe to pass around.
/// Backed by the process metrics registry: every series below also
/// exists there as `ascdg_farm_*{backend="<kind>",farm="<id>"}` (see
/// docs/observability.md), so Prometheus/JSON exports see the same
/// numbers this struct reports. The process backend fills only
/// simulations, exceptions and runs.
struct TelemetrySnapshot {
  /// Log2-of-microseconds histogram buckets: bucket i counts chunks
  /// whose wall time t satisfies 2^i us <= t < 2^(i+1) us (bucket 0
  /// also absorbs sub-microsecond chunks, the last bucket the tail).
  static constexpr std::size_t kLatencyBuckets = obs::Histogram::kBuckets;

  std::size_t simulations = 0;  ///< simulations completed
  std::size_t chunks = 0;       ///< work chunks executed
  std::size_t exceptions = 0;   ///< chunks that ended in a captured exception
  std::size_t runs = 0;         ///< run_all() calls completed
  std::uint64_t busy_ns = 0;    ///< summed wall time inside chunks
  /// Fraction of the pool's wall-clock capacity spent inside chunks
  /// since construction (0..1): busy_ns / (workers x farm lifetime).
  /// The report and /timeseries read the same number from the
  /// `ascdg_farm_worker_busy_fraction` gauge (stored in ppm).
  double busy_fraction = 0.0;
  std::array<std::size_t, kLatencyBuckets> chunk_latency{};

  /// Mean chunk wall time in microseconds (0 when no chunk ran).
  [[nodiscard]] double mean_chunk_us() const noexcept {
    return chunks == 0 ? 0.0
                       : static_cast<double>(busy_ns) / 1000.0 /
                             static_cast<double>(chunks);
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Stable backend name: "thread" or "process". Labels the backend's
  /// metric series and the /runz snapshot.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  [[nodiscard]] virtual std::size_t worker_count() const noexcept = 0;

  /// Runs all jobs; results are returned in job order. Rethrows the
  /// first error any simulation (or worker) raised, after the whole
  /// batch has drained — the backend stays usable afterwards.
  [[nodiscard]] virtual std::vector<coverage::SimStats> run_all(
      const duv::Duv& duv, std::span<const Job> jobs) = 0;

  /// Single-job convenience over run_all.
  [[nodiscard]] coverage::SimStats run(const duv::Duv& duv,
                                       const tgen::TestTemplate& tmpl,
                                       std::size_t count,
                                       std::uint64_t seed_root);

  /// Total simulations executed since construction — the paper's cost
  /// metric ("number of simulations").
  [[nodiscard]] virtual std::size_t total_simulations() const noexcept = 0;

  /// Point-in-time copy of the backend's run telemetry. Chunk counters
  /// and busy time are zero for backends without an in-process pool.
  [[nodiscard]] virtual TelemetrySnapshot telemetry() const = 0;

  /// Mean worker utilization since construction (0..1); 0 when the
  /// backend cannot observe its workers' busy time.
  [[nodiscard]] virtual double worker_busy_fraction() const noexcept = 0;

 protected:
  Backend() = default;
};

/// Parsed form of the CLI's --backend=thread|process[:N] flag.
struct BackendConfig {
  enum class Kind { kThread, kProcess };
  Kind kind = Kind::kThread;
  /// 0 selects the hardware concurrency.
  std::size_t workers = 0;

  friend bool operator==(const BackendConfig&, const BackendConfig&) = default;
};

/// Parses "thread", "process", "thread:N", "process:N". Throws
/// util::ConfigError (message includes the accepted forms) on an
/// unknown backend name, a garbage worker count, or one above
/// kMaxWorkers.
[[nodiscard]] BackendConfig parse_backend_spec(std::string_view spec);

/// Canonical spelling of a config: "thread", "process:8", ...
[[nodiscard]] std::string to_string(const BackendConfig& config);

/// Constructs the configured backend.
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    const BackendConfig& config);

}  // namespace ascdg::exec

// closure_bench/src/layers.hpp still spells the snapshot by its old
// name; delete this alias when that file next changes.
namespace ascdg::batch { using TelemetrySnapshot = exec::TelemetrySnapshot; }
