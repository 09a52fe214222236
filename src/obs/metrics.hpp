// Process-wide metrics registry.
//
// The paper judges the whole system by convergence behavior under
// simulation noise, so every subsystem (farm, optimizer, TAC, coverage
// repository) keeps first-class books here: named counters, gauges and
// log2 histograms, optionally split into labeled families (for example
// one `ascdg_farm_simulations_total{farm="3"}` series per farm).
//
// Hot-path contract: registration (registry().counter(...)) is cold and
// takes a mutex once; the returned handle is a stable reference whose
// mutators are wait-free relaxed atomics. Counters shard their cell
// across cache lines by thread so concurrent writers do not bounce a
// single line. Readers call Registry::snapshot(), which merges shards
// into a deterministic (sorted-by-key) point-in-time copy — consistent
// enough for reporting, not a linearizable cut.
//
// `set_metrics_enabled(false)` turns every mutator into a cheap no-op
// (one relaxed load) so benchmarks can measure instrumentation
// overhead; registration and snapshots still work while disabled.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ascdg::obs {

/// Global instrumentation switch (default on). Disabling makes counter,
/// gauge, and histogram mutators no-ops; it does not clear prior values.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

namespace detail {
/// Stable small shard index for the calling thread.
[[nodiscard]] std::size_t thread_shard() noexcept;
}  // namespace detail

/// Monotone event count. add() is wait-free; the cell is sharded across
/// cache lines so writer threads do not contend.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void add(std::uint64_t n) noexcept {
    if (!metrics_enabled()) return;
    shards_[detail::thread_shard()].cell.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Point-in-time sum over the shards.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.cell.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> cell{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Signed instantaneous value (live workers, resident memory) with a
/// high-watermark. One atomic cell: adds/subtracts from many threads
/// stay consistent.
class Gauge {
 public:
  void add(std::int64_t delta) noexcept {
    if (!metrics_enabled()) return;
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      std::int64_t seen = max_.load(std::memory_order_relaxed);
      while (now > seen && !max_.compare_exchange_weak(
                               seen, now, std::memory_order_relaxed)) {
      }
    }
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }
  void set(std::int64_t value) noexcept {
    if (!metrics_enabled()) return;
    value_.store(value, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Largest value ever set/reached via add() (the peak watermark).
  [[nodiscard]] std::int64_t peak() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Log2 histogram: bucket i counts observations v with
/// 2^i <= v < 2^(i+1) (bucket 0 also absorbs v == 0, the last bucket
/// the tail). Buckets are relaxed atomics — not sharded, since one
/// fetch_add per chunk-scale observation is already far off the
/// simulate() hot path.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 26;

  void observe(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// One key=value metric label.
struct Label {
  std::string_view key;
  std::string_view value;
};

/// Point-in-time copy of one metric series.
struct MetricSample {
  std::string name;    ///< family name, e.g. "ascdg_farm_simulations_total"
  std::string labels;  ///< rendered `key="value",...` (empty when unlabeled)
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;                ///< kCounter
  std::int64_t gauge = 0;                   ///< kGauge
  std::int64_t gauge_peak = 0;              ///< kGauge watermark
  std::vector<std::uint64_t> buckets;       ///< kHistogram (log2)
  std::uint64_t count = 0;                  ///< kHistogram observations
  std::uint64_t sum = 0;                    ///< kHistogram summed values
};

/// Deterministic snapshot: samples sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// First sample matching name (and labels, when given); nullptr when
  /// absent. Linear scan — snapshots are report-sized.
  [[nodiscard]] const MetricSample* find(
      std::string_view name, std::string_view labels = {}) const noexcept;
};

/// Estimated q-quantile (q in [0, 1]) of a histogram sample via linear
/// interpolation inside the containing log2 bucket: bucket 0 spans
/// [0, 2), bucket i spans [2^i, 2^(i+1)), and the tail bucket is
/// clamped to its nominal upper edge. Uses the nearest-rank convention
/// (rank = ceil(q * count)); returns 0 for an empty histogram or a
/// non-histogram sample. Exact for single-bucket distributions, within
/// one bucket width otherwise — plenty for the latency/batch-size
/// summaries the exporters and the report print.
[[nodiscard]] double histogram_quantile(const MetricSample& sample,
                                        double q) noexcept;

/// Owns the metric handles. Handles returned by counter()/gauge()/
/// histogram() are valid for the registry's lifetime and stable across
/// further registrations. Re-registering the same (name, labels) returns
/// the same handle; registering it as a different kind throws
/// util::Error.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::initializer_list<Label> labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name,
                             std::initializer_list<Label> labels = {});
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::initializer_list<Label> labels = {});

  /// Merged, sorted, point-in-time copy of every registered series.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Number of registered series (for tests).
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, std::initializer_list<Label> labels,
               MetricKind kind);

  mutable std::mutex mutex_;
  /// Keyed by `name{labels}` — map order gives snapshot determinism.
  std::map<std::string, Entry, std::less<>> entries_;
};

/// The process-wide default registry every subsystem instruments into.
[[nodiscard]] Registry& registry();

}  // namespace ascdg::obs
