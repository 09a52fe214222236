// Parameter-usage profiling.
//
// The paper (§III) notes that "parameters can be used many times during
// the generation process, and the number of times a parameter is used
// may differ from parameter to parameter and per test-instance" — e.g.
// the mnemonic parameter is consulted per instruction, CacheDelay only
// on cache accesses. This profiler measures exactly that, through the
// black-box Duv interface: activate a ScopedDrawProfiler on the current
// thread, run simulate(), and read the per-parameter draw counts.
//
// The hook is thread-local, so profiling must run simulations on the
// calling thread (not through a farm); when no profiler is active
// every draw pays a single inline thread-local test.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace ascdg::stimgen {

class ScopedDrawProfiler {
 public:
  /// Activates profiling on this thread; restores the previous profiler
  /// (supporting nesting) on destruction.
  ScopedDrawProfiler();
  ~ScopedDrawProfiler();

  ScopedDrawProfiler(const ScopedDrawProfiler&) = delete;
  ScopedDrawProfiler& operator=(const ScopedDrawProfiler&) = delete;

  /// Draw counts per parameter name since activation.
  [[nodiscard]] const std::map<std::string, std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Total draws across all parameters.
  [[nodiscard]] std::size_t total() const noexcept;

  void reset() noexcept { counts_.clear(); }

 private:
  friend void record_draw(std::string_view name);
  std::map<std::string, std::size_t> counts_;
  ScopedDrawProfiler* previous_ = nullptr;
};

namespace detail {
/// The profiler active on this thread, or nullptr.
inline thread_local ScopedDrawProfiler* active_profiler = nullptr;
}  // namespace detail

/// Counts one draw of `name` on the active profiler, which must exist.
void record_draw(std::string_view name);

/// Records one draw of `name` on the active profiler (no-op when none).
/// Called by every CompiledParam draw; exposed for custom generators.
inline void note_draw(std::string_view name) {
  if (detail::active_profiler != nullptr) [[unlikely]] {
    record_draw(name);
  }
}

}  // namespace ascdg::stimgen
