#include "stimgen/profile.hpp"

namespace ascdg::stimgen {

ScopedDrawProfiler::ScopedDrawProfiler() : previous_(detail::active_profiler) {
  detail::active_profiler = this;
}

ScopedDrawProfiler::~ScopedDrawProfiler() {
  detail::active_profiler = previous_;
}

std::size_t ScopedDrawProfiler::total() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, count] : counts_) total += count;
  return total;
}

void record_draw(std::string_view name) {
  auto [it, inserted] =
      detail::active_profiler->counts_.try_emplace(std::string(name), 0);
  ++it->second;
}

}  // namespace ascdg::stimgen
