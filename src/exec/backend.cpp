#include "exec/backend.hpp"

#include <charconv>

#include "exec/process_farm.hpp"
#include "exec/thread_farm.hpp"
#include "util/error.hpp"

namespace ascdg::exec {

coverage::SimStats Backend::run(const duv::Duv& duv,
                                const tgen::TestTemplate& tmpl,
                                std::size_t count, std::uint64_t seed_root) {
  const Job job{&tmpl, count, seed_root};
  auto results = run_all(duv, std::span<const Job>(&job, 1));
  return std::move(results.front());
}

const tgen::TestTemplate& JobTables::load(const duv::Duv& duv,
                                          const tgen::TestTemplate& tmpl,
                                          std::span<const double> weights) {
  if (&tmpl != base_ || (weights.empty() && reweighted_)) {
    compiled_ = duv.compile(tmpl);
    base_ = &tmpl;
    reweighted_ = false;
  }
  if (weights.empty()) return tmpl;
  if (compiled_ != nullptr && compiled_->reweight(weights)) {
    reweighted_ = true;
    return tmpl;
  }
  materialized_.emplace(tmpl);
  materialized_->set_weights(weights);
  compiled_ = duv.compile(*materialized_);
  base_ = nullptr;
  return *materialized_;
}

void JobTables::clear() noexcept {
  compiled_.reset();
  materialized_.reset();
  base_ = nullptr;
  reweighted_ = false;
}

BackendConfig parse_backend_spec(std::string_view spec) {
  static constexpr std::string_view kHint =
      " (expected thread|process[:N], e.g. --backend=process:8)";
  std::string_view name = spec;
  std::string_view count;
  bool has_count = false;
  if (const std::size_t colon = spec.find(':');
      colon != std::string_view::npos) {
    name = spec.substr(0, colon);
    count = spec.substr(colon + 1);
    has_count = true;
  }
  BackendConfig config;
  if (name == "thread") {
    config.kind = BackendConfig::Kind::kThread;
  } else if (name == "process") {
    config.kind = BackendConfig::Kind::kProcess;
  } else {
    throw util::ConfigError("unknown backend '" + std::string(name) + "'" +
                            std::string(kHint));
  }
  if (has_count) {
    std::size_t workers = 0;
    const auto [end, ec] =
        std::from_chars(count.data(), count.data() + count.size(), workers);
    if (ec != std::errc{} || end != count.data() + count.size() ||
        workers == 0) {
      throw util::ConfigError("bad worker count '" + std::string(count) +
                              "' in backend spec '" + std::string(spec) +
                              "'" + std::string(kHint));
    }
    if (workers > kMaxWorkers) {
      throw util::ConfigError("worker count " + std::string(count) +
                              " in backend spec '" + std::string(spec) +
                              "' exceeds the limit of " +
                              std::to_string(kMaxWorkers));
    }
    config.workers = workers;
  }
  return config;
}

std::string to_string(const BackendConfig& config) {
  std::string out =
      config.kind == BackendConfig::Kind::kThread ? "thread" : "process";
  if (config.workers != 0) {
    out += ':';
    out += std::to_string(config.workers);
  }
  return out;
}

std::unique_ptr<Backend> make_backend(const BackendConfig& config) {
  if (config.kind == BackendConfig::Kind::kProcess) {
    return std::make_unique<ProcessFarm>(config.workers);
  }
  return std::make_unique<ThreadFarm>(config.workers);
}

}  // namespace ascdg::exec
