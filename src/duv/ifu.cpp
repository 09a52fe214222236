#include "duv/ifu.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "stimgen/compiled.hpp"
#include "tgen/parser.hpp"
#include "util/rng.hpp"

namespace ascdg::duv {

namespace {

constexpr std::string_view kSuiteText = R"(
# Single-thread default run.
template ifu_default {
  weight ThreadSel { 0: 70, 1: 20, 2: 8, 3: 2 }
}

# Sequential fetch bandwidth (no branches).
template ifu_seq_fetch {
  weight BranchDir { not_taken: 98, taken: 2 }
  range FetchGap [6, 15]
  weight SectorSel { 0: 70, 1: 20, 2: 8, 3: 2 }
}

# Branch-heavy workload.
template ifu_branchy {
  weight BranchDir { not_taken: 45, taken: 55 }
  weight Redirect { off: 40, on: 60 }
}

# ICache thrash: many misses, slow drains.
template ifu_icache_thrash {
  weight ICache { hit: 60, miss: 40 }
  range MissLatency [10, 18]
  range FetchGap [2, 15]
}

# SMT fairness mix.
template ifu_smt_mix {
  weight ThreadSel { 0: 25, 1: 25, 2: 25, 3: 25 }
  range FetchGap [6, 12]
}

# Sector sweep diagnostics.
template ifu_sector_sweep {
  weight SectorSel { 0: 25, 1: 25, 2: 25, 3: 25 }
}

# Back-to-back fetch pressure: the template whose parameters matter for
# deep buffer occupancy.
template ifu_b2b_fetch {
  range FetchGap [2, 5]
  weight ICache { hit: 70, miss: 30 }
  weight BranchDir { not_taken: 90, taken: 10 }
}

# Long-latency corner.
template ifu_slow_drain {
  range MissLatency [22, 30]
  weight ICache { hit: 70, miss: 30 }
}
)";

}  // namespace

Ifu::Ifu() : defaults_("ifu_defaults") {
  cross_ = &space_.declare_cross_product(
      "ifu", {{"entry", kEntries},
              {"thread", kThreads},
              {"sector", kSectors},
              {"branch", 2}});
  ev_stall_ = space_.declare_event("ifu_credit_stall");
  ev_redirect_ = space_.declare_event("ifu_redirect_flush");
  ev_icache_miss_ = space_.declare_event("ifu_icache_miss");
  ev_thread_switch_ = space_.declare_event("ifu_thread_switch");

  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"ThreadSel",
                                {{Value{std::int64_t{0}}, 70},
                                 {Value{std::int64_t{1}}, 20},
                                 {Value{std::int64_t{2}}, 8},
                                 {Value{std::int64_t{3}}, 2}}});
  defaults_.add(WeightParameter{"SectorSel",
                                {{Value{std::int64_t{0}}, 50},
                                 {Value{std::int64_t{1}}, 30},
                                 {Value{std::int64_t{2}}, 15},
                                 {Value{std::int64_t{3}}, 5}}});
  defaults_.add(WeightParameter{"BranchDir",
                                {{Value{"not_taken"}, 90}, {Value{"taken"}, 10}}});
  defaults_.add(RangeParameter{"FetchGap", 2, 15});
  defaults_.add(WeightParameter{"ICache",
                                {{Value{"hit"}, 85}, {Value{"miss"}, 15}}});
  defaults_.add(RangeParameter{"HitLatency", 1, 3});
  defaults_.add(RangeParameter{"MissLatency", 8, 30});
  defaults_.add(WeightParameter{"Redirect",
                                {{Value{"off"}, 90}, {Value{"on"}, 10}}});
  defaults_.add(RangeParameter{"NumFetches", 80, 240});
}

// Compiled per-template distribution tables. Entry codes turn per-draw
// symbol comparisons into integer compares: code 0 means the
// "interesting" symbol ("taken" / "miss" / "on"), anything else falls
// through like an unmatched symbol.
struct IfuTables final : KernelTables {
  const stimgen::CompiledParam* num_fetches;
  const stimgen::CompiledParam* fetch_gap;
  const stimgen::CompiledParam* thread_sel;
  const stimgen::CompiledParam* sector_sel;
  const stimgen::CompiledParam* branch_dir;
  const stimgen::CompiledParam* icache;
  const stimgen::CompiledParam* hit_latency;
  const stimgen::CompiledParam* miss_latency;
  const stimgen::CompiledParam* redirect;
  std::vector<std::int32_t> branch_taken;
  std::vector<std::int32_t> icache_miss;
  std::vector<std::int32_t> redirect_on;

  IfuTables(const tgen::TestTemplate* overrides,
            const tgen::TestTemplate& defaults)
      : KernelTables(overrides, defaults),
        num_fetches(table.find("NumFetches")),
        fetch_gap(table.find("FetchGap")),
        thread_sel(table.find("ThreadSel")),
        sector_sel(table.find("SectorSel")),
        branch_dir(table.find("BranchDir")),
        icache(table.find("ICache")),
        hit_latency(table.find("HitLatency")),
        miss_latency(table.find("MissLatency")),
        redirect(table.find("Redirect")) {
    constexpr std::string_view kTaken[] = {"taken"};
    constexpr std::string_view kMiss[] = {"miss"};
    constexpr std::string_view kOn[] = {"on"};
    branch_taken = stimgen::entry_codes(*branch_dir, kTaken, 1);
    icache_miss = stimgen::entry_codes(*icache, kMiss, 1);
    redirect_on = stimgen::entry_codes(*redirect, kOn, 1);
  }
};

template class KernelDuv<IfuTables>;

void Ifu::run(const IfuTables& t, std::uint64_t seed,
              coverage::CoverageVector& vec) const {
  util::Xoshiro256 rng(seed);
  vec.reset(space_.size());
  std::int64_t now = 0;
  std::int64_t last_thread = -1;
  // Drain timestamps of the live fetch-buffer entries, in allocation
  // order.
  std::array<std::int64_t, kCreditCap> live{};
  std::size_t live_n = 0;

  for (std::int64_t left = t.num_fetches->draw_range(rng); left > 0; --left) {
    now += t.fetch_gap->draw_range(rng);

    // Drain entries whose icache response has arrived (stable).
    std::size_t keep = 0;
    for (std::size_t e = 0; e < live_n; ++e) {
      if (live[e] > now) live[keep++] = live[e];
    }
    live_n = keep;

    const std::int64_t thread = std::clamp<std::int64_t>(
        t.thread_sel->draw_int(rng), 0, kThreads - 1);
    if (last_thread >= 0 && thread != last_thread) vec.hit(ev_thread_switch_);
    last_thread = thread;

    const std::int64_t sector = std::clamp<std::int64_t>(
        t.sector_sel->draw_int(rng), 0, kSectors - 1);
    const bool taken = stimgen::entry_code(*t.branch_dir, t.branch_taken,
                                           t.branch_dir->draw_index(rng)) == 0;

    // Credit limiter: live occupancy is capped at 7, so allocation
    // index 7 (the 8th entry) is structurally unreachable.
    if (live_n >= kCreditCap) {
      vec.hit(ev_stall_);
      continue;
    }
    const std::size_t entry = live_n;

    const bool miss = stimgen::entry_code(*t.icache, t.icache_miss,
                                          t.icache->draw_index(rng)) == 0;
    if (miss) vec.hit(ev_icache_miss_);
    const std::int64_t latency = miss ? t.miss_latency->draw_range(rng)
                                      : t.hit_latency->draw_range(rng);
    live[live_n++] = now + latency;

    const std::size_t coords[4] = {entry, static_cast<std::size_t>(thread),
                                   static_cast<std::size_t>(sector),
                                   taken ? std::size_t{1} : std::size_t{0}};
    vec.hit(space_.cross_event(*cross_, coords));

    // A taken branch with redirect enabled flushes the fetch buffer.
    if (taken && stimgen::entry_code(*t.redirect, t.redirect_on,
                                     t.redirect->draw_index(rng)) == 0) {
      vec.hit(ev_redirect_);
      live_n = 0;
    }
  }
}

std::vector<tgen::TestTemplate> Ifu::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
