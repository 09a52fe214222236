#include "duv/lsu.hpp"

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

/// A raw uniform cache line, as uniform_i64(0, kLineCount - 1) draws it.
constexpr util::UniformIntRange kAnyLine(0, Lsu::kLineCount - 1);

enum Mnemonic : std::size_t { kLoad = 0, kStore, kAdd, kSync, kMnemonicCount };
constexpr const char* kMnemonicNames[kMnemonicCount] = {"load", "store", "add",
                                                        "sync"};

constexpr std::string_view kSuiteText = R"(
# The paper's Fig. 1(a) template, verbatim.
template lsu_stress {
  weight Mnemonic { load: 40, store: 40, add: 0, sync: 20 }
  range CacheDelay [0, 1000]
}

# Nightly defaults.
template lsu_default {
  weight Mnemonic { load: 35, store: 25, add: 30, sync: 10 }
}

# Load bandwidth.
template lsu_load_stream {
  weight Mnemonic { load: 70, store: 10, add: 15, sync: 5 }
  weight AddrPattern { same_line: 10, stride: 60, random: 30 }
}

# Store bursts with frequent fences.
template lsu_store_fence {
  weight Mnemonic { load: 10, store: 55, add: 10, sync: 25 }
}

# Same-line contention smoke test: the template whose parameters matter
# for the forwarding-queue family.
template lsu_same_line {
  weight Mnemonic { load: 30, store: 45, add: 15, sync: 10 }
  weight AddrPattern { same_line: 55, stride: 30, random: 15 }
  range CacheDelay [0, 1000]
}

# Random-address ALU mix.
template lsu_alu_mix {
  weight Mnemonic { load: 20, store: 15, add: 60, sync: 5 }
  weight AddrPattern { same_line: 5, stride: 25, random: 70 }
}

# Slow-memory corner.
template lsu_slow_cache {
  range CacheDelay [600, 1000]
  weight Mnemonic { load: 40, store: 20, add: 30, sync: 10 }
}

# Strided engine (DMA-like).
template lsu_stride_engine {
  weight AddrPattern { same_line: 0, stride: 90, random: 10 }
  range StrideSize [1, 8]
}
)";

}  // namespace

Lsu::Lsu() : defaults_("lsu_defaults") {
  std::vector<std::string> suffixes;
  for (std::size_t k = 1; k <= kStoreQueueDepth; ++k) {
    std::string suffix = k < 10 ? "0" : "";
    suffix += std::to_string(k);
    suffixes.push_back(std::move(suffix));
  }
  fwdq_events_ = space_.declare_family("lsu_fwdq", suffixes);

  for (std::size_t m = 0; m < kMnemonicCount; ++m) {
    ev_mnemonic_[m] =
        space_.declare_event("lsu_op_" + std::string(kMnemonicNames[m]));
  }
  ev_fwd_hit_ = space_.declare_event("lsu_fwd_hit");
  ev_ld_hit_ = space_.declare_event("lsu_ld_hit");
  ev_ld_miss_ = space_.declare_event("lsu_ld_miss");
  ev_stq_full_ = space_.declare_event("lsu_stq_full");
  ev_sync_drain_ = space_.declare_event("lsu_sync_drain");
  ev_bank_conflict_ = space_.declare_event("lsu_bank_conflict");

  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"Mnemonic",
                                {{Value{"load"}, 35},
                                 {Value{"store"}, 25},
                                 {Value{"add"}, 30},
                                 {Value{"sync"}, 10}}});
  defaults_.add(RangeParameter{"CacheDelay", 0, 1000});
  defaults_.add(WeightParameter{"AddrPattern",
                                {{Value{"same_line"}, 15},
                                 {Value{"stride"}, 45},
                                 {Value{"random"}, 40}}});
  defaults_.add(RangeParameter{"StrideSize", 1, 8});
  defaults_.add(RangeParameter{"NumInstr", 100, 300});
}

// Compiled per-template distribution tables. Mnemonic codes index
// straight into ev_mnemonic_ (unmatched symbols decay to load);
// address-pattern codes are 0 same_line / 1 stride / 2 random-or-unknown.
struct LsuTables final : KernelTables {
  const stimgen::CompiledParam* num_instr;
  const stimgen::CompiledParam* mnemonic;
  const stimgen::CompiledParam* addr_pattern;
  const stimgen::CompiledParam* stride_size;
  const stimgen::CompiledParam* cache_delay;
  std::vector<std::int32_t> mnemonic_codes;
  std::vector<std::int32_t> pattern_codes;

  LsuTables(const tgen::TestTemplate* overrides,
            const tgen::TestTemplate& defaults)
      : KernelTables(overrides, defaults),
        num_instr(table.find("NumInstr")),
        mnemonic(table.find("Mnemonic")),
        addr_pattern(table.find("AddrPattern")),
        stride_size(table.find("StrideSize")),
        cache_delay(table.find("CacheDelay")) {
    constexpr std::string_view kMnemonics[] = {"load", "store", "add", "sync"};
    constexpr std::string_view kPatterns[] = {"same_line", "stride"};
    mnemonic_codes =
        stimgen::entry_codes(*mnemonic, kMnemonics, static_cast<std::int32_t>(kLoad));
    pattern_codes = stimgen::entry_codes(*addr_pattern, kPatterns, 2);
  }
};

template class KernelDuv<LsuTables>;

void Lsu::run(const LsuTables& t, std::uint64_t seed,
              coverage::CoverageVector& vec) const {
  util::Xoshiro256 rng(seed);
  vec.reset(space_.size());
  std::int64_t now = 0;
  std::int64_t stride_cursor = 0;
  std::int64_t last_line = -1;
  std::size_t max_fwd = 0;
  // Outstanding stores in program order: line and retirement time.
  std::array<std::int64_t, kStoreQueueDepth> sq_line{};
  std::array<std::int64_t, kStoreQueueDepth> sq_ret{};
  std::size_t sq_n = 0;

  // Draws AddrPattern, then StrideSize or a raw uniform line depending
  // on the pattern code; flags a bank conflict with the previous line.
  const auto next_line = [&]() -> std::int64_t {
    const std::int32_t pattern = stimgen::entry_code(
        *t.addr_pattern, t.pattern_codes, t.addr_pattern->draw_index(rng));
    std::int64_t line = 0;
    if (pattern == 1) {
      stride_cursor = (stride_cursor + t.stride_size->draw_range(rng)) % kLineCount;
      line = stride_cursor;
    } else if (pattern != 0) {
      line = kAnyLine.draw(rng);
    }
    if (last_line >= 0 && line != last_line && line % 4 == last_line % 4) {
      vec.hit(ev_bank_conflict_);
    }
    last_line = line;
    return line;
  };
  // Drops retired stores, keeping the survivors in order.
  const auto drain = [&] {
    std::size_t keep = 0;
    for (std::size_t e = 0; e < sq_n; ++e) {
      if (sq_ret[e] > now) {
        sq_line[keep] = sq_line[e];
        sq_ret[keep] = sq_ret[e];
        ++keep;
      }
    }
    sq_n = keep;
  };

  for (std::int64_t left = t.num_instr->draw_range(rng); left > 0; --left) {
    now += 4;  // issue bandwidth: one memory op per 4 cycles
    drain();

    const auto m = static_cast<std::size_t>(stimgen::entry_code(
        *t.mnemonic, t.mnemonic_codes, t.mnemonic->draw_index(rng)));
    vec.hit(ev_mnemonic_[m]);

    switch (m) {
      case kLoad: {
        const std::int64_t line = next_line();
        // A matching outstanding store forwards.
        const bool forwarded =
            std::find(sq_line.begin(), sq_line.begin() + sq_n, line) !=
            sq_line.begin() + sq_n;
        if (forwarded) {
          vec.hit(ev_fwd_hit_);
          max_fwd = std::max(max_fwd, sq_n);
        } else {
          // Cache lookup: same-line data is warm; others miss more.
          const double hit_p = line == 0 ? 0.9 : 0.55;
          vec.hit(rng.bernoulli(hit_p) ? ev_ld_hit_ : ev_ld_miss_);
        }
        break;
      }
      case kStore: {
        const std::int64_t line = next_line();
        if (sq_n >= kStoreQueueDepth) {
          // Full queue: the store stalls until the oldest entry drains.
          vec.hit(ev_stq_full_);
          now = sq_ret[0];
          drain();
        }
        // Retirement latency scales with the cache delay parameter.
        const std::int64_t delay = t.cache_delay->draw_range(rng);
        sq_line[sq_n] = line;
        sq_ret[sq_n] = now + 4 + delay / 16;
        ++sq_n;
        break;
      }
      case kSync:
        if (sq_n > 0) {
          vec.hit(ev_sync_drain_);
          now = std::max(now, *std::max_element(sq_ret.begin(),
                                                sq_ret.begin() + sq_n));
          sq_n = 0;
        }
        break;
      case kAdd:
      default:
        break;  // filler
    }
  }

  for (std::size_t k = 0; k < fwdq_events_.size(); ++k) {
    if (max_fwd >= k + 1) vec.hit(fwdq_events_[k]);
  }
}

std::vector<tgen::TestTemplate> Lsu::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
