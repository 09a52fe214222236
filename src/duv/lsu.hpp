// Behavioural model of a Load-Store Unit — the unit the paper's Fig. 1
// uses for its test-template example ("stressing the load store unit of
// a processor with a weight parameter for the instruction mnemonic and
// a range parameter for the cache delay"). The suite even contains the
// figure's lsu_stress template verbatim.
//
// The unit executes an instruction stream of {load, store, add, sync}.
// Stores enter a 12-deep store queue and retire after a delay derived
// from CacheDelay (slow caches keep stores queued longer). A load to a
// line with an outstanding store forwards from the queue; the family
// lsu_fwdq_01 .. lsu_fwdq_12 fires at the maximum store-queue occupancy
// observed at any forwarding event in the simulation.
//
// Deep forwarding occupancy needs: a store-heavy mnemonic mix (but with
// enough loads left to forward), same-line addressing (so the load
// matches), long cache delays (slow retirement), and few syncs (a sync
// drains the queue) — again a multi-parameter optimum.
#pragma once

#include <cstdint>

#include "duv/kernel.hpp"

namespace ascdg::duv {

/// Compiled distribution tables + precomputed entry codes (lsu.cpp).
struct LsuTables;
extern template class KernelDuv<LsuTables>;

class Lsu final : public KernelDuv<LsuTables> {
 public:
  Lsu();

  [[nodiscard]] std::string_view name() const noexcept override { return "lsu"; }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override;

  /// The lsu_fwdq_01..12 family (ordered easy -> hard).
  [[nodiscard]] const std::vector<coverage::EventId>& fwdq_family() const noexcept {
    return fwdq_events_;
  }

  static constexpr std::size_t kStoreQueueDepth = 12;
  static constexpr std::int64_t kLineCount = 256;  ///< distinct cache lines

 private:
  /// The one simulation kernel (lsu.cpp).
  void run(const LsuTables& tables, std::uint64_t seed,
           coverage::CoverageVector& out) const override;

  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> fwdq_events_;
  coverage::EventId ev_mnemonic_[4]{};
  coverage::EventId ev_fwd_hit_{};
  coverage::EventId ev_ld_hit_{}, ev_ld_miss_{};
  coverage::EventId ev_stq_full_{};
  coverage::EventId ev_sync_drain_{};
  coverage::EventId ev_bank_conflict_{};
};

}  // namespace ascdg::duv
