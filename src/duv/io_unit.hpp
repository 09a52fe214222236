// Behavioural model of an I/O (link controller) unit with a CRC-burst
// coverage family — the paper's Fig. 3 subject.
//
// The unit processes a stream of commands. "crc_write" commands extend
// an open CRC-protected transfer by a burst of beats; a "crc_done"
// command commits the transfer, and the family events crc_004 ..
// crc_096 fire when the longest *committed* transfer in a simulation
// reaches the threshold. A transfer in progress is fragile — exactly
// the kind of deep machine state that makes these events hard to hit:
//   * write / ctrl / abort commands abort it uncommitted;
//   * an injected CRC or parity error aborts it;
//   * an inter-command gap longer than kGapTimeout cycles times it out;
//   * bursts consume buffer credits which refill with the gaps, so
//     back-to-back maximal bursts starve and stall;
//   * every beat independently risks a link retrain (kBeatHazard) that
//     no template parameter can disable — the irreducible hazard that
//     gives the family its gradient even under an optimal template.
//
// Hitting crc_096 therefore needs a template that simultaneously raises
// the crc_write weight, keeps a small-but-nonzero crc_done weight (too
// high commits transfers short, too low lets hazards kill them),
// shortens gaps below the timeout (but not so much that credits
// starve), maximizes burst length, and disables error injection — a
// multi-parameter optimum with real tension, which is what gives the
// fine-grained search something to do.
#pragma once

#include <cstdint>

#include "duv/kernel.hpp"

namespace ascdg::duv {

/// Compiled distribution tables + precomputed entry codes (io_unit.cpp).
struct IoUnitTables;
extern template class KernelDuv<IoUnitTables>;

class IoUnit final : public KernelDuv<IoUnitTables> {
 public:
  IoUnit();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "io_unit";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override;

  /// The crc_* family (ordered easy -> hard).
  [[nodiscard]] const std::vector<coverage::EventId>& crc_family() const noexcept {
    return crc_events_;
  }

  /// Micro-architectural constants (exposed for tests).
  static constexpr std::int64_t kGapTimeout = 24;   ///< cycles; longer gap kills a transfer
  static constexpr std::int64_t kCreditCap = 8;     ///< max buffer credits
  static constexpr double kBeatHazard = 0.02;       ///< per-beat link-retrain probability
  static constexpr int kCrcThresholds[6] = {4, 8, 16, 32, 64, 96};

 private:
  /// The one simulation kernel (io_unit.cpp).
  void run(const IoUnitTables& tables, std::uint64_t seed,
           coverage::CoverageVector& out) const override;

  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> crc_events_;
  // Misc event ids cached for the hot loop.
  coverage::EventId ev_cmd_[7]{};
  coverage::EventId ev_err_crc_{}, ev_err_parity_{};
  coverage::EventId ev_credit_stall_{};
  coverage::EventId ev_addr_[3]{};
  coverage::EventId ev_qos_[4]{};
  coverage::EventId ev_pkt_[3]{};
  coverage::EventId ev_burst_partial_{};
  coverage::EventId ev_link_retrain_{};
  coverage::EventId ev_crc_commit_{};
};

}  // namespace ascdg::duv
