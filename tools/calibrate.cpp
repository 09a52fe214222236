// Model-calibration dump: per-family hit rates for each unit under (a)
// each suite template, (b) the aggregated suite ("Before CDG"), and (c)
// a hand-tuned near-optimal template. Used when tuning the simulated
// units so the flow reproduces the paper's coverage shapes; kept in the
// repo because re-calibration is needed whenever a unit model changes.
//
//   $ ./calibrate [sims_per_template]
#include <cstdlib>
#include <iostream>

#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "exec/thread_farm.hpp"
#include "report/report.hpp"
#include "tgen/parser.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace ascdg;

void dump_family(const duv::Duv& duv, exec::ThreadFarm& farm,
                 const std::vector<coverage::EventId>& family,
                 const tgen::TestTemplate& tuned, std::size_t sims) {
  std::cout << "\n### " << duv.name() << " ###\n";
  std::vector<std::string> headers{"template"};
  for (const auto event : family) headers.push_back(duv.space().name(event));
  util::Table table(headers);

  coverage::SimStats total(duv.space().size());
  for (const auto& tmpl : duv.suite()) {
    const auto stats = farm.run(duv, tmpl, sims, 1);
    std::vector<util::Cell> row{tmpl.name()};
    for (const auto event : family) {
      row.push_back(util::format_number(stats.hit_rate(event), 3));
    }
    table.add_row(std::move(row));
    total.merge(stats);
  }
  table.add_separator();
  {
    std::vector<util::Cell> row{"SUITE TOTAL"};
    for (const auto event : family) {
      row.push_back(util::format_number(total.hit_rate(event), 3));
    }
    table.add_row(std::move(row));
  }
  {
    const auto stats = farm.run(duv, tuned, sims, 2);
    std::vector<util::Cell> row{"TUNED"};
    for (const auto event : family) {
      row.push_back(util::format_number(stats.hit_rate(event), 3));
    }
    table.add_row(std::move(row));
  }
  table.render(std::cout, false);
}

void dump_ifu_statuses(const duv::Ifu& ifu, exec::ThreadFarm& farm,
                       const tgen::TestTemplate& tuned, std::size_t sims) {
  const auto family = ifu.space().family_events("ifu");
  coverage::SimStats total(ifu.space().size());
  for (const auto& tmpl : ifu.suite()) {
    total.merge(farm.run(ifu, tmpl, sims, 1));
  }
  const auto suite_counts = report::count_status(total, family);
  std::cout << "\nifu suite total (" << total.sims()
            << " sims): never=" << suite_counts.never
            << " lightly=" << suite_counts.lightly
            << " well=" << suite_counts.well << '\n';
  const auto tuned_stats = farm.run(ifu, tuned, sims, 2);
  const auto tuned_counts = report::count_status(tuned_stats, family);
  std::cout << "ifu tuned (" << tuned_stats.sims()
            << " sims): never=" << tuned_counts.never
            << " lightly=" << tuned_counts.lightly
            << " well=" << tuned_counts.well << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t sims =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 4000;
  exec::ThreadFarm farm;

  const duv::IoUnit io;
  dump_family(io, farm, io.crc_family(), tgen::parse_template(R"(
    template io_tuned {
      weight Cmd { crc_write: 88, crc_done: 6, read: 6, write: 0, ctrl: 0, nop: 0, abort: 0 }
      subrange BurstLen { [1, 4]: 0, [5, 8]: 1 }
      subrange GapDelay { [0, 7]: 0, [8, 20]: 1, [21, 63]: 0 }
      weight ErrInject { off: 1, crc_err: 0, parity_err: 0 }
      subrange NumOps { [60, 130]: 0, [131, 160]: 1 }
      subrange CreditLimit { [4, 7]: 0, [8, 8]: 1 }
    }
  )"), sims);

  const duv::L3Cache l3;
  dump_family(l3, farm, l3.byp_family(), tgen::parse_template(R"(
    template l3_tuned {
      weight ReqType { nc_read: 50, dma: 48, read: 2, write: 0, prefetch: 0, castout: 0 }
      subrange InterArrival { [0, 2]: 1, [3, 31]: 0 }
      subrange RespDelay { [8, 79]: 0, [80, 96]: 1 }
      subrange NumReqs { [100, 250]: 0, [251, 300]: 1 }
    }
  )"), sims);

  const duv::Ifu ifu;
  const auto ifu_tuned = tgen::parse_template(R"(
    template ifu_tuned {
      subrange FetchGap { [2, 3]: 1, [4, 15]: 0 }
      weight ICache { hit: 2, miss: 98 }
      subrange MissLatency { [8, 26]: 0, [27, 30]: 1 }
      weight BranchDir { not_taken: 85, taken: 15 }
      weight Redirect { off: 1, on: 0 }
      weight ThreadSel { 0: 1, 1: 1, 2: 1, 3: 1 }
      weight SectorSel { 0: 1, 1: 1, 2: 1, 3: 1 }
    }
  )");
  dump_ifu_statuses(ifu, farm, ifu_tuned, sims);
  return 0;
}
