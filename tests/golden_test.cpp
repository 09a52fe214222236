// Golden digests: absolute pins on every unit's simulation results.
//
// The equivalence suites (scalar ≡ batch, thread ≡ process) are
// relative, so a change that moves both sides alike passes them. This
// suite hashes per-event hit counts at fixed seed roots and compares
// them against digests recorded in this file, for each unit's defaults,
// every suite template, and one tuned template (a skeleton instantiated
// at a fixed point). Each digest is taken twice: through the scalar
// simulate() loop and through a ThreadFarm run_all.
//
// A mismatch means the unit's results moved. The failure message
// prints the actual digest; if the move is intended, record the new
// value here and name the change in CHANGES.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/repository.hpp"
#include "duv/registry.hpp"
#include "exec/thread_farm.hpp"
#include "tgen/parser.hpp"
#include "util/rng.hpp"

namespace ascdg {
namespace {

constexpr std::uint64_t kSeedRoots[] = {2021, 7};
/// Two full 64-sim farm chunks plus a remainder.
constexpr std::size_t kSims = 150;

/// One tuned skeleton per unit, covering weight, subrange and range
/// overrides.
std::string_view tuned_skeleton(std::string_view unit) {
  if (unit == "l3_cache") {
    return R"(skeleton l3_tuned {
      weight ReqType { read: <W>, write: <W>, prefetch: <W>, castout: <W>, nc_read: <W>, dma: <W> }
      subrange RespDelay { [8, 40]: <W>, [41, 96]: <W> }
      weight BypassHint { off: <W>, on: <W> }
      range InterArrival [1, 6]
    })";
  }
  if (unit == "ifu") {
    return R"(skeleton ifu_tuned {
      weight ThreadSel { 0: <W>, 1: <W>, 2: <W>, 3: <W> }
      weight ICache { hit: <W>, miss: <W> }
      subrange FetchGap { [2, 4]: <W>, [5, 15]: <W> }
      weight BranchDir { not_taken: <W>, taken: <W> }
    })";
  }
  if (unit == "io_unit") {
    return R"(skeleton io_tuned {
      weight Cmd { read: <W>, write: <W>, crc_write: <W>, crc_done: <W>, ctrl: <W>, nop: <W>, abort: <W> }
      subrange GapDelay { [0, 20]: <W>, [21, 63]: <W> }
      weight ErrInject { off: <W>, crc_err: <W>, parity_err: <W> }
      range BurstLen [4, 8]
    })";
  }
  return R"(skeleton lsu_tuned {
      weight Mnemonic { load: <W>, store: <W>, add: 0, sync: <W> }
      subrange CacheDelay { [0, 333]: <W>, [334, 666]: <W>, [667, 1000]: <W> }
      weight AddrPattern { same_line: <W>, stride: <W>, random: <W> }
    })";
}

/// The unit's defaults, its suite, and its tuned template, in that
/// order. The tuned point is fixed and deliberately not round in
/// decimal, so weight printing or parsing precision would show.
std::vector<tgen::TestTemplate> golden_templates(const duv::Duv& duv) {
  std::vector<tgen::TestTemplate> tmpls{duv.defaults()};
  for (tgen::TestTemplate& t : duv.suite()) tmpls.push_back(std::move(t));
  const tgen::Skeleton skel = tgen::parse_skeleton(tuned_skeleton(duv.name()));
  std::vector<double> point(skel.mark_count());
  for (std::size_t i = 0; i < point.size(); ++i) {
    point[i] = 0.05 + std::fmod(0.6180339887498949 * static_cast<double>(i + 1), 1.0);
  }
  tmpls.push_back(skel.instantiate(skel.name() + "_point", point));
  return tmpls;
}

/// FNV-1a over the simulation count and every per-event hit count.
std::uint64_t digest(const coverage::SimStats& stats) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(stats.sims());
  for (const std::size_t hits : stats.hit_counts()) mix(hits);
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

struct Golden {
  const char* unit;
  const char* tmpl;
  std::uint64_t root;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"ifu", "ifu_defaults", 2021, 0x5e11e22b34369eddULL},
    {"ifu", "ifu_defaults", 7, 0xcb68f730dfb29d48ULL},
    {"ifu", "ifu_default", 2021, 0x5e11e22b34369eddULL},
    {"ifu", "ifu_default", 7, 0xcb68f730dfb29d48ULL},
    {"ifu", "ifu_seq_fetch", 2021, 0xf9104aa6d492e3b7ULL},
    {"ifu", "ifu_seq_fetch", 7, 0x148601e73bc8b6e6ULL},
    {"ifu", "ifu_branchy", 2021, 0x3db4fc3ef7ddc49aULL},
    {"ifu", "ifu_branchy", 7, 0x39e79ef745883747ULL},
    {"ifu", "ifu_icache_thrash", 2021, 0xc963210f9ec76658ULL},
    {"ifu", "ifu_icache_thrash", 7, 0x916bd6c1210d2f8dULL},
    {"ifu", "ifu_smt_mix", 2021, 0x14acdf663b8b1049ULL},
    {"ifu", "ifu_smt_mix", 7, 0x9a5f9efba6c1ef9bULL},
    {"ifu", "ifu_sector_sweep", 2021, 0x83ca0899d7387b90ULL},
    {"ifu", "ifu_sector_sweep", 7, 0x2cdb1110f66ff015ULL},
    {"ifu", "ifu_b2b_fetch", 2021, 0xeaab75bc09a80cdbULL},
    {"ifu", "ifu_b2b_fetch", 7, 0x6d6c8a3713bcf847ULL},
    {"ifu", "ifu_slow_drain", 2021, 0x652df1a14c8062d4ULL},
    {"ifu", "ifu_slow_drain", 7, 0xfffdc8a79886a67bULL},
    {"ifu", "ifu_tuned_point", 2021, 0x66c3e323e6b1530bULL},
    {"ifu", "ifu_tuned_point", 7, 0xfa105f3b89cad266ULL},
    {"io_unit", "io_unit_defaults", 2021, 0xbf57ecf127f267f2ULL},
    {"io_unit", "io_unit_defaults", 7, 0xb1ded4c5400f7e42ULL},
    {"io_unit", "io_default", 2021, 0xbf57ecf127f267f2ULL},
    {"io_unit", "io_default", 7, 0xb1ded4c5400f7e42ULL},
    {"io_unit", "io_read_stress", 2021, 0xfa6df2b040f92a68ULL},
    {"io_unit", "io_read_stress", 7, 0x795964ccf5f16ff9ULL},
    {"io_unit", "io_write_stress", 2021, 0xaae9d6e7c36288ebULL},
    {"io_unit", "io_write_stress", 7, 0xa32fc2a1eb64bcfeULL},
    {"io_unit", "io_error_storm", 2021, 0x3b651d34569b2c80ULL},
    {"io_unit", "io_error_storm", 7, 0xef560dd07375ffe5ULL},
    {"io_unit", "io_crc_smoke", 2021, 0xdd030b6e93ad7ae5ULL},
    {"io_unit", "io_crc_smoke", 7, 0xb94089e210a3749cULL},
    {"io_unit", "io_crc_long_gap", 2021, 0x258dcb2ff39ec189ULL},
    {"io_unit", "io_crc_long_gap", 7, 0xac1904dc9fe402eeULL},
    {"io_unit", "io_ctrl_heavy", 2021, 0xefd595cb233dd9d1ULL},
    {"io_unit", "io_ctrl_heavy", 7, 0x8e96140c746d8dceULL},
    {"io_unit", "io_qos_sweep", 2021, 0x3015ce0aba148df8ULL},
    {"io_unit", "io_qos_sweep", 7, 0x8ad46caed8b3f26dULL},
    {"io_unit", "io_addr_wrap", 2021, 0xbf57ecf127f267f2ULL},
    {"io_unit", "io_addr_wrap", 7, 0xb1ded4c5400f7e42ULL},
    {"io_unit", "io_mixed", 2021, 0xef583dd374a8f9eeULL},
    {"io_unit", "io_mixed", 7, 0x22f31970b63201d0ULL},
    {"io_unit", "io_tuned_point", 2021, 0x2678758b8406151bULL},
    {"io_unit", "io_tuned_point", 7, 0x9c48ae6c3b4ad155ULL},
    {"l3_cache", "l3_defaults", 2021, 0x7c9202ff145ed9deULL},
    {"l3_cache", "l3_defaults", 7, 0x9d72fe95bd8279f0ULL},
    {"l3_cache", "l3_default", 2021, 0x31d71af78b3832c8ULL},
    {"l3_cache", "l3_default", 7, 0xe6bf94222768f878ULL},
    {"l3_cache", "l3_read_hot", 2021, 0xcfe3f33a80dc31a1ULL},
    {"l3_cache", "l3_read_hot", 7, 0x2bca963660b490feULL},
    {"l3_cache", "l3_write_pressure", 2021, 0xd012f8417b003588ULL},
    {"l3_cache", "l3_write_pressure", 7, 0xcc9b9306d6525b64ULL},
    {"l3_cache", "l3_prefetch_train", 2021, 0xd783eabf28661105ULL},
    {"l3_cache", "l3_prefetch_train", 7, 0x1f6037d33bb67d08ULL},
    {"l3_cache", "l3_nc_smoke", 2021, 0x685d894a4f57b97aULL},
    {"l3_cache", "l3_nc_smoke", 7, 0x2aa913247588344ULL},
    {"l3_cache", "l3_thread_mix", 2021, 0xd8942cf812874f46ULL},
    {"l3_cache", "l3_thread_mix", 7, 0xbd52c15d359f5a4cULL},
    {"l3_cache", "l3_miss_storm", 2021, 0x15d6899b53446144ULL},
    {"l3_cache", "l3_miss_storm", 7, 0xbfd1baffcd25db85ULL},
    {"l3_cache", "l3_slow_mem", 2021, 0x1a4ff010d10cab25ULL},
    {"l3_cache", "l3_slow_mem", 7, 0xee3b2e59d868b258ULL},
    {"l3_cache", "l3_b2b", 2021, 0xa1784ffed20ab2eeULL},
    {"l3_cache", "l3_b2b", 7, 0xb109be6fc9fc0786ULL},
    {"l3_cache", "l3_tuned_point", 2021, 0x645344f8140624f9ULL},
    {"l3_cache", "l3_tuned_point", 7, 0x973a8dfbbe4444e7ULL},
    {"lsu", "lsu_defaults", 2021, 0xaf58b468a6e1cd28ULL},
    {"lsu", "lsu_defaults", 7, 0x39bfb91efa6f79e8ULL},
    {"lsu", "lsu_stress", 2021, 0x3f527cbac58a7b67ULL},
    {"lsu", "lsu_stress", 7, 0x43f357365adc1dbeULL},
    {"lsu", "lsu_default", 2021, 0xaf58b468a6e1cd28ULL},
    {"lsu", "lsu_default", 7, 0x39bfb91efa6f79e8ULL},
    {"lsu", "lsu_load_stream", 2021, 0x194f86d79b147412ULL},
    {"lsu", "lsu_load_stream", 7, 0xd63e92faaed8f9cULL},
    {"lsu", "lsu_store_fence", 2021, 0x34de693b9b5281a5ULL},
    {"lsu", "lsu_store_fence", 7, 0xb757d7ed3c5abcfdULL},
    {"lsu", "lsu_same_line", 2021, 0xa26a5ecb69c9f3eULL},
    {"lsu", "lsu_same_line", 7, 0xb5b3860ebdae9b48ULL},
    {"lsu", "lsu_alu_mix", 2021, 0x16ae8dd4f6787e8bULL},
    {"lsu", "lsu_alu_mix", 7, 0x743699d3262ba216ULL},
    {"lsu", "lsu_slow_cache", 2021, 0x44030239787f532eULL},
    {"lsu", "lsu_slow_cache", 7, 0xed5dc5b0264ce2adULL},
    {"lsu", "lsu_stride_engine", 2021, 0xd9629244e61ef0d5ULL},
    {"lsu", "lsu_stride_engine", 7, 0xfc5622e4453f6c72ULL},
    {"lsu", "lsu_tuned_point", 2021, 0xcac650e26d0298e9ULL},
    {"lsu", "lsu_tuned_point", 7, 0xb06b62ead3d86315ULL},
};
// clang-format on

std::uint64_t expected_digest(std::string_view unit, std::string_view tmpl,
                              std::uint64_t root) {
  for (const Golden& g : kGolden) {
    if (g.unit == unit && g.tmpl == tmpl && g.root == root) return g.digest;
  }
  return 0;
}

class GoldenDigest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenDigest, ScalarSimulateMatchesRecordedDigests) {
  const auto duv = duv::make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  for (const tgen::TestTemplate& tmpl : golden_templates(*duv)) {
    for (const std::uint64_t root : kSeedRoots) {
      coverage::SimStats stats(duv->space().size());
      const util::SeedStream stream(root);
      for (std::size_t i = 0; i < kSims; ++i) {
        stats.record(duv->simulate(tmpl, stream.at(i)));
      }
      const std::uint64_t got = digest(stats);
      EXPECT_EQ(hex(got), hex(expected_digest(duv->name(), tmpl.name(), root)))
          << "{\"" << duv->name() << "\", \"" << tmpl.name() << "\", " << root
          << ", " << hex(got) << "ULL},";
    }
  }
}

TEST_P(GoldenDigest, ThreadFarmRunAllMatchesRecordedDigests) {
  const auto duv = duv::make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const auto tmpls = golden_templates(*duv);
  std::vector<exec::Job> jobs;
  for (const tgen::TestTemplate& tmpl : tmpls) {
    for (const std::uint64_t root : kSeedRoots) {
      jobs.push_back({&tmpl, kSims, root});
    }
  }
  exec::ThreadFarm farm(3);
  const auto results = farm.run_all(*duv, jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint64_t got = digest(results[j]);
    EXPECT_EQ(hex(got), hex(expected_digest(duv->name(), jobs[j].tmpl->name(),
                                            jobs[j].seed_root)))
        << duv->name() << "/" << jobs[j].tmpl->name() << " root "
        << jobs[j].seed_root;
  }
}

TEST(GoldenDigest, EveryBundledUnitIsPinned) {
  for (const std::string& name : duv::unit_names()) {
    const auto duv = duv::make_unit(name);
    ASSERT_NE(duv, nullptr);
    for (const tgen::TestTemplate& tmpl : golden_templates(*duv)) {
      for (const std::uint64_t root : kSeedRoots) {
        EXPECT_NE(expected_digest(name, tmpl.name(), root), 0U)
            << "no recorded digest for " << name << "/" << tmpl.name()
            << " root " << root;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllUnits, GoldenDigest,
                         ::testing::Values("ifu", "io_unit", "l3_cache",
                                           "lsu"));

}  // namespace
}  // namespace ascdg
