// Flow goldens: absolute pins on what `ascdg run` produces, one
// reduced-budget flow per unit.
//
// golden_test pins the kernels; the equivalence suites are relative
// (thread ≡ process, resumed ≡ uninterrupted). This suite runs the real
// CLI on --backend=thread:1 and --backend=thread:4 and pins three
// things per unit against digests recorded here:
//   * the best-template text (--save-best);
//   * the T_N trace: every opt_iter event from its "label" on (values,
//     step, evaluations, move/halve outcome), in order;
//   * the per-phase hits (--csv: every event's hit count per phase).
// Both worker counts must give byte-identical artifacts and the pinned
// digests, so a change to the farm, the optimizer or the flow that moves
// a result fails here. A mismatch prints the actual digest; if the move
// is intended, record the new value and name the change in CHANGES.md.
//
// The binary path arrives via the ASCDG_CLI_PATH compile definition
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ios>
#include <sstream>
#include <string>

#ifndef ASCDG_CLI_PATH
#error "ASCDG_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

struct UnitGolden {
  const char* unit;
  const char* family;
  std::uint64_t best_template;
  std::uint64_t tn_trace;
  std::uint64_t phase_hits;
};

void PrintTo(const UnitGolden& golden, std::ostream* os) { *os << golden.unit; }

struct FlowArtifacts {
  int exit_code = -1;
  std::string output;         ///< stdout + stderr
  std::string best_template;  ///< --save-best
  std::string tn_trace;       ///< opt_iter lines from "label" on
  std::string phase_hits;     ///< --csv
};

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

/// The opt_iter events of `trace`, each cut to the part after its
/// sequence number and timestamp.
std::string tn_trace(const std::string& trace) {
  std::string out;
  std::istringstream in(trace);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"event\":\"opt_iter\"") == std::string::npos) continue;
    const auto label = line.find("\"label\"");
    EXPECT_NE(label, std::string::npos) << line;
    if (label == std::string::npos) continue;
    out += line.substr(label);
    out += '\n';
  }
  return out;
}

FlowArtifacts run_flow(const UnitGolden& golden, const std::string& backend,
                       const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string command =
      std::string(ASCDG_CLI_PATH) + " run " + golden.unit + " --family " +
      golden.family +
      " --before-sims 200 --samples 12 --sample-sims 16 --iterations 4"
      " --point-sims 70 --harvest 200 --seed 11 --refine --backend=" +
      backend + " --csv " + (dir / "phases.csv").string() + " --save-best " +
      (dir / "best.tmpl").string() + " --trace " +
      (dir / "trace.jsonl").string() + " 2>&1";
  FlowArtifacts out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  if (out.exit_code != 0) return out;
  out.best_template = slurp(dir / "best.tmpl");
  out.tn_trace = tn_trace(slurp(dir / "trace.jsonl"));
  out.phase_hits = slurp(dir / "phases.csv");
  return out;
}

class RunGolden : public ::testing::TestWithParam<UnitGolden> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ascdg_run_golden_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + GetParam().unit);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(RunGolden, OneAndFourWorkersReproduceThePinnedFlow) {
  const UnitGolden& golden = GetParam();
  for (const char* backend : {"thread:1", "thread:4"}) {
    SCOPED_TRACE(backend);
    const FlowArtifacts flow = run_flow(golden, backend, dir_ / backend);
    ASSERT_EQ(flow.exit_code, 0) << flow.output;
    ASSERT_FALSE(flow.tn_trace.empty()) << "no opt_iter events";
    EXPECT_EQ(hex(fnv1a(flow.best_template)), hex(golden.best_template))
        << flow.best_template;
    EXPECT_EQ(hex(fnv1a(flow.tn_trace)), hex(golden.tn_trace))
        << flow.tn_trace;
    EXPECT_EQ(hex(fnv1a(flow.phase_hits)), hex(golden.phase_hits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnits, RunGolden,
    ::testing::Values(
        UnitGolden{"io_unit", "crc", 0xaee04c80f2c0fe18,
                   0x9a947dab7cc4bf66, 0x8f1b26e8af6e3976},
        UnitGolden{"l3_cache", "byp_reqs", 0x12cff06312d1b607,
                   0x1cb345314131d45f, 0x96ebb82b3d634cea},
        UnitGolden{"ifu", "ifu", 0x3fae7675ad678dda, 0x54770ae9b2773667,
                   0x16ef19431006ade0},
        UnitGolden{"lsu", "lsu_fwdq", 0x320b99f03a7f36f2,
                   0xc4129e2c34eb2468, 0x865adadf636b6ea0}),
    [](const ::testing::TestParamInfo<UnitGolden>& param_info) {
      return std::string(param_info.param.unit);
    });

}  // namespace
