// End-to-end backend parity against the real CLI binary: the same flow
// run on --backend=thread and --backend=process:8 must produce
// byte-identical coverage artifacts (CSV phase table, saved best
// template) and the same simulation count — wall-clock is the only
// thing allowed to differ. Also pins the strict --backend parsing
// contract: a bad spec is a usage error (exit 1) with a hint, never a
// runtime error (exit 2) or a silent fallback. And a value flag never
// takes the next flag as its value, and an unknown flag or an
// unrunnable budget fails every subcommand before anything is
// simulated or written.
//
// The binary path arrives via the ASCDG_CLI_PATH compile definition
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef ASCDG_CLI_PATH
#error "ASCDG_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;  ///< WEXITSTATUS
  std::string output;  ///< stdout + stderr
};

CliResult run_cli(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A small fixed-seed flow writing its coverage artifacts under `dir`.
std::string flow_command(const fs::path& dir, const std::string& backend) {
  return std::string(ASCDG_CLI_PATH) +
         " run io_unit --family crc --before-sims 50 --samples 10"
         " --sample-sims 20 --iterations 2 --point-sims 20 --harvest 500"
         " --seed 5 --backend=" + backend +
         " --csv " + (dir / "phases.csv").string() +
         " --save-best " + (dir / "best.tmpl").string();
}

/// The "total simulations: N" line — the cost metric both backends
/// must agree on.
std::string total_simulations_line(const std::string& output) {
  const auto pos = output.find("total simulations:");
  EXPECT_NE(pos, std::string::npos) << output;
  if (pos == std::string::npos) return {};
  return output.substr(pos, output.find('\n', pos) - pos);
}

class BackendCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ascdg_backend_cli_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BackendCli, ProcessBackendIsBitIdenticalToThreadBackend) {
  const fs::path thread_dir = dir_ / "thread";
  const fs::path process_dir = dir_ / "process";
  fs::create_directories(thread_dir);
  fs::create_directories(process_dir);

  const CliResult on_thread = run_cli(flow_command(thread_dir, "thread"));
  ASSERT_EQ(on_thread.exit_code, 0) << on_thread.output;
  const CliResult on_process = run_cli(flow_command(process_dir, "process:8"));
  ASSERT_EQ(on_process.exit_code, 0) << on_process.output;

  EXPECT_EQ(slurp(thread_dir / "phases.csv"),
            slurp(process_dir / "phases.csv"));
  EXPECT_EQ(slurp(thread_dir / "best.tmpl"),
            slurp(process_dir / "best.tmpl"));
  EXPECT_EQ(total_simulations_line(on_thread.output),
            total_simulations_line(on_process.output));
}

TEST_F(BackendCli, UnknownBackendNameIsAUsageErrorWithHint) {
  const CliResult result = run_cli(flow_command(dir_, "bogus"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unknown backend 'bogus'"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("thread|process[:N]"), std::string::npos)
      << result.output;
}

TEST_F(BackendCli, GarbageWorkerCountIsAUsageError) {
  for (const char* spec : {"process:abc", "process:0", "process:",
                           "thread:1x"}) {
    const CliResult result = run_cli(flow_command(dir_, spec));
    EXPECT_EQ(result.exit_code, 1) << spec << ": " << result.output;
    EXPECT_NE(result.output.find("backend"), std::string::npos)
        << result.output;
  }
}

TEST_F(BackendCli, BareBackendFlagWithoutSpecIsRejected) {
  // `--backend` with no value eats nothing: the stray token fails the
  // run under the unknown-flag contract (exit 1), not silently.
  const CliResult result = run_cli(
      std::string(ASCDG_CLI_PATH) +
      " before io_unit --sims 50 --backend");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--backend"), std::string::npos)
      << result.output;
}

TEST_F(BackendCli, ValueFlagNeverTakesTheNextFlagAsItsValue) {
  // `--trace --save-best best.tmpl`: --trace falls back to its bare
  // form instead of writing a trace file named "--save-best".
  const CliResult result = run_cli(
      "cd " + dir_.string() + " && " + ASCDG_CLI_PATH +
      " run io_unit --family crc --before-sims 50 --samples 10"
      " --sample-sims 20 --iterations 2 --point-sims 20 --harvest 100"
      " --seed 5 --trace --save-best best.tmpl");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(fs::exists(dir_ / "best.tmpl")) << result.output;
  EXPECT_FALSE(fs::exists(dir_ / "--save-best"));
}

TEST_F(BackendCli, LeftoverArgumentsFailBeforeTheFlowStarts) {
  // With the default budgets a real run would take seconds and create
  // the session directory; the typo must fail first, with no side
  // effect.
  const fs::path session = dir_ / "session";
  for (const std::string command :
       {" run l3_cache --family byp_reqs --bogus --session ",
        " campaign l3_cache --families byp_reqs --bogus --session "}) {
    const CliResult result =
        run_cli(ASCDG_CLI_PATH + command + session.string());
    EXPECT_EQ(result.exit_code, 1) << command << ": " << result.output;
    EXPECT_NE(result.output.find("unrecognized argument(s): --bogus"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("total simulations"), std::string::npos)
        << result.output;
    EXPECT_FALSE(fs::exists(session)) << command;
  }
}

TEST_F(BackendCli, UnrunnableBudgetsFailBeforeTheFlowStarts) {
  // A config no flow can run is a usage error caught before the
  // before-CDG suite runs: no session directory, no trace file, no
  // target list.
  const fs::path session = dir_ / "session";
  const std::vector<std::pair<std::string, std::string>> cases{
      {" run io_unit --family crc --samples 0 --trace --session " +
           session.string(),
       "sampling budget must be non-zero"},
      {" run io_unit --family crc --resume",
       "resume requires a session directory"},
      {" campaign io_unit --families crc --point-sims 0 --session " +
           session.string(),
       "optimization budget must be non-zero"}};
  for (const auto& [command, message] : cases) {
    const CliResult result = run_cli(ASCDG_CLI_PATH + command);
    EXPECT_EQ(result.exit_code, 1) << command << ": " << result.output;
    EXPECT_NE(result.output.find("error: flow config: " + message),
              std::string::npos)
        << command << ": " << result.output;
    EXPECT_EQ(result.output.find("targets ("), std::string::npos)
        << command << ": " << result.output;
    EXPECT_FALSE(fs::exists(session)) << command;
  }
}

TEST_F(BackendCli, BeforeRejectsLeftoverArgumentsBeforeSimulating) {
  const fs::path csv = dir_ / "before.csv";
  const CliResult result = run_cli(std::string(ASCDG_CLI_PATH) +
                                   " before l3_cache --bogus --csv " +
                                   csv.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unrecognized argument(s): --bogus"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("uncovered events"), std::string::npos)
      << result.output;
  EXPECT_FALSE(fs::exists(csv));
}

TEST_F(BackendCli, EverySubcommandRejectsLeftoverArgumentsFirst) {
  // The usage error is the only output: nothing was simulated, read or
  // printed before it. skeletonize and inspect name paths that do not
  // exist, so they would fail differently had they run.
  const std::string missing = (dir_ / "missing").string();
  const std::vector<std::string> commands{" units",
                                          " events l3_cache",
                                          " suite l3_cache",
                                          " skeletonize " + missing,
                                          " policy l3_cache",
                                          " profile l3_cache",
                                          " holes ifu --family ifu",
                                          " inspect " + missing,
                                          " metrics-dump l3_cache"};
  for (const std::string& command : commands) {
    const CliResult result = run_cli(ASCDG_CLI_PATH + command + " --bogus");
    EXPECT_EQ(result.exit_code, 1) << command << ": " << result.output;
    EXPECT_EQ(result.output,
              "error: unrecognized argument(s): --bogus\n"
              "run `ascdg` without arguments for usage\n")
        << command;
  }
}

TEST_F(BackendCli, ProcessBackendWorksOnAuxiliaryCommands) {
  const CliResult result = run_cli(std::string(ASCDG_CLI_PATH) +
                                   " before io_unit --sims 50"
                                   " --backend=process:2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const CliResult reference = run_cli(std::string(ASCDG_CLI_PATH) +
                                      " before io_unit --sims 50");
  EXPECT_EQ(reference.exit_code, 0) << reference.output;
  EXPECT_EQ(result.output, reference.output);
}

}  // namespace
