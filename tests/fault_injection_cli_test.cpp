// Randomized kill-and-resume fuzz harness against the real CLI binary.
//
// The sweep injects a failure (ENOSPC on fsync, short write, rename
// failure — via ASCDG_FAIL_POINTS) at every Nth atomic-write point of a
// sessioned `ascdg run`, and a short write or a failed sync at every
// Nth record of the optimizer's checkpoint journal, for a swept set of
// N, then resumes without injection and asserts the final artifacts
// are bit-identical to an uninterrupted baseline run. A second sweep SIGKILLs the process at
// the Nth completed write (ASCDG_CRASH_AFTER_WRITES) and asserts the
// same. Either way, an interrupted durable session must converge to
// exactly the result a crash-free run produces.
//
// Budget knobs: ASCDG_FUZZ_FULL=1 (the CI fault-injection job) adds a
// second seed to the matrix; the default keeps local ctest fast.
//
// The binary path arrives via the ASCDG_CLI_PATH compile definition
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef ASCDG_CLI_PATH
#error "ASCDG_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;  ///< WEXITSTATUS (137 = killed by SIGKILL)
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

/// The sessioned run the whole sweep shares: tiny budgets, fixed seed.
std::string run_command(const fs::path& session, std::uint64_t seed,
                        const std::string& extra) {
  return std::string(ASCDG_CLI_PATH) +
         " run io_unit --family crc --before-sims 50 --samples 10"
         " --sample-sims 20 --iterations 3 --point-sims 20 --harvest 100"
         " --seed " +
         std::to_string(seed) + " --session " + session.string() + " " + extra;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Zeroes every "wall_ms":<number> in a JSON artifact, and its
/// "digest", which covers those wall times. Wall-clock cost is
/// telemetry, not result: it legitimately differs between a crashed +
/// resumed run and an uninterrupted one. Everything else (points,
/// values, traces, hit counts, RNG-driven trajectories) must match to
/// the last bit.
std::string scrub_wall_ms(std::string text) {
  for (const std::string key : {"\"wall_ms\":", "\"digest\":"}) {
    std::size_t pos = 0;
    while ((pos = text.find(key, pos)) != std::string::npos) {
      pos += key.size();
      std::size_t end = pos;
      while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
      text.replace(pos, end - pos, 1, '0');
      ++pos;
    }
  }
  return text;
}

/// The session outputs that define "the final result". The manifest is
/// excluded on purpose: its resume counter legitimately differs.
struct FinalArtifacts {
  std::string best_template;
  std::string optimization;
  std::string harvest;
};

FinalArtifacts read_final_artifacts(const fs::path& session) {
  return {read_file(session / "best_template.tmpl"),
          scrub_wall_ms(read_file(session / "optimization.json")),
          scrub_wall_ms(read_file(session / "harvest.json"))};
}

void expect_identical(const FinalArtifacts& got, const FinalArtifacts& want,
                      const std::string& label) {
  EXPECT_FALSE(want.best_template.empty()) << label;
  EXPECT_EQ(got.best_template, want.best_template) << label;
  EXPECT_EQ(got.optimization, want.optimization) << label;
  EXPECT_EQ(got.harvest, want.harvest) << label;
}

bool has_tmp_files(const fs::path& dir) {
  if (!fs::exists(dir)) return false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(".tmp")) return true;
  }
  return false;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_fault_cli_" + name);
  fs::remove_all(dir);
  return dir;
}

std::vector<std::uint64_t> seed_matrix() {
  const char* full = std::getenv("ASCDG_FUZZ_FULL");
  if (full != nullptr && *full == '1') return {5, 11};
  return {5};
}

/// One fuzz case: run with the given injection env, then drive the
/// session to completion without injection and return its artifacts.
FinalArtifacts run_interrupt_and_converge(const fs::path& session,
                                          std::uint64_t seed,
                                          const std::string& env,
                                          const std::string& label) {
  const CliResult injected = run_cli(env + " " + run_command(session, seed, ""));
  if (injected.exit_code != 0) {
    // The injected failure may land before the first manifest write, in
    // which case there is nothing to resume — start over clean.
    EXPECT_FALSE(has_tmp_files(session)) << label << ": leaked temp file";
    const bool resumable = fs::exists(session / "manifest.json");
    const CliResult finished = run_cli(
        run_command(session, seed, resumable ? "--resume" : ""));
    EXPECT_EQ(finished.exit_code, 0)
        << label << " (recovery run): " << finished.output;
  }
  return read_final_artifacts(session);
}

TEST(FaultFuzz, InjectedWriteFailuresResumeBitIdentical) {
  // Kind rotates with N so each sweep covers every failure flavor at
  // several depths without a full (and slow) cross product.
  struct Sweep {
    std::vector<std::string> kinds;
    std::vector<int> depths;
  };
  const std::vector<Sweep> sweeps = {
      {{
           "atomic_write.write=nth:%N%,errno=ENOSPC",  // short write + ENOSPC
           "atomic_write.fsync=nth:%N%,errno=ENOSPC",  // data never durable
           "atomic_write.rename=nth:%N%,errno=EIO",    // commit step fails
       },
       {1, 2, 3, 5, 8, 12, 17, 23}},
      // The optimizer journal sees one check per iteration, three in
      // this run, so its points sweep the depths that fire.
      {{
           "journal.write=nth:%N%,errno=ENOSPC",  // torn record + ENOSPC
           "journal.sync=nth:%N%,errno=EIO",      // record never durable
       },
       {1, 2, 3, 1, 2, 3}},
  };

  for (const std::uint64_t seed : seed_matrix()) {
    const fs::path baseline_dir =
        scratch_dir("baseline_s" + std::to_string(seed));
    const CliResult baseline =
        run_cli(run_command(baseline_dir, seed, ""));
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    const FinalArtifacts want = read_final_artifacts(baseline_dir);

    for (const Sweep& sweep : sweeps) {
      for (std::size_t i = 0; i < sweep.depths.size(); ++i) {
        std::string spec = sweep.kinds[i % sweep.kinds.size()];
        spec.replace(spec.find("%N%"), 3, std::to_string(sweep.depths[i]));
        const std::string label =
            "seed=" + std::to_string(seed) + " spec=" + spec;
        const fs::path session = scratch_dir(
            "inject_s" + std::to_string(seed) + "_" +
            spec.substr(0, spec.find('=')) + "_n" +
            std::to_string(sweep.depths[i]));
        const FinalArtifacts got = run_interrupt_and_converge(
            session, seed, "ASCDG_FAIL_POINTS='" + spec + "'", label);
        expect_identical(got, want, label);
      }
    }
  }
}

TEST(FaultFuzz, SigkillSweepResumesBitIdentical) {
  const std::vector<int> sweep = {3, 7, 12, 18};
  for (const std::uint64_t seed : seed_matrix()) {
    const fs::path baseline_dir =
        scratch_dir("kill_baseline_s" + std::to_string(seed));
    const CliResult baseline =
        run_cli(run_command(baseline_dir, seed, ""));
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    const FinalArtifacts want = read_final_artifacts(baseline_dir);

    for (const int n : sweep) {
      const std::string label =
          "seed=" + std::to_string(seed) + " kill_after=" + std::to_string(n);
      const fs::path session = scratch_dir(
          "kill_s" + std::to_string(seed) + "_n" + std::to_string(n));
      const CliResult killed =
          run_cli("ASCDG_CRASH_AFTER_WRITES=" + std::to_string(n) + " " +
                  run_command(session, seed, ""));
      ASSERT_EQ(killed.exit_code, 137) << label << ": " << killed.output;
      EXPECT_FALSE(has_tmp_files(session)) << label << ": leaked temp file";
      const CliResult resumed =
          run_cli(run_command(session, seed, "--resume"));
      ASSERT_EQ(resumed.exit_code, 0) << label << ": " << resumed.output;
      expect_identical(read_final_artifacts(session), want, label);
    }
  }
}

TEST(FaultFuzz, GarbageCrashAfterWritesEnvIsFatal) {
  // std::atol would have read "12abc" as 12 and "abc" as 0 (hook
  // silently off) — both must now refuse to run.
  for (const char* garbage : {"12abc", "abc", "-3", ""}) {
    const fs::path session = scratch_dir("garbage_env");
    const CliResult result =
        run_cli("ASCDG_CRASH_AFTER_WRITES='" + std::string(garbage) + "' " +
                run_command(session, 5, ""));
    EXPECT_NE(result.exit_code, 0) << garbage;
    EXPECT_NE(result.output.find("ASCDG_CRASH_AFTER_WRITES"),
              std::string::npos)
        << garbage << ": " << result.output;
  }
}

TEST(FaultFuzz, MalformedFailPointSpecIsFatal) {
  const fs::path session = scratch_dir("garbage_spec");
  const CliResult result =
      run_cli("ASCDG_FAIL_POINTS='no.such.point=once' " +
              run_command(session, 5, ""));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown failure point"), std::string::npos)
      << result.output;
}

}  // namespace
