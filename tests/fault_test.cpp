// Fault-injection layer: FailurePoint trigger semantics, the durable
// atomic writer under injected ENOSPC/short-write/rename failures, the
// checkpoint journal (torn tails, bad lines, exact round trips, sync
// and write failures on its journal thread, and the on_durable hook),
// stale-temp reaping on session open, and the HTTP server's EINTR
// handling (both injected deterministically and via a real interval-
// timer signal storm).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/artifacts.hpp"
#include "flow/session.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"

namespace {

namespace fs = std::filesystem;
using ascdg::util::FailurePoint;
using Id = ascdg::util::FailurePoint::Id;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_fault_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

bool has_tmp_files(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(".tmp")) return true;
  }
  return false;
}

/// Every test leaves the process with nothing armed.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FailurePoint::disarm_all(); }
};

// ------------------------------------------------ trigger semantics

TEST_F(FaultTest, DisarmedCheckIsFreeAndCountsNothing) {
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  // The disarmed fast path must not touch any state.
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteFsync), 0u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteFsync), 0u);
}

TEST_F(FaultTest, OneShotFiresExactlyOnceWithItsErrno) {
  FailurePoint::prime_one_shot(Id::kAtomicWriteRename, ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), 0);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteRename), 1u);
}

TEST_F(FaultTest, OneShotPointsAreIndependent) {
  FailurePoint::prime_one_shot(Id::kHttpRecv, EINTR);
  FailurePoint::prime_one_shot(Id::kHttpSend, ECONNRESET);
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), ECONNRESET);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), EINTR);
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), 0);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
}

TEST_F(FaultTest, EveryNthFiresOnExactMultiples) {
  FailurePoint::prime_every_nth(Id::kAtomicWriteWrite, 3, EIO);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(FailurePoint::check(Id::kAtomicWriteWrite) != 0);
  }
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteWrite), 9u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteWrite), 3u);
}

TEST_F(FaultTest, EveryFirstFiresAlways) {
  FailurePoint::prime_every_nth(Id::kArtifactRead, 1, ENOENT);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(FailurePoint::check(Id::kArtifactRead), ENOENT);
  }
}

TEST_F(FaultTest, ProbabilisticScheduleReplaysExactlyUnderASeed) {
  const auto draw_sequence = [](std::uint64_t seed) {
    FailurePoint::prime_probability(Id::kHttpAccept, 0.5, seed, EINTR);
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) {
      fired.push_back(FailurePoint::check(Id::kHttpAccept) != 0);
    }
    FailurePoint::disarm(Id::kHttpAccept);
    return fired;
  };
  const std::vector<bool> first = draw_sequence(42);
  const std::vector<bool> replay = draw_sequence(42);
  EXPECT_EQ(first, replay);
  // p = 0.5 over 128 draws: both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultTest, ProbabilityExtremesNeverAndAlwaysFire) {
  FailurePoint::prime_probability(Id::kHttpRecv, 0.0, 1, EINTR);
  FailurePoint::prime_probability(Id::kHttpSend, 1.0, 1, EINTR);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
    EXPECT_EQ(FailurePoint::check(Id::kHttpSend), EINTR);
  }
}

TEST_F(FaultTest, DisarmAllResetsEverything) {
  FailurePoint::prime_every_nth(Id::kAtomicWriteOpen, 1, EIO);
  EXPECT_NE(FailurePoint::check(Id::kAtomicWriteOpen), 0);
  FailurePoint::disarm_all();
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteOpen), 0);
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteOpen), 0u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteOpen), 0u);
}

TEST_F(FaultTest, NamesRoundTripThroughFind) {
  for (int i = 0; i < FailurePoint::kIdCount; ++i) {
    const auto id = static_cast<Id>(i);
    const auto found = FailurePoint::find(FailurePoint::name(id));
    ASSERT_TRUE(found.has_value()) << FailurePoint::name(id);
    EXPECT_EQ(*found, id);
  }
  EXPECT_FALSE(FailurePoint::find("no.such.point").has_value());
}

// ------------------------------------------------ env spec parsing

TEST_F(FaultTest, InstallArmsMultipleEntries) {
  FailurePoint::install(
      "atomic_write.fsync=nth:2,errno=ENOSPC;http.recv=once,errno=EINTR");
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), EINTR);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
}

TEST_F(FaultTest, InstallAcceptsNumericErrnoAndProbabilitySeed) {
  FailurePoint::install("http.send=prob:1.0,errno=104,seed=7");
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), 104);  // ECONNRESET
}

TEST_F(FaultTest, MalformedSpecsAreFatalNotSilent) {
  const char* bad_specs[] = {
      "no.such.point=once",
      "atomic_write.fsync",
      "atomic_write.fsync=maybe",
      "atomic_write.fsync=nth:abc",
      "atomic_write.fsync=nth:0",
      "atomic_write.fsync=prob:1.5",
      "atomic_write.fsync=once,errno=EWHATEVER",
      "atomic_write.fsync=once,flavor=spicy",
  };
  for (const char* spec : bad_specs) {
    EXPECT_THROW(FailurePoint::install(spec), ascdg::util::ConfigError)
        << spec;
    FailurePoint::disarm_all();
  }
}

// ------------------------------------------------ durable atomic writes

TEST_F(FaultTest, AtomicWriteOpenFailureLeavesNothingBehind) {
  const fs::path dir = scratch_dir("open_fail");
  FailurePoint::prime_one_shot(Id::kAtomicWriteOpen, EMFILE);
  EXPECT_THROW(ascdg::util::atomic_write_file(dir / "a.json", "data"),
               ascdg::util::Error);
  EXPECT_FALSE(fs::exists(dir / "a.json"));
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, ShortWriteCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("short_write");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteWrite, ENOSPC);
  const std::string next(4096, 'x');
  EXPECT_THROW(ascdg::util::atomic_write_file(file, next),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, FsyncFailureCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("fsync_fail");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteFsync, ENOSPC);
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "torn"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, RenameFailureCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("rename_fail");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteRename, EIO);
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "torn"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, DirFsyncFailureSurfacesButTheRenameStands) {
  const fs::path dir = scratch_dir("dir_fsync_fail");
  const fs::path file = dir / "ckpt.json";
  FailurePoint::prime_one_shot(Id::kAtomicWriteDirFsync, EIO);
  // The rename already committed when the directory fsync fails; the
  // caller sees the failure (durability not guaranteed) but the file
  // content is the complete new version — never torn.
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "new"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "new");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, DirFsyncEinvalIsTolerated) {
  // Filesystems that cannot fsync a directory report EINVAL; that is
  // not an error the caller can act on.
  const fs::path dir = scratch_dir("dir_fsync_einval");
  FailurePoint::prime_one_shot(Id::kAtomicWriteDirFsync, EINVAL);
  EXPECT_NO_THROW(ascdg::util::atomic_write_file(dir / "a.json", "data"));
  EXPECT_EQ(read_file(dir / "a.json"), "data");
}

TEST_F(FaultTest, AtomicWriteStreamJoinsPiecesOfEverySize) {
  // Contents of every size around the write sizes the kernel may split
  // a write(2) at come back whole and in order.
  const fs::path dir = scratch_dir("write_sizes");
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{65536},
        std::size_t{65537}, std::size_t{200000}}) {
    std::string content(size, 'L');
    for (std::size_t i = 0; i < size; i += 7) {
      content[i] = static_cast<char>('a' + i % 26);
    }
    ascdg::util::atomic_write_file(dir / "a.json", content);
    EXPECT_EQ(read_file(dir / "a.json"), content) << size << " bytes";
  }
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, AtomicWriteStreamShortWriteKeepsPreviousFile) {
  // A short write against a full disk in the middle of a large file.
  const fs::path dir = scratch_dir("large_short_write");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteWrite, ENOSPC);
  EXPECT_THROW(
      ascdg::util::atomic_write_file(file, std::string(100 * 4096, 'x')),
      ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

// ------------------------------------------------ checkpoint journal

using ascdg::util::JournalWriter;
using ascdg::util::read_journal;

TEST_F(FaultTest, JournalTornTailIsDroppedTruncatedAndAppendedAfter) {
  const fs::path dir = scratch_dir("journal_torn");
  const fs::path file = dir / "opt.ckpt.jsonl";
  {
    JournalWriter writer(file, 0);
    writer.append(R"({"i":1})");
    writer.append(R"({"i":2})");
    writer.close();
  }
  const std::uintmax_t durable = fs::file_size(file);
  std::ofstream(file, std::ios::app) << R"({"i":3,"torn)";

  const auto torn = read_journal(file);
  ASSERT_EQ(torn.records.size(), 2u);
  EXPECT_EQ(torn.records[1].at("i").as_size(), 2u);
  EXPECT_EQ(torn.bytes, durable);
  EXPECT_GT(fs::file_size(file), durable);  // reading changes nothing

  JournalWriter writer(file, torn.bytes);
  EXPECT_EQ(fs::file_size(file), durable);
  writer.append(R"({"i":3})");
  writer.close();
  const auto healed = read_journal(file);
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records[2].at("i").as_size(), 3u);
  EXPECT_EQ(healed.bytes, fs::file_size(file));
}

TEST_F(FaultTest, JournalBadLastCompleteLineIsDroppedAsTheInFlightRecord) {
  const fs::path dir = scratch_dir("journal_bad_last");
  const fs::path file = dir / "opt.ckpt.jsonl";
  std::ofstream(file) << "{\"i\":1}\n{\"i\":\n";
  const auto journal = read_journal(file);
  ASSERT_EQ(journal.records.size(), 1u);
  EXPECT_EQ(journal.bytes, 8u);
}

TEST_F(FaultTest, JournalBadLineBeforeGoodOnesIsAParseErrorNamingIt) {
  const fs::path dir = scratch_dir("journal_bad_middle");
  const fs::path file = dir / "opt.ckpt.jsonl";
  std::ofstream(file) << "{\"i\":1}\n{\"i\":\n{\"i\":3}\n";
  try {
    (void)read_journal(file);
    FAIL() << "a bad record before good ones must not be skipped";
  } catch (const ascdg::util::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find(file.string()), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, JournalRecordsRoundTripDoublesAndHexSeedsExactly) {
  ascdg::flow::OptStageCheckpoint ckpt;
  ckpt.ifc.next_iteration = 7;
  ckpt.ifc.center = {0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                     0.30000000000000004};
  ckpt.ifc.center_value = 2.0 / 3.0;
  ckpt.ifc.step = 0.0125;
  ckpt.ifc.best_point = {1.0 - 1e-16, 1e-300};
  ckpt.ifc.best_value = 0.123456789012345678;
  ckpt.ifc.rng_state = {0xFFFFFFFFFFFFFFFFULL, 0x8000000000000001ULL,
                        0xDEADBEEFCAFEBABEULL, 1ULL};
  ckpt.ifc.eval_seed_counter = 0x123456789ABCDEF0ULL;
  ascdg::opt::IterationRecord record;
  record.iteration = 6;
  record.center_value = 1.0 / 7.0;
  ckpt.ifc.trace.push_back(record);
  ckpt.sims = 12345;
  ckpt.wall_ms = 0.1 + 0.2;
  ckpt.evidence = 1e-17;

  const fs::path dir = scratch_dir("journal_round_trip");
  const fs::path file = dir / "opt.ckpt.jsonl";
  {
    JournalWriter writer(file, 0);
    writer.append(ascdg::flow::to_json(ckpt));
    writer.close();
  }
  const auto journal = read_journal(file);
  ASSERT_EQ(journal.records.size(), 1u);
  const auto back =
      ascdg::flow::opt_stage_checkpoint_from_json(journal.records[0]);
  const auto bits = [](const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  EXPECT_EQ(bits(back.ifc.center), bits(ckpt.ifc.center));
  EXPECT_EQ(bits(back.ifc.best_point), bits(ckpt.ifc.best_point));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ifc.center_value),
            std::bit_cast<std::uint64_t>(ckpt.ifc.center_value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ifc.best_value),
            std::bit_cast<std::uint64_t>(ckpt.ifc.best_value));
  EXPECT_EQ(back.ifc.step, ckpt.ifc.step);
  EXPECT_EQ(back.ifc.rng_state, ckpt.ifc.rng_state);
  EXPECT_EQ(back.ifc.eval_seed_counter, ckpt.ifc.eval_seed_counter);
  EXPECT_EQ(back.ifc.next_iteration, ckpt.ifc.next_iteration);
  ASSERT_EQ(back.ifc.trace.size(), 1u);
  EXPECT_EQ(back.ifc.trace[0].center_value, record.center_value);
  EXPECT_EQ(back.sims, ckpt.sims);
  EXPECT_EQ(back.wall_ms, ckpt.wall_ms);
  EXPECT_EQ(back.evidence, ckpt.evidence);
}

/// Runs `calls` in order and reports which of them threw util::Error.
std::vector<bool> which_throw(
    std::initializer_list<std::function<void()>> calls) {
  std::vector<bool> threw;
  for (const auto& call : calls) {
    try {
      call();
      threw.push_back(false);
    } catch (const ascdg::util::Error&) {
      threw.push_back(true);
    }
  }
  return threw;
}

/// An on_durable hook that records the journal's size at each call, so
/// a test sees that it fires once per record, after that record's
/// bytes and before the next record's. Safe to read once count()
/// reached what the test waits for, or after close().
class DurableLog {
 public:
  explicit DurableLog(fs::path file) : file_(std::move(file)) {}

  std::function<void()> hook() {
    return [this] {
      sizes_.push_back(fs::file_size(file_));
      count_.fetch_add(1, std::memory_order_release);
    };
  }
  [[nodiscard]] std::size_t count() const {
    return count_.load(std::memory_order_acquire);
  }
  void wait_for(std::size_t n) const {
    while (count() < n) std::this_thread::yield();
  }
  /// File sizes seen at each call, in call order.
  [[nodiscard]] const std::vector<std::uintmax_t>& sizes() const {
    return sizes_;
  }

 private:
  fs::path file_;
  std::vector<std::uintmax_t> sizes_;
  std::atomic<std::size_t> count_{0};
};

TEST_F(FaultTest, JournalSyncFailureSurfacesAtNextAppendOrClose) {
  const fs::path dir = scratch_dir("journal_sync_fail");
  const std::string one = R"({"i":1})";
  const std::string two = R"({"i":2})";
  // The first record's sync fails. A later append, or close() at the
  // latest, raises it; every call after that raises too; nothing after
  // the failed record reaches the file, and no record was durable.
  const fs::path first = dir / "first.ckpt.jsonl";
  {
    FailurePoint::prime_every_nth(Id::kJournalSync, 1, EIO);
    DurableLog durable(first);
    JournalWriter writer(first, 0, durable.hook());
    writer.append(one);
    const std::vector<bool> threw =
        which_throw({[&] { writer.append(two); },
                     [&] { writer.append(R"({"i":3})"); },
                     [&] { writer.close(); }, [&] { writer.close(); }});
    EXPECT_TRUE(std::is_sorted(threw.begin(), threw.end()));
    EXPECT_TRUE(threw[2]) << "close() must raise the sync error";
    EXPECT_THROW(writer.append(R"({"i":4})"), ascdg::util::Error);
    EXPECT_EQ(FailurePoint::fires(Id::kJournalSync), 1u);
    EXPECT_EQ(durable.count(), 0u);
    FailurePoint::disarm_all();
  }
  EXPECT_EQ(read_journal(first).records.size(), 1u);
  EXPECT_EQ(fs::file_size(first), one.size() + 1);

  // The second record's sync fails: the first was durable once, and the
  // second is the last thing in the file.
  const fs::path second = dir / "second.ckpt.jsonl";
  {
    FailurePoint::prime_every_nth(Id::kJournalSync, 2, EIO);
    DurableLog durable(second);
    JournalWriter writer(second, 0, durable.hook());
    writer.append(one);
    const std::vector<bool> threw =
        which_throw({[&] { writer.append(two); },
                     [&] { writer.append(R"({"i":3})"); },
                     [&] { writer.close(); }, [&] { writer.close(); }});
    EXPECT_TRUE(std::is_sorted(threw.begin(), threw.end()));
    EXPECT_FALSE(threw[0]) << "record 1's sync succeeded";
    EXPECT_TRUE(threw[2]) << "close() must raise the sync error";
    EXPECT_EQ(FailurePoint::fires(Id::kJournalSync), 1u);
    EXPECT_EQ(durable.sizes(), std::vector<std::uintmax_t>{one.size() + 1});
  }
  const auto journal = read_journal(second);
  ASSERT_EQ(journal.records.size(), 2u);
  EXPECT_EQ(journal.records[1].at("i").as_size(), 2u);
  EXPECT_EQ(fs::file_size(second), journal.bytes);
}

TEST_F(FaultTest, JournalShortWriteLeavesOnlyATornTail) {
  const fs::path dir = scratch_dir("journal_short_write");
  const fs::path file = dir / "opt.ckpt.jsonl";
  const std::string one = R"({"i":1})";
  const std::string two =
      R"({"i":2,"pad":")" + std::string(64, 'x') + R"("})";
  DurableLog durable(file);
  JournalWriter writer(file, 0, durable.hook());
  writer.append(one);
  // Arm the short write only once record 1 is durable, so it hits
  // record 2 on the journal thread.
  durable.wait_for(1);
  FailurePoint::prime_one_shot(Id::kJournalWrite, ENOSPC);
  const std::vector<bool> threw =
      which_throw({[&] { writer.append(two); },
                   [&] { writer.append(R"({"i":3})"); },
                   [&] { writer.close(); }, [&] { writer.close(); }});
  EXPECT_TRUE(std::is_sorted(threw.begin(), threw.end()));
  EXPECT_TRUE(threw[2]) << "close() must raise the write error";
  EXPECT_EQ(durable.sizes(), std::vector<std::uintmax_t>{one.size() + 1});
  const auto journal = read_journal(file);
  ASSERT_EQ(journal.records.size(), 1u);
  EXPECT_EQ(journal.bytes, one.size() + 1);
  // Half of record 2 landed, and nothing after it.
  EXPECT_EQ(fs::file_size(file), journal.bytes + (two.size() + 1) / 2);
}

TEST_F(FaultTest, JournalOnDurableFiresOncePerRecordInOrder) {
  const fs::path dir = scratch_dir("journal_on_durable");
  const fs::path file = dir / "opt.ckpt.jsonl";
  DurableLog durable(file);
  std::vector<std::uintmax_t> ends;
  {
    JournalWriter writer(file, 0, durable.hook());
    std::uintmax_t end = 0;
    for (std::size_t i = 0; i < 50; ++i) {
      const std::string record =
          R"({"i":)" + std::to_string(i) + R"(,"pad":")" +
          std::string(i * 37 % 200, 'x') + R"("})";
      writer.append(record);
      end += record.size() + 1;
      ends.push_back(end);
    }
    writer.close();
    EXPECT_THROW(writer.append(R"({"i":50})"), ascdg::util::Error);
  }
  EXPECT_EQ(durable.sizes(), ends);
  const auto journal = read_journal(file);
  ASSERT_EQ(journal.records.size(), 50u);
  EXPECT_EQ(journal.bytes, ends.back());
}

TEST_F(FaultTest, JournalOnDurableExceptionIsLatchedLikeAnIoError) {
  const fs::path dir = scratch_dir("journal_hook_throws");
  const fs::path file = dir / "opt.ckpt.jsonl";
  std::atomic<std::size_t> calls{0};
  JournalWriter writer(file, 0, [&calls] {
    if (calls.fetch_add(1) == 1) throw ascdg::util::Error("hook refused");
  });
  writer.append(R"({"i":1})");
  const std::vector<bool> threw = which_throw(
      {[&] { writer.append(R"({"i":2})"); },
       [&] { writer.append(R"({"i":3})"); }, [&] { writer.close(); }});
  EXPECT_TRUE(std::is_sorted(threw.begin(), threw.end()));
  EXPECT_TRUE(threw[2]);
  EXPECT_EQ(calls.load(), 2u);
  // Record 2 was written and synced before its hook threw; record 3
  // never was.
  EXPECT_EQ(read_journal(file).records.size(), 2u);
}

TEST_F(FaultTest, JournalDestructorDrainsTheQueueWithoutThrowing) {
  const fs::path dir = scratch_dir("journal_destructor");
  const fs::path file = dir / "opt.ckpt.jsonl";
  {
    JournalWriter writer(file, 0);
    for (int i = 0; i < 20; ++i) {
      writer.append(R"({"i":)" + std::to_string(i) + "}");
    }
  }
  EXPECT_EQ(read_journal(file).records.size(), 20u);
  {
    FailurePoint::prime_every_nth(Id::kJournalSync, 1, EIO);
    JournalWriter writer(file, read_journal(file).bytes);
    writer.append(R"({"i":20})");
    writer.append(R"({"i":21})");
  }  // the latched error is dropped, not thrown
  EXPECT_EQ(read_journal(file).records.size(), 21u);
}

// ------------------------------------------------ session integration

TEST_F(FaultTest, SessionOpenReapsStaleTempFiles) {
  const fs::path dir = scratch_dir("stale_open");
  const std::vector<std::string> stages = {"alpha", "beta"};
  ascdg::flow::Session::create(dir, 0xF00D, 5, stages);
  std::ofstream(dir / "optimization.ckpt.json.tmp") << "torn by SIGKILL";
  std::ofstream(dir / "manifest.json.tmp") << "torn by SIGKILL";
  ascdg::flow::Session::open(dir, 0xF00D, stages);
  EXPECT_FALSE(fs::exists(dir / "optimization.ckpt.json.tmp"));
  EXPECT_FALSE(fs::exists(dir / "manifest.json.tmp"));
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
}

TEST_F(FaultTest, SessionCreateReapsStaleTempFiles) {
  const fs::path dir = scratch_dir("stale_create");
  std::ofstream(dir / "sampling.json.tmp") << "torn";
  ascdg::flow::Session::create(dir, 0xF00D, 5,
                               std::vector<std::string>{"alpha"});
  EXPECT_FALSE(fs::exists(dir / "sampling.json.tmp"));
}

TEST_F(FaultTest, ManifestReadFailureIsInjectable) {
  const fs::path dir = scratch_dir("manifest_read");
  const std::vector<std::string> stages = {"alpha"};
  ascdg::flow::Session::create(dir, 0xF00D, 5, stages);
  FailurePoint::prime_one_shot(Id::kManifestRead, EIO);
  EXPECT_THROW(ascdg::flow::Session::open(dir, 0xF00D, stages),
               ascdg::util::Error);
  // Injection consumed; the next open succeeds.
  EXPECT_NO_THROW(ascdg::flow::Session::open(dir, 0xF00D, stages));
}

TEST_F(FaultTest, ArtifactReadFailureIsInjectable) {
  const fs::path dir = scratch_dir("artifact_read");
  ascdg::util::atomic_write_file(dir / "a.json", R"({"a":1})");
  FailurePoint::prime_one_shot(Id::kArtifactRead, EIO);
  EXPECT_THROW((void)ascdg::flow::read_digested_json_file(dir / "a.json"),
               ascdg::util::Error);
  EXPECT_EQ(ascdg::flow::read_digested_json_file(dir / "a.json").at("a").as_size(),
            1u);
}

// ------------------------------------------------ HTTP EINTR handling

/// Minimal EINTR-robust HTTP client — the *test* must survive the
/// signal storm too.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EISCONN) break;
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(FaultTest, HttpServerRetriesInjectedEintrOnEveryPath) {
  ascdg::obs::Registry reg;
  reg.counter("ascdg_fault_probe_total").add(1);
  ascdg::obs::HttpServerConfig config;
  config.registry = &reg;
  ascdg::obs::HttpServer server(config);
  ASSERT_NE(server.port(), 0);

  // Every second accept/recv/send syscall "returns" EINTR. Before the
  // retry fix each of these dropped the connection or truncated the
  // response mid-flight.
  FailurePoint::prime_every_nth(Id::kHttpAccept, 2, EINTR);
  FailurePoint::prime_every_nth(Id::kHttpRecv, 2, EINTR);
  FailurePoint::prime_every_nth(Id::kHttpSend, 2, EINTR);

  for (int i = 0; i < 8; ++i) {
    const std::string response = http_get(server.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << i;
    EXPECT_NE(response.find("ascdg_fault_probe_total 1"), std::string::npos)
        << i;
  }
  EXPECT_GT(FailurePoint::fires(Id::kHttpRecv), 0u);
  EXPECT_GT(FailurePoint::fires(Id::kHttpSend), 0u);
}

void sigalrm_noop(int) {}

TEST_F(FaultTest, HttpServerSurvivesAnIntervalTimerEintrStorm) {
  ascdg::obs::Registry reg;
  reg.counter("ascdg_fault_storm_total").add(1);
  ascdg::obs::HttpServerConfig config;
  config.registry = &reg;
  ascdg::obs::HttpServer server(config);
  ASSERT_NE(server.port(), 0);

  // A real signal storm: SIGALRM every 2 ms, installed *without*
  // SA_RESTART so blocking syscalls in whichever thread takes the
  // signal actually return EINTR.
  struct sigaction action = {};
  action.sa_handler = sigalrm_noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous), 0);
  itimerval timer = {};
  timer.it_interval.tv_usec = 2000;
  timer.it_value.tv_usec = 2000;
  itimerval previous_timer = {};
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, &previous_timer), 0);

  int ok = 0;
  constexpr int kRequests = 100;
  for (int i = 0; i < kRequests; ++i) {
    const std::string response = http_get(server.port(), "/metrics");
    if (response.find("HTTP/1.1 200 OK") != std::string::npos &&
        response.find("ascdg_fault_storm_total 1") != std::string::npos) {
      ++ok;
    }
  }

  setitimer(ITIMER_REAL, &previous_timer, nullptr);
  sigaction(SIGALRM, &previous, nullptr);
  EXPECT_EQ(ok, kRequests);
}

}  // namespace
