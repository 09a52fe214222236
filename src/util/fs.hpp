// Crash-durable filesystem primitives.
//
// atomic_write_file is the one way anything in AS-CDG persists a file:
// write to a same-directory temp file, fsync it, rename(2) over the
// target, then fsync the parent directory. Rename atomicity alone only
// guarantees the *name* switches in one step; without the two fsyncs a
// power loss can still deliver an empty or truncated "committed" file
// (the rename metadata can reach the journal before the data blocks),
// and the rename itself can vanish. The full sequence guarantees that
// once the call returns, the new content survives power loss — and a
// crash at any earlier instant leaves the previous file intact.
//
// Every syscall site is wrapped in a util::FailurePoint
// (atomic_write.open/write/fsync/rename/dir_fsync), so tests can
// inject ENOSPC, short writes, or rename failures deterministically.
// All error paths unlink the temp file; nothing leaks next to the
// target.
//
// JournalWriter is the other way: an append-only file of one record
// per line, for state that grows by a small record at a time (the
// optimizer's per-iteration checkpoints). Each record is fdatasync'ed,
// but the sync runs in the background while the caller computes the
// next record; append() joins it before writing again. read_journal
// reads such a file back.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ascdg::util {

/// Writes `content` to `path` atomically and durably (see file
/// comment), creating parent directories. Throws util::Error on any
/// IO failure; the temp file is always cleaned up on failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content);

/// Durable append-only journal of one-line records. append(record):
///   1. waits for the previous record's fdatasync and throws its error
///      as util::Error (then runs `on_durable`, if set);
///   2. writes `record` plus '\n';
///   3. starts this record's fdatasync on a second thread.
/// So at most one sync is in flight, record k is durable before record
/// k+1 is written, and the records on disk are always a prefix of
/// those appended. close() joins the last sync; call it before
/// anything that must not get ahead of the journal. A failed write or
/// sync leaves the journal closed; the failed record is at most a torn
/// tail, which read_journal drops.
///
/// FailurePoint sites: journal.write (fires a short write) and
/// journal.sync.
class JournalWriter {
 public:
  /// Opens `path` for appending after cutting it to its first
  /// `keep_bytes` bytes (the prefix read_journal accepted; 0 for a new
  /// journal). Creating the file fsyncs its directory once, so the
  /// name is as durable as the records. Throws util::Error.
  JournalWriter(const std::filesystem::path& path, std::uintmax_t keep_bytes,
                std::function<void()> on_durable = {});
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  /// Joins an in-flight sync without reporting it: call close() to
  /// learn whether the last record is durable.
  ~JournalWriter();

  /// `record` must not contain '\n'.
  void append(std::string_view record);
  void close();

 private:
  void join();
  void close_fd() noexcept;

  std::string path_;
  int fd_ = -1;
  std::future<int> sync_;  ///< errno of the in-flight fdatasync, 0 if none
  std::function<void()> on_durable_;
  std::string line_;  ///< record + '\n', reused across appends
};

/// A journal's complete records, as read_journal found them.
struct Journal {
  std::vector<JsonValue> records;  ///< one per complete line, in order
  /// Length of the prefix the records span: what JournalWriter keeps.
  std::uintmax_t bytes = 0;
};

/// Reads the journal at `path` without modifying it; a missing file
/// is an empty journal. Only '\n'-terminated lines count, so a torn
/// tail is dropped. A last complete line that is not JSON is dropped
/// too: it can only be the record whose sync was in flight. Any other
/// line that is not JSON throws util::ParseError naming its line; an
/// unreadable file throws util::Error.
[[nodiscard]] Journal read_journal(const std::filesystem::path& path);

/// Removes `*.tmp` files left in `dir` by writes that died between
/// open and rename (e.g. SIGKILL mid-atomic_write_file). Quietly does
/// nothing when `dir` does not exist. Call on re-opening a directory
/// of durable state, never while writers are active.
void remove_stale_tmp_files(const std::filesystem::path& dir);

}  // namespace ascdg::util
