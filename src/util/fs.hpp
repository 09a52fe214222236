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
// optimizer's per-iteration checkpoints). Each record is fdatasync'ed
// by the writer's one journal thread, behind the caller: append() only
// queues the record, and the caller computes the next one while the
// thread writes and syncs. read_journal reads such a file back.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace ascdg::util {

/// Writes `content` to `path` atomically and durably (see file
/// comment), creating parent directories. Throws util::Error on any
/// IO failure; the temp file is always cleaned up on failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content);

/// Durable append-only journal of one-line records. append(record)
/// queues `record` plus '\n' and returns; the writer's journal thread
/// takes the queue in order and, per record:
///   1. writes it;
///   2. fdatasyncs it;
///   3. runs `on_durable`, if set.
/// It writes record k+1 only after record k's sync returned, so the
/// records on disk are always a prefix of those appended, and every
/// record but the last on disk is durable. The first error (a failed
/// write or sync, or an exception from `on_durable`) is latched: the
/// thread writes nothing after the failed record, and the next append()
/// — or close(), at the latest — throws it as util::Error, as does
/// every call after that. A failed record is at most a torn tail, which
/// read_journal drops. close() waits until the queue is durable (or
/// failed) and closes the file; call it before anything that must not
/// get ahead of the journal.
///
/// FailurePoint sites: journal.write (fires a short write) and
/// journal.sync, both checked on the journal thread.
class JournalWriter {
 public:
  /// Opens `path` for appending after cutting it to its first
  /// `keep_bytes` bytes (the prefix read_journal accepted; 0 for a new
  /// journal), and starts the journal thread. Creating the file fsyncs
  /// its directory once, so the name is as durable as the records.
  /// Throws util::Error.
  JournalWriter(const std::filesystem::path& path, std::uintmax_t keep_bytes,
                std::function<void()> on_durable = {});
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  /// Drains the queue like close(), but never throws: call close() to
  /// learn whether the last record is durable.
  ~JournalWriter();

  /// `record` must not contain '\n'.
  void append(std::string_view record);
  void close();

 private:
  /// The journal thread: writes, syncs and reports each queued record.
  void sync_loop();
  /// Lets the journal thread drain the queue (or stop at an error), then
  /// joins it. Sets the close flag: append() throws from then on.
  void stop_thread() noexcept;
  void close_fd() noexcept;

  std::string path_;
  int fd_ = -1;
  std::function<void()> on_durable_;

  // Guarded by mutex_: records not yet written, the close flag and the
  // latched error. The thread waits on wake_ for a record or the flag.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::string> queue_;  ///< each record + '\n'
  bool closing_ = false;
  std::exception_ptr error_;

  std::thread thread_;  ///< last: started after all it uses
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
