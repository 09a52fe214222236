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
#pragma once

#include <filesystem>
#include <functional>
#include <string_view>

namespace ascdg::util {

enum class Durability {
  /// fsync the temp file before rename and the directory after —
  /// survives power loss. The default everywhere.
  kFull,
  /// Skip both fsyncs: still atomic against process crash (SIGKILL),
  /// not against power loss. For throwaway data and benchmarks that
  /// quantify the fsync price.
  kNoFsync,
};

/// Writes `content` to `path` atomically and durably (see file
/// comment), creating parent directories. Throws util::Error on any
/// IO failure; the temp file is always cleaned up on failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content,
                       Durability durability = Durability::kFull);

/// Receives the next piece of a file's content (see atomic_write_stream).
using ContentSink = std::function<void(std::string_view)>;

/// atomic_write_file for content too large to build as one string:
/// `produce` hands the content to its sink piece by piece, and the
/// pieces reach the temp file through a fixed-size buffer, so memory
/// stays flat however large the file. Same atomicity, durability,
/// errors and clean-up; an exception from `produce` also removes the
/// temp file and propagates.
void atomic_write_stream(
    const std::filesystem::path& path,
    const std::function<void(const ContentSink&)>& produce,
    Durability durability = Durability::kFull);

/// Removes `*.tmp` files left in `dir` by writes that died between
/// open and rename (e.g. SIGKILL mid-atomic_write_file). Quietly does
/// nothing when `dir` does not exist. Call on re-opening a directory
/// of durable state, never while writers are active.
void remove_stale_tmp_files(const std::filesystem::path& dir);

}  // namespace ascdg::util
