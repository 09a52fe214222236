#include "util/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/failure.hpp"

namespace ascdg::util {

namespace {

using Fp = FailurePoint;

[[noreturn]] void fail(const std::string& what, const std::string& path,
                       int error_number) {
  throw Error(what + " '" + path + "': " + std::strerror(error_number));
}

/// close(2) on an error path: must not clobber the errno being reported.
void close_keep_errno(int fd) noexcept {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

void unlink_keep_errno(const std::string& path) noexcept {
  const int saved = errno;
  ::unlink(path.c_str());
  errno = saved;
}

int open_retry(const char* path, int flags, mode_t mode) noexcept {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Full write with EINTR retry and short-write continuation. The
/// injection site models a short write against a full disk: half the
/// remaining bytes land, then the injected errno surfaces.
bool write_all(int fd, const char* data, std::size_t size) noexcept {
  std::size_t done = 0;
  while (done < size) {
    if (const int e = Fp::check(Fp::Id::kAtomicWriteWrite); e != 0) {
      (void)!::write(fd, data + done, (size - done) / 2);
      errno = e;
      return false;
    }
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_retry(int fd, Fp::Id point) noexcept {
  if (const int e = Fp::check(point); e != 0) {
    errno = e;
    return false;
  }
  while (::fsync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content, Durability durability) {
  atomic_write_stream(
      path, [content](const ContentSink& sink) { sink(content); },
      durability);
}

void atomic_write_stream(
    const std::filesystem::path& path,
    const std::function<void(const ContentSink&)>& produce,
    Durability durability) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      throw Error("cannot create directory '" + path.parent_path().string() +
                  "': " + ec.message());
    }
  }
  const std::string target = path.string();
  const std::string tmp = target + ".tmp";

  int fd = -1;
  if (const int e = Fp::check(Fp::Id::kAtomicWriteOpen); e != 0) {
    errno = e;
  } else {
    fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
  }
  if (fd < 0) fail("cannot open temp file", tmp, errno);

  // Pieces smaller than the buffer are gathered into it; a larger one
  // goes straight to write(2), so a single-string write stays one
  // write_all call.
  constexpr std::size_t kBufferBytes = std::size_t{64} << 10;
  std::string buffer;
  const auto write_or_fail = [&](std::string_view bytes) {
    if (!write_all(fd, bytes.data(), bytes.size())) {
      fail("failed writing", tmp, errno);
    }
  };
  const ContentSink sink = [&](std::string_view piece) {
    if (buffer.size() + piece.size() > kBufferBytes && !buffer.empty()) {
      write_or_fail(buffer);
      buffer.clear();
    }
    if (piece.size() >= kBufferBytes) {
      write_or_fail(piece);
    } else {
      buffer.append(piece);
    }
  };
  try {
    produce(sink);
    if (!buffer.empty()) write_or_fail(buffer);
  } catch (...) {
    close_keep_errno(fd);
    unlink_keep_errno(tmp);
    throw;
  }

  // Data must be on stable storage *before* the rename publishes the
  // name, or a power loss can commit the name to an empty file.
  if (durability == Durability::kFull &&
      !fsync_retry(fd, Fp::Id::kAtomicWriteFsync)) {
    close_keep_errno(fd);
    unlink_keep_errno(tmp);
    fail("cannot fsync temp file", tmp, errno);
  }

  if (::close(fd) != 0) {
    unlink_keep_errno(tmp);
    fail("cannot close temp file", tmp, errno);
  }

  bool renamed = false;
  if (const int e = Fp::check(Fp::Id::kAtomicWriteRename); e != 0) {
    errno = e;
  } else {
    renamed = ::rename(tmp.c_str(), target.c_str()) == 0;
  }
  if (!renamed) {
    unlink_keep_errno(tmp);
    fail("cannot rename temp file into", target, errno);
  }

  // The rename itself is directory metadata; fsync the directory so the
  // new name survives power loss too. A filesystem that cannot fsync a
  // directory (EINVAL) keeps whatever guarantee it natively has.
  if (durability == Durability::kFull) {
    const std::filesystem::path parent =
        path.has_parent_path() ? path.parent_path() : ".";
    const int dir_fd =
        open_retry(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
    if (dir_fd < 0) {
      fail("cannot open directory for fsync", parent.string(), errno);
    }
    if (!fsync_retry(dir_fd, Fp::Id::kAtomicWriteDirFsync)) {
      const int err = errno;
      close_keep_errno(dir_fd);
      if (err != EINVAL) {
        fail("cannot fsync directory", parent.string(), err);
      }
    } else {
      ::close(dir_fd);
    }
  }
}

void remove_stale_tmp_files(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator entries(dir, ec);
  if (ec) return;
  for (const auto& entry : entries) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    if (entry.path().filename().string().ends_with(".tmp")) {
      std::filesystem::remove(entry.path(), entry_ec);
    }
  }
}

}  // namespace ascdg::util
