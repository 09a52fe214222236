#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
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
bool write_all(int fd, const char* data, std::size_t size,
               Fp::Id point) noexcept {
  std::size_t done = 0;
  while (done < size) {
    if (const int e = Fp::check(point); e != 0) {
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

/// fsync of `dir`, so a name just created or renamed in it survives
/// power loss. A filesystem that cannot fsync a directory (EINVAL)
/// keeps whatever guarantee it natively has.
void fsync_directory(const std::filesystem::path& dir) {
  const int dir_fd =
      open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (dir_fd < 0) fail("cannot open directory for fsync", dir.string(), errno);
  if (!fsync_retry(dir_fd, Fp::Id::kAtomicWriteDirFsync)) {
    const int err = errno;
    close_keep_errno(dir_fd);
    if (err != EINVAL) fail("cannot fsync directory", dir.string(), err);
  } else {
    ::close(dir_fd);
  }
}

std::filesystem::path parent_or_cwd(const std::filesystem::path& path) {
  return path.has_parent_path() ? path.parent_path()
                                : std::filesystem::path(".");
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content) {
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

  if (!write_all(fd, content.data(), content.size(),
                 Fp::Id::kAtomicWriteWrite)) {
    close_keep_errno(fd);
    unlink_keep_errno(tmp);
    fail("failed writing", tmp, errno);
  }

  // Data must be on stable storage *before* the rename publishes the
  // name, or a power loss can commit the name to an empty file.
  if (!fsync_retry(fd, Fp::Id::kAtomicWriteFsync)) {
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
  // new name survives power loss too.
  fsync_directory(parent_or_cwd(path));
}

JournalWriter::JournalWriter(const std::filesystem::path& path,
                             std::uintmax_t keep_bytes,
                             std::function<void()> on_durable)
    : path_(path.string()), on_durable_(std::move(on_durable)) {
  fd_ = open_retry(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0);
  if (fd_ < 0 && errno == ENOENT) {
    fd_ = open_retry(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd_ < 0) fail("cannot create journal", path_, errno);
    try {
      fsync_directory(parent_or_cwd(path));
    } catch (...) {
      close_fd();
      throw;
    }
  } else if (fd_ < 0) {
    fail("cannot open journal", path_, errno);
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    close_fd();
    fail("cannot stat journal", path_, err);
  }
  const auto size = static_cast<std::uintmax_t>(st.st_size);
  if (size < keep_bytes) {
    close_fd();
    throw Error("journal '" + path_ + "' is " + std::to_string(size) +
                " bytes, shorter than the " + std::to_string(keep_bytes) +
                " it was read with");
  }
  if (size > keep_bytes) {
    // Drop the torn tail before appending after it, and make the cut
    // durable so the tail cannot reappear in front of new records.
    if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0 ||
        ::fdatasync(fd_) != 0) {
      const int err = errno;
      close_fd();
      fail("cannot truncate journal", path_, err);
    }
  }
  try {
    thread_ = std::thread([this] { sync_loop(); });
  } catch (...) {
    close_fd();
    throw;
  }
}

JournalWriter::~JournalWriter() {
  stop_thread();
  close_fd();
}

void JournalWriter::close_fd() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void JournalWriter::stop_thread() noexcept {
  if (!thread_.joinable()) return;
  {
    const std::scoped_lock lock(mutex_);
    closing_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

void JournalWriter::sync_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return !queue_.empty() || closing_; });
    if (queue_.empty()) return;  // closing, and every record is durable
    const std::string line = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr error;
    try {
      if (!write_all(fd_, line.data(), line.size(), Fp::Id::kJournalWrite)) {
        const int err = errno;
        fail("failed appending to journal", path_, err);
      }
      int err = Fp::check(Fp::Id::kJournalSync);
      while (err == 0 && ::fdatasync(fd_) != 0) {
        if (errno != EINTR) err = errno;
      }
      if (err != 0) fail("cannot fdatasync journal", path_, err);
      if (on_durable_) on_durable_();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr) {
      // Nothing after the failed record reaches the file.
      error_ = error;
      queue_.clear();
      return;
    }
  }
}

void JournalWriter::append(std::string_view record) {
  ASCDG_ASSERT(record.find('\n') == std::string_view::npos,
               "journal record spans lines");
  std::string line;
  line.reserve(record.size() + 1);
  line.assign(record);
  line += '\n';
  {
    const std::scoped_lock lock(mutex_);
    if (error_ != nullptr) std::rethrow_exception(error_);
    if (closing_) throw Error("journal '" + path_ + "' is closed");
    queue_.push_back(std::move(line));
  }
  wake_.notify_one();
}

void JournalWriter::close() {
  stop_thread();
  if (error_ != nullptr) {
    close_fd();
    std::rethrow_exception(error_);
  }
  if (fd_ >= 0 && ::close(fd_) != 0) {
    fd_ = -1;
    fail("cannot close journal", path_, errno);
  }
  fd_ = -1;
}

Journal read_journal(const std::filesystem::path& path) {
  Journal journal;
  if (!std::filesystem::exists(path)) return journal;
  if (const int e = Fp::check(Fp::Id::kArtifactRead); e != 0) {
    fail("cannot read journal", path.string(), e);
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open journal '" + path.string() + "'");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  std::size_t begin = 0;
  std::size_t line = 0;
  for (std::size_t end = text.find('\n'); end != std::string::npos;
       begin = end + 1, end = text.find('\n', begin)) {
    ++line;
    try {
      journal.records.push_back(
          json_parse(std::string_view(text).substr(begin, end - begin)));
    } catch (const ParseError& e) {
      if (text.find('\n', end + 1) == std::string::npos) break;
      throw ParseError("journal '" + path.string() + "': " + e.what(), line);
    }
    journal.bytes = end + 1;
  }
  return journal;
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
