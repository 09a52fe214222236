#include "exec/frame.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <optional>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ascdg::exec::frame {

namespace {

// Hit counts and sims travel as u64 and land in std::size_t.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

constexpr std::size_t kU64 = sizeof(std::uint64_t);
/// Smallest encodings, for bounding counts by the bytes left: a base is
/// its length; a job is id, seed_root, base, weight count and chunk
/// count; a chunk is two u64s; a partial is id, sims and event count.
constexpr std::size_t kMinBaseBytes = kU64;
constexpr std::size_t kMinJobBytes = 5 * kU64;
constexpr std::size_t kChunkBytes = 2 * kU64;
constexpr std::size_t kMinPartialBytes = 3 * kU64;

void put_u64(std::string& out, std::uint64_t value) {
  char bytes[kU64];
  for (std::size_t i = 0; i < kU64; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.append(bytes, kU64);
}

void put_string(std::string& out, std::string_view text) {
  put_u64(out, text.size());
  out.append(text);
}

/// Bounds-checked cursor over a payload; every read past the end
/// throws util::Error.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint64_t u64() {
    const std::string_view raw = take(kU64);
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < kU64; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(raw[i]))
               << (8 * i);
    }
    return value;
  }

  std::string_view string() { return take(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  /// A count of items at least `item_bytes` long each; rejected unless
  /// that many items fit in the bytes left, so a caller may reserve by
  /// it.
  std::uint64_t count(std::size_t item_bytes, const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining() / item_bytes) {
      throw util::Error(std::string("malformed frame: ") + what + " count " +
                        std::to_string(n) + " exceeds the " +
                        std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

  void finish() const {
    if (remaining() != 0) {
      throw util::Error("malformed frame: " + std::to_string(remaining()) +
                        " trailing bytes");
    }
  }

 private:
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  std::string_view take(std::uint64_t n) {
    if (n > remaining()) {
      throw util::Error("malformed frame: truncated at byte " +
                        std::to_string(pos_) + " of " +
                        std::to_string(bytes_.size()));
    }
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Reads exactly `n` bytes; false on EOF or a non-EINTR error.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, out, n);
    if (got > 0) {
      out += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return false;  // EOF: peer closed
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Writes exactly `n` bytes; false on a non-EINTR error (e.g. EPIPE).
bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* in = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, in, n);
    if (put > 0) {
      in += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

std::string encode_request(const Request& request) {
  std::size_t size = kU64 + request.unit.size() + 2 * kU64;
  for (const std::string_view base : request.bases) {
    size += kMinBaseBytes + base.size();
  }
  for (const JobRequest& job : request.jobs) {
    size += kMinJobBytes + job.weights.size() * kU64 +
            job.chunks.size() * kChunkBytes;
  }
  std::string out;
  out.reserve(size);
  put_string(out, request.unit);
  put_u64(out, request.bases.size());
  for (const std::string_view base : request.bases) put_string(out, base);
  put_u64(out, request.jobs.size());
  for (const JobRequest& job : request.jobs) {
    put_u64(out, job.id);
    put_u64(out, job.seed_root);
    put_u64(out, job.base);
    put_u64(out, job.weights.size());
    for (const double w : job.weights) {
      put_u64(out, std::bit_cast<std::uint64_t>(w));
    }
    put_u64(out, job.chunks.size());
    for (const auto& [begin, end] : job.chunks) {
      put_u64(out, begin);
      put_u64(out, end);
    }
  }
  return out;
}

Request decode_request(std::string_view payload) {
  Reader in(payload);
  Request request;
  request.unit = in.string();
  request.bases.resize(in.count(kMinBaseBytes, "base"));
  for (std::string_view& base : request.bases) base = in.string();
  request.jobs.resize(in.count(kMinJobBytes, "job"));
  for (JobRequest& job : request.jobs) {
    job.id = in.u64();
    job.seed_root = in.u64();
    job.base = in.u64();
    if (job.base >= request.bases.size()) {
      throw util::Error("malformed frame: base " + std::to_string(job.base) +
                        " of " + std::to_string(request.bases.size()));
    }
    job.weights.resize(in.count(kU64, "weight"));
    for (double& w : job.weights) {
      w = in.f64();
      if (!std::isfinite(w)) {
        throw util::Error("malformed frame: a non-finite weight");
      }
    }
    job.chunks.resize(in.count(kChunkBytes, "chunk"));
    for (auto& [begin, end] : job.chunks) {
      begin = in.u64();
      end = in.u64();
      if (end < begin || end - begin > kChunk) {
        throw util::Error("malformed frame: chunk range [" +
                          std::to_string(begin) + ", " + std::to_string(end) +
                          ")");
      }
    }
  }
  in.finish();
  return request;
}

double text_rounded_weight(double weight) {
  const std::optional<double> rounded =
      util::parse_double(util::format_number(weight));
  if (!rounded.has_value()) {
    throw util::Error("weight " + util::format_number(weight) +
                      " has no template text");
  }
  return *rounded;
}

std::string encode_response(const Response& response) {
  std::string out;
  if (!response.ok) {
    out.reserve(1 + kU64 + response.error.size());
    out.push_back('\0');
    put_string(out, response.error);
    return out;
  }
  std::size_t size = 1 + kU64;
  for (const JobPartial& partial : response.partials) {
    size += kMinPartialBytes + partial.hits.size() * kU64;
  }
  out.reserve(size);
  out.push_back('\1');
  put_u64(out, response.partials.size());
  for (const JobPartial& partial : response.partials) {
    put_u64(out, partial.id);
    put_u64(out, partial.sims);
    put_u64(out, partial.hits.size());
    for (const std::size_t hits : partial.hits) put_u64(out, hits);
  }
  return out;
}

Response decode_response(std::string_view payload, std::size_t job_count,
                         std::size_t event_count) {
  Reader in(payload);
  Response response;
  const std::uint8_t ok = in.u8();
  if (ok > 1) {
    throw util::Error("malformed frame: ok flag " + std::to_string(ok));
  }
  response.ok = ok == 1;
  if (!response.ok) {
    response.error = in.string();
    in.finish();
    return response;
  }
  response.partials.resize(in.count(kMinPartialBytes, "partial"));
  for (JobPartial& partial : response.partials) {
    partial.id = in.u64();
    if (partial.id >= job_count) {
      throw util::Error("malformed frame: partial for job " +
                        std::to_string(partial.id) + " of " +
                        std::to_string(job_count));
    }
    partial.sims = in.u64();
    const std::uint64_t hit_count = in.count(kU64, "hit");
    if (hit_count != event_count) {
      throw util::Error("malformed frame: partial with " +
                        std::to_string(hit_count) + " hit counts for " +
                        std::to_string(event_count) + " events");
    }
    partial.hits.resize(hit_count);
    for (std::size_t& hits : partial.hits) hits = in.u64();
  }
  in.finish();
  return response;
}

bool read_frame(int fd, std::string& payload) {
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof prefix)) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(prefix[0]) |
      (static_cast<std::uint32_t>(prefix[1]) << 8) |
      (static_cast<std::uint32_t>(prefix[2]) << 16) |
      (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (length > kMaxFrameBytes) {
    throw util::Error("malformed frame: length " + std::to_string(length) +
                      " exceeds the " + std::to_string(kMaxFrameBytes) +
                      "-byte cap");
  }
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length);
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    errno = EMSGSIZE;
    return false;
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(length & 0xff),
      static_cast<std::uint8_t>((length >> 8) & 0xff),
      static_cast<std::uint8_t>((length >> 16) & 0xff),
      static_cast<std::uint8_t>((length >> 24) & 0xff),
  };
  if (!write_exact(fd, prefix, sizeof prefix)) return false;
  return payload.empty() || write_exact(fd, payload.data(), payload.size());
}

}  // namespace ascdg::exec::frame
