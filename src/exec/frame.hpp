// The process backend's pipe protocol (docs/backends.md): a u32
// little-endian length prefix, then a binary payload.
//
// Payload encoding: every integer is an unsigned 64-bit little-endian
// value, a weight is the little-endian bits of an IEEE-754 binary64, the
// response's ok flag is one byte, and a string is its length followed
// by its bytes.
//
//   request  = unit:string  base_count  base:string*  job_count  job*
//   job      = id  seed_root  base  weight_count  weight*
//              chunk_count  (begin end)*
//   response = 0x01  partial_count  partial*   |   0x00  error:string
//   partial  = id  sims  event_count  hit*
//
// A base is a template's tgen::to_text bytes, sent once per request
// however many of its jobs the request holds; a job names its base by
// index and carries its raw weights (exec::Job::weights; none means the
// base as is). The decoders are the trust boundary between the two
// processes: every count is checked against the bytes left before
// anything is allocated by it, every base index against the bases, and
// any malformed payload, a non-finite weight included, throws
// util::Error; check_answers then holds a response to its request.
//
// The codec requires a little-endian host (a static_assert in
// frame.cpp): there a u64 or f64 sits in memory as its wire bytes, so
// each integer, each job's weight array and each partial's hit array
// moves with one copy, not one shift loop per value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ascdg::exec::frame {

/// Simulations per worker chunk — same granularity as the thread farm
/// (the batch ≡ scalar contract makes results independent of chunk
/// size either way; matching keeps simulate_batch widths comparable).
/// A request chunk wider than this is malformed.
inline constexpr std::size_t kChunk = 64;

/// Frame-size sanity cap: a length prefix beyond this means the stream
/// is desynchronized, not that a 1 GiB batch is in flight.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// One job's share of a worker's request: the seed ranges
/// [begin, end) of `seed_root`'s stream to simulate.
struct JobRequest {
  std::uint64_t id = 0;  ///< index into the parent's job batch
  std::uint64_t seed_root = 0;
  std::uint64_t base = 0;  ///< index into Request::bases
  std::vector<double> weights;  ///< exec::Job::weights, finite
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
};

struct Request {
  std::string_view unit;  ///< duv::make_unit name
  std::vector<std::string_view> bases;  ///< tgen::to_text bytes
  std::vector<JobRequest> jobs;
};

/// One job's hit-count partial over the chunks a worker simulated.
struct JobPartial {
  std::uint64_t id = 0;
  std::uint64_t sims = 0;
  std::vector<std::size_t> hits;  ///< one count per coverage event
};

struct Response {
  bool ok = true;
  std::string error;                 ///< set when !ok
  std::vector<JobPartial> partials;  ///< set when ok
};

[[nodiscard]] std::string encode_request(const Request& request);

/// The result's string_views point into `payload`, which must outlive
/// it. Throws util::Error on a malformed payload, including a base
/// index past the bases, a non-finite weight, and a chunk with
/// end < begin or wider than kChunk.
[[nodiscard]] Request decode_request(std::string_view payload);

/// The weight a job's template text carried when jobs travelled as
/// text: util::parse_double(util::format_number(weight)), six
/// significant digits. Workers apply it to every shipped weight, so the
/// process backend draws what it drew from text and its results stay
/// bit-identical to earlier runs. It is the thread/process difference
/// ROADMAP.md lists as the known defect: printing template weights
/// exactly deletes this function. Throws util::Error on a weight the
/// text could not carry (a non-finite one).
[[nodiscard]] double text_rounded_weight(double weight);

[[nodiscard]] std::string encode_response(const Response& response);

/// Throws util::Error on a malformed payload, including a partial whose
/// id is not below `job_count` or whose hit array does not hold
/// exactly `event_count` counts.
[[nodiscard]] Response decode_response(std::string_view payload,
                                       std::size_t job_count,
                                       std::size_t event_count);

/// Throws util::Error unless an ok `response` answers `request`: one
/// partial per requested job, in request order, each with that job's
/// id and as many sims as its chunks hold seeds. A failed response
/// passes; it answers nothing.
///
/// It is kept apart from decode_response on purpose. decode_response
/// checks a frame against the batch's shape alone (job count, event
/// count), which is all a caller that holds no request can check: the
/// codec benchmark, and the decoder tests that feed it truncated and
/// malformed bytes. Its job-count bound is what makes a decoded
/// partial safe to index the batch's results by. check_answers adds
/// the stricter per-request check; run_all calls the two in that order.
void check_answers(const Request& request, const Response& response);

/// Reads one length-prefixed frame into `payload`. Returns false on EOF
/// or a read error (errno set); throws util::Error when the prefix
/// exceeds kMaxFrameBytes, before resizing `payload`.
[[nodiscard]] bool read_frame(int fd, std::string& payload);

/// Writes one length-prefixed frame. Returns false on a write error
/// (errno set, e.g. EPIPE) or a payload above kMaxFrameBytes.
[[nodiscard]] bool write_frame(int fd, std::string_view payload);

}  // namespace ascdg::exec::frame
