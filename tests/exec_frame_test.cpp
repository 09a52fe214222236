// The process backend's binary frames (exec/frame.hpp): encode/decode
// round trips, and decoder robustness. Both decoders read data from
// another process, so every malformed payload — truncated at any byte,
// a count larger than the bytes left, a job id or hit array that does
// not fit the batch, a bad chunk range, trailing bytes, an oversized
// length prefix — must throw util::Error (never an assertion's
// LogicError, never std::length_error from allocating by a bogus
// count).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/frame.hpp"
#include "util/error.hpp"

namespace ascdg::exec::frame {
namespace {

constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
constexpr std::size_t kEvents = 5;
constexpr std::size_t kJobs = 9;

/// Little-endian u64, the frame's integer encoding.
std::string u64(std::uint64_t value) {
  std::string out(8, '\0');
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return out;
}

std::string str(std::string_view text) {
  return u64(text.size()) + std::string(text);
}

const std::string kTmplA =
    "template a {\n  weight Cmd { read: 1, write: 2 }\n}\n";
const std::string kTmplB = "template b {\n  range Delay [0, 7]\n}\n";

Request sample_request() {
  Request request;
  request.unit = "io_unit";
  request.jobs.push_back(JobRequest{3, 0xFFFFFFFFFFFFFFFFULL, kTmplA,
                                    {{0, 64}, {256, 300}}});
  request.jobs.push_back(JobRequest{8, 42, kTmplB, {{64, 128}}});
  return request;
}

Response sample_response() {
  Response response;
  response.partials.push_back(JobPartial{3, 108, {0, 1, 108, 7, 0}});
  response.partials.push_back(
      JobPartial{8, 64, {64, 0, 0, 0xFFFFFFFFFFULL, 2}});
  return response;
}

void expect_same(const Request& got, const Request& want) {
  EXPECT_EQ(got.unit, want.unit);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t j = 0; j < got.jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].id, want.jobs[j].id);
    EXPECT_EQ(got.jobs[j].seed_root, want.jobs[j].seed_root);
    EXPECT_EQ(got.jobs[j].tmpl_text, want.jobs[j].tmpl_text);
    EXPECT_EQ(got.jobs[j].chunks, want.jobs[j].chunks);
  }
}

void expect_same(const Response& got, const Response& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.partials.size(), want.partials.size());
  for (std::size_t p = 0; p < got.partials.size(); ++p) {
    EXPECT_EQ(got.partials[p].id, want.partials[p].id);
    EXPECT_EQ(got.partials[p].sims, want.partials[p].sims);
    EXPECT_EQ(got.partials[p].hits, want.partials[p].hits);
  }
}

/// Expects util::Error whose message names `what`.
template <typename Fn>
void expect_error(Fn&& decode, std::string_view what) {
  try {
    decode();
    ADD_FAILURE() << "expected util::Error mentioning '" << what << "'";
  } catch (const util::Error& err) {
    EXPECT_NE(std::string(err.what()).find(what), std::string::npos)
        << err.what();
  }
}

// --- Round trips -----------------------------------------------------

TEST(FrameRoundTrip, Request) {
  const Request request = sample_request();
  const std::string payload = encode_request(request);
  expect_same(decode_request(payload), request);

  Request empty;
  empty.unit = "lsu";
  expect_same(decode_request(encode_request(empty)), empty);
}

TEST(FrameRoundTrip, Response) {
  const Response ok = sample_response();
  expect_same(decode_response(encode_response(ok), kJobs, kEvents), ok);

  const Response failed{false, "simulation threw: bad weight", {}};
  expect_same(decode_response(encode_response(failed), kJobs, kEvents),
              failed);
}

TEST(FrameRoundTrip, ChunkOfExactlyKChunkSeedsIsAccepted) {
  Request request;
  request.jobs.push_back(JobRequest{0, 1, "", {{100, 100 + kChunk}, {7, 7}}});
  expect_same(decode_request(encode_request(request)), request);
}

// --- Truncation, trailing bytes --------------------------------------

TEST(FrameDecode, TruncatedRequestThrowsAtEveryOffset) {
  const std::string payload = encode_request(sample_request());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_THROW((void)decode_request(std::string_view(payload).substr(0, n)),
                 util::Error)
        << "truncated to " << n << " of " << payload.size();
  }
}

TEST(FrameDecode, TruncatedResponseThrowsAtEveryOffset) {
  for (const Response& response :
       {sample_response(), Response{false, "boom", {}}}) {
    const std::string payload = encode_response(response);
    for (std::size_t n = 0; n < payload.size(); ++n) {
      EXPECT_THROW((void)decode_response(
                       std::string_view(payload).substr(0, n), kJobs, kEvents),
                   util::Error)
          << "truncated to " << n << " of " << payload.size();
    }
  }
}

TEST(FrameDecode, TrailingBytesThrow) {
  const std::string request = encode_request(sample_request()) + '\0';
  expect_error([&] { (void)decode_request(request); }, "trailing");
  for (const Response& response :
       {sample_response(), Response{false, "boom", {}}}) {
    const std::string payload = encode_response(response) + "xy";
    expect_error([&] { (void)decode_response(payload, kJobs, kEvents); },
                 "trailing");
  }
}

// --- Counts beyond the bytes left ------------------------------------

TEST(FrameDecode, JobCountBeyondTheBytesLeftThrows) {
  expect_error([&] { (void)decode_request(str("io_unit") + u64(kHuge)); },
               "job count");
  // Two jobs declared, one present.
  const std::string one_job = u64(0) + u64(1) + str("t") + u64(0);
  expect_error(
      [&] { (void)decode_request(str("io_unit") + u64(2) + one_job); },
      "job count");
}

TEST(FrameDecode, ChunkCountBeyondTheBytesLeftThrows) {
  const std::string payload =
      str("io_unit") + u64(1) + u64(0) + u64(1) + str("t") + u64(kHuge) +
      u64(0) + u64(64);
  expect_error([&] { (void)decode_request(payload); }, "chunk count");
}

TEST(FrameDecode, TemplateLengthBeyondTheBytesLeftThrows) {
  const std::string payload =
      str("io_unit") + u64(1) + u64(0) + u64(1) + u64(kHuge) + u64(0);
  expect_error([&] { (void)decode_request(payload); }, "truncated");
}

TEST(FrameDecode, PartialCountBeyondTheBytesLeftThrows) {
  const std::string payload = std::string(1, '\1') + u64(kHuge);
  expect_error([&] { (void)decode_response(payload, kJobs, kEvents); },
               "partial count");
}

TEST(FrameDecode, HitCountBeyondTheBytesLeftThrows) {
  const std::string payload =
      std::string(1, '\1') + u64(1) + u64(0) + u64(4) + u64(kHuge) + u64(1);
  // Even when the caller's event count matches the bogus one.
  expect_error([&] { (void)decode_response(payload, kJobs, kHuge); },
               "hit count");
}

TEST(FrameDecode, ErrorLengthBeyondTheBytesLeftThrows) {
  const std::string payload = std::string(1, '\0') + u64(kHuge) + "boom";
  expect_error([&] { (void)decode_response(payload, kJobs, kEvents); },
               "truncated");
}

// --- Values that do not fit the batch --------------------------------

TEST(FrameDecode, HitArrayMustHoldOneCountPerEvent) {
  const std::string payload = encode_response(sample_response());
  for (const std::size_t events : {kEvents - 1, kEvents + 1, std::size_t{0}}) {
    expect_error([&] { (void)decode_response(payload, kJobs, events); },
                 "hit counts for");
  }
}

TEST(FrameDecode, JobIdAtOrBeyondTheJobCountThrows) {
  // sample_response() reports jobs 3 and 8.
  const std::string payload = encode_response(sample_response());
  EXPECT_NO_THROW((void)decode_response(payload, 9, kEvents));
  for (const std::size_t jobs : {std::size_t{8}, std::size_t{4}}) {
    expect_error([&] { (void)decode_response(payload, jobs, kEvents); },
                 "partial for job 8");
  }
}

TEST(FrameDecode, ChunkRangesAreValidated) {
  for (const auto& [begin, end] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {10, 9}, {0, kChunk + 1}, {kHuge, 0}, {0, kHuge}}) {
    Request request;
    request.jobs.push_back(JobRequest{0, 1, "t", {{begin, end}}});
    const std::string payload = encode_request(request);
    expect_error([&] { (void)decode_request(payload); }, "chunk range");
  }
}

TEST(FrameDecode, OkFlagIsZeroOrOne) {
  std::string payload = encode_response(sample_response());
  payload[0] = '\2';
  expect_error([&] { (void)decode_response(payload, kJobs, kEvents); },
               "ok flag");
}

// --- Length-prefixed frame I/O ---------------------------------------

/// A pipe whose ends close on scope exit.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_write();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameIo, FramesRoundTripThroughAPipeAndEofReadsFalse) {
  Pipe pipe;
  const std::string payload = encode_request(sample_request());
  ASSERT_TRUE(write_frame(pipe.fds[1], payload));
  ASSERT_TRUE(write_frame(pipe.fds[1], ""));
  pipe.close_write();
  std::string got;
  ASSERT_TRUE(read_frame(pipe.fds[0], got));
  EXPECT_EQ(got, payload);
  ASSERT_TRUE(read_frame(pipe.fds[0], got));
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(read_frame(pipe.fds[0], got));
}

TEST(FrameIo, TruncatedFrameReadsFalse) {
  Pipe pipe;
  const std::string prefix = u64(100).substr(0, 4);  // 100 bytes promised
  ASSERT_EQ(::write(pipe.fds[1], prefix.data(), prefix.size()), 4);
  ASSERT_EQ(::write(pipe.fds[1], "abc", 3), 3);
  pipe.close_write();
  std::string got;
  EXPECT_FALSE(read_frame(pipe.fds[0], got));
}

TEST(FrameIo, LengthPrefixAboveTheCapThrowsBeforeResizing) {
  for (const std::uint64_t length :
       {std::uint64_t{kMaxFrameBytes} + 1, std::uint64_t{0xFFFFFFFF}}) {
    Pipe pipe;
    const std::string prefix = u64(length).substr(0, 4);
    ASSERT_EQ(::write(pipe.fds[1], prefix.data(), prefix.size()), 4);
    std::string got;
    expect_error([&] { (void)read_frame(pipe.fds[0], got); }, "cap");
    EXPECT_LT(got.capacity(), std::size_t{1} << 20);
  }
}

}  // namespace
}  // namespace ascdg::exec::frame
