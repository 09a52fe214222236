// The process backend's binary frames (exec/frame.hpp): encode/decode
// round trips, and decoder robustness. Both decoders read data from
// another process, so every malformed payload — truncated at any byte,
// a count larger than the bytes left, a base index past the bases, a
// non-finite weight, a job id or hit array that does not fit the batch,
// a bad chunk range, trailing bytes, an oversized length prefix — must
// throw util::Error (never an assertion's LogicError, never
// std::length_error from allocating by a bogus count), and so must a
// response that does not answer its request. Also pins the bulk
// encoders to a per-value reference encoder of the documented layout,
// and the workers' weight rounding to the template text it stands in
// for.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/frame.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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
  request.bases = {kTmplA, kTmplB};
  request.jobs.push_back(JobRequest{3, 0xFFFFFFFFFFFFFFFFULL, 0, {0.25, -0.0},
                                    {{0, 64}, {256, 300}}});
  request.jobs.push_back(JobRequest{8, 42, 1, {}, {{64, 128}}});
  request.jobs.push_back(JobRequest{9, 7, 0, {}, {{0, 1}}});
  return request;
}

/// A request header: unit "io_unit" and one base "t".
std::string one_base() { return str("io_unit") + u64(1) + str("t"); }

Response sample_response() {
  Response response;
  response.partials.push_back(JobPartial{3, 108, {0, 1, 108, 7, 0}});
  response.partials.push_back(
      JobPartial{8, 64, {64, 0, 0, 0xFFFFFFFFFFULL, 2}});
  return response;
}

void expect_same(const Request& got, const Request& want) {
  EXPECT_EQ(got.unit, want.unit);
  EXPECT_EQ(got.bases, want.bases);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t j = 0; j < got.jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].id, want.jobs[j].id);
    EXPECT_EQ(got.jobs[j].seed_root, want.jobs[j].seed_root);
    EXPECT_EQ(got.jobs[j].base, want.jobs[j].base);
    ASSERT_EQ(got.jobs[j].weights.size(), want.jobs[j].weights.size());
    for (std::size_t i = 0; i < got.jobs[j].weights.size(); ++i) {
      // Bit for bit: -0 stays -0.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.jobs[j].weights[i]),
                std::bit_cast<std::uint64_t>(want.jobs[j].weights[i]));
    }
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
  request.bases = {""};
  request.jobs.push_back(
      JobRequest{0, 1, 0, {}, {{100, 100 + kChunk}, {7, 7}}});
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
  expect_error([&] { (void)decode_request(one_base() + u64(kHuge)); },
               "job count");
  // Two jobs declared, one present.
  const std::string one_job = u64(0) + u64(1) + u64(0) + u64(0) + u64(0);
  expect_error([&] { (void)decode_request(one_base() + u64(2) + one_job); },
               "job count");
}

TEST(FrameDecode, BaseCountBeyondTheBytesLeftThrows) {
  expect_error([&] { (void)decode_request(str("io_unit") + u64(kHuge)); },
               "base count");
}

TEST(FrameDecode, ChunkCountBeyondTheBytesLeftThrows) {
  const std::string payload = one_base() + u64(1) + u64(0) + u64(1) + u64(0) +
                              u64(0) + u64(kHuge) + u64(0) + u64(64);
  expect_error([&] { (void)decode_request(payload); }, "chunk count");
}

TEST(FrameDecode, WeightCountBeyondTheBytesLeftThrows) {
  // Three weights declared, two present and no chunk count after them.
  const std::string two_weights =
      u64(std::bit_cast<std::uint64_t>(0.5)) +
      u64(std::bit_cast<std::uint64_t>(1.0));
  for (const std::uint64_t count : {std::uint64_t{3}, kHuge}) {
    const std::string payload = one_base() + u64(1) + u64(0) + u64(1) +
                                u64(0) + u64(count) + two_weights;
    expect_error([&] { (void)decode_request(payload); }, "weight count");
  }
}

TEST(FrameDecode, TemplateLengthBeyondTheBytesLeftThrows) {
  const std::string payload =
      str("io_unit") + u64(1) + u64(kHuge) + u64(0);
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
    request.bases = {"t"};
    request.jobs.push_back(JobRequest{0, 1, 0, {}, {{begin, end}}});
    const std::string payload = encode_request(request);
    expect_error([&] { (void)decode_request(payload); }, "chunk range");
  }
}

TEST(FrameDecode, BaseIndexPastTheBasesThrows) {
  for (const std::uint64_t base : {std::uint64_t{2}, kHuge}) {
    Request request = sample_request();
    request.jobs[1].base = base;
    const std::string payload = encode_request(request);
    expect_error([&] { (void)decode_request(payload); },
                 "base " + std::to_string(base) + " of 2");
  }
  // No base at all: even index 0 is past the end.
  Request request;
  request.jobs.push_back(JobRequest{0, 1, 0, {}, {{0, 1}}});
  const std::string payload = encode_request(request);
  expect_error([&] { (void)decode_request(payload); }, "base 0 of 0");
}

TEST(FrameDecode, NonFiniteWeightThrows) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Request request = sample_request();
    request.jobs[0].weights[1] = bad;
    const std::string payload = encode_request(request);
    expect_error([&] { (void)decode_request(payload); }, "non-finite weight");
  }
}

TEST(FrameDecode, OkFlagIsZeroOrOne) {
  std::string payload = encode_response(sample_response());
  payload[0] = '\2';
  expect_error([&] { (void)decode_response(payload, kJobs, kEvents); },
               "ok flag");
}

TEST(FrameDecode, PartialsThatDoNotAnswerTheRequestThrow) {
  // sample_request() asks for jobs 3 (chunks of 64 and 44 seeds), 8
  // (64) and 9 (1), in that order.
  const Request request = sample_request();
  const auto answer = [](std::vector<std::pair<std::uint64_t, std::uint64_t>>
                             id_sims) {
    Response response;
    for (const auto& [id, sims] : id_sims) {
      response.partials.push_back(JobPartial{id, sims, {0, 0, 0, 0, 0}});
    }
    return decode_response(encode_response(response), kJobs + 1, kEvents);
  };
  EXPECT_NO_THROW(check_answers(request, answer({{3, 108}, {8, 64}, {9, 1}})));
  // A failed response answers nothing, and is not malformed for it.
  EXPECT_NO_THROW(check_answers(request, Response{false, "boom", {}}));

  expect_error([&] { check_answers(request, answer({{3, 108}, {8, 64}})); },
               "2 partials for 3 requested jobs");
  expect_error(
      [&] {
        check_answers(request,
                      answer({{3, 108}, {8, 64}, {9, 1}, {9, 1}}));
      },
      "4 partials for 3 requested jobs");
  expect_error([&] { check_answers(request, answer({})); },
               "0 partials for 3 requested jobs");
  // A job it was not sent, and the right jobs out of order.
  expect_error(
      [&] { check_answers(request, answer({{3, 108}, {7, 64}, {9, 1}})); },
      "partial 1 is for job 7, not the requested job 8");
  expect_error(
      [&] { check_answers(request, answer({{8, 64}, {3, 108}, {9, 1}})); },
      "partial 0 is for job 8, not the requested job 3");
  // A sims count that is not the sum of the job's chunk widths.
  for (const std::uint64_t sims : {std::uint64_t{0}, std::uint64_t{107},
                                   std::uint64_t{109}, std::uint64_t{128}}) {
    expect_error(
        [&] {
          check_answers(request, answer({{3, sims}, {8, 64}, {9, 1}}));
        },
        "partial for job 3 reports " + std::to_string(sims) +
            " sims of 108 requested");
  }
  expect_error(
      [&] { check_answers(request, answer({{3, 108}, {8, 64}, {9, 0}})); },
      "partial for job 9 reports 0 sims of 1 requested");
}

// --- Wire-format pin ---------------------------------------------------

/// docs/backends.md's grammar, one u64 at a time: the layout the bulk
/// encoders must reproduce byte for byte.
std::string per_value_request(const Request& request) {
  std::string out = str(request.unit) + u64(request.bases.size());
  for (const std::string_view base : request.bases) out += str(base);
  out += u64(request.jobs.size());
  for (const JobRequest& job : request.jobs) {
    out += u64(job.id) + u64(job.seed_root) + u64(job.base) +
           u64(job.weights.size());
    for (const double w : job.weights) {
      out += u64(std::bit_cast<std::uint64_t>(w));
    }
    out += u64(job.chunks.size());
    for (const auto& [begin, end] : job.chunks) out += u64(begin) + u64(end);
  }
  return out;
}

std::string per_value_response(const Response& response) {
  if (!response.ok) return std::string(1, '\0') + str(response.error);
  std::string out = std::string(1, '\1') + u64(response.partials.size());
  for (const JobPartial& partial : response.partials) {
    out += u64(partial.id) + u64(partial.sims) + u64(partial.hits.size());
    for (const std::size_t hits : partial.hits) out += u64(hits);
  }
  return out;
}

TEST(FrameCodec, BulkEncodingIsByteIdenticalToThePerValueLayout) {
  util::Xoshiro256 rng(0xB17E);
  const auto below = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::vector<std::string> texts = {kTmplA, kTmplB, "", "t"};
  for (int round = 0; round < 200; ++round) {
    Request request;
    request.unit = round % 2 == 0 ? "ifu" : "l3_cache";
    for (std::size_t b = below(4); b > 0; --b) {
      request.bases.push_back(texts[below(texts.size())]);
    }
    // Empty jobs, jobs without weights, jobs with many; weights are raw
    // bit patterns (finite ones: the decoder rejects the rest).
    for (std::size_t j = request.bases.empty() ? 0 : below(6); j > 0; --j) {
      JobRequest job{rng(), rng(), below(request.bases.size()), {}, {}};
      for (std::size_t w = below(3) == 0 ? 0 : below(40); w > 0; --w) {
        double weight = std::bit_cast<double>(rng());
        if (!std::isfinite(weight)) weight = rng.uniform();
        job.weights.push_back(weight);
      }
      for (std::size_t c = below(4); c > 0; --c) {
        const std::uint64_t begin = rng() >> 1;
        job.chunks.emplace_back(begin, begin + below(kChunk + 1));
      }
      request.jobs.push_back(std::move(job));
    }
    const std::string payload = encode_request(request);
    ASSERT_EQ(payload, per_value_request(request)) << "round " << round;
    expect_same(decode_request(payload), request);

    const std::size_t events = 1 + below(300);
    Response response;
    for (std::size_t p = below(17); p > 0; --p) {
      JobPartial partial{below(kJobs), rng(), std::vector<std::size_t>(events)};
      for (std::size_t& hits : partial.hits) hits = rng() >> below(64);
      response.partials.push_back(std::move(partial));
    }
    const Response failed{false, std::string(below(50), 'e'), {}};
    for (const Response& r : {response, failed}) {
      const std::string bytes = encode_response(r);
      ASSERT_EQ(bytes, per_value_response(r)) << "round " << round;
      expect_same(decode_response(bytes, kJobs, events), r);
    }
  }
}

// --- Weight rounding ---------------------------------------------------

/// What a worker drew from when jobs travelled as template text.
double via_text(double weight) {
  return *util::parse_double(util::format_number(weight));
}

void expect_rounds_as_text(double weight) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(text_rounded_weight(weight)),
            std::bit_cast<std::uint64_t>(via_text(weight)))
      << util::format_number(weight, 17);
}

TEST(FrameWeights, TextRoundedWeightIsTheTemplateTextRoundTrip) {
  using limits = std::numeric_limits<double>;
  for (const double edge :
       {0.0, -0.0, 1.0, -1.0, 0.5, 1.0 / 3.0, 2.0 / 3.0, 0.1, 1e-5, 1e-7,
        0.999999, 0.9999995, 0.99999949999999, 123456.5, 1234567.0,
        999999.5, 1e15 - 1.0, 1e15, 1e15 + 2.0, 1e16, 1e300, -1e300,
        limits::max(), limits::lowest(), limits::min(), limits::denorm_min(),
        -limits::denorm_min(), limits::epsilon()}) {
    expect_rounds_as_text(edge);
  }
  // Optimizer points live in [0, 1]; random bit patterns cover every
  // exponent.
  util::Xoshiro256 rng(0xF64);
  for (int i = 0; i < 500'000; ++i) expect_rounds_as_text(rng.uniform());
  for (int i = 0; i < 500'000; ++i) {
    const double w = std::bit_cast<double>(rng());
    if (std::isfinite(w)) {
      expect_rounds_as_text(w);
    } else {
      EXPECT_THROW((void)text_rounded_weight(w), util::Error);
    }
  }
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
