// Unit and property tests for the util module: RNG determinism and
// statistical sanity, running statistics, intervals, string helpers,
// and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ascdg::util {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(Xoshiro, SameSeedSameSequence) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanIsHalf) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Xoshiro, UniformI64CoversInclusiveRange) {
  Xoshiro256 rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_i64(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values appear
}

TEST(Xoshiro, UniformI64SingletonRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_i64(17, 17), 17);
}

TEST(Xoshiro, UniformU64FullRangeDoesNotHang) {
  Xoshiro256 rng(9);
  const auto v = rng.uniform_u64(0, std::numeric_limits<std::uint64_t>::max());
  (void)v;  // any value is fine; just must terminate
}

TEST(Xoshiro, UniformU64IsUnbiasedAcrossBuckets) {
  Xoshiro256 rng(13);
  std::vector<std::size_t> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.uniform_u64(0, 9)];
  }
  const std::vector<double> expected(10, 0.1);
  const double stat = chi_square_statistic(counts, expected);
  EXPECT_LT(stat, chi_square_critical(9, 0.001));
}

// UniformIntRange is uniform_i64 with its divisions hoisted: the same
// value from the same generator, which is left in the same state.
void expect_range_matches_uniform_i64(std::int64_t lo, std::int64_t hi,
                                      std::uint64_t seed, int draws) {
  const UniformIntRange range(lo, hi);
  Xoshiro256 got(seed);
  Xoshiro256 want(seed);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(range.draw(got), want.uniform_i64(lo, hi))
        << "[" << lo << ", " << hi << "] draw " << i;
    ASSERT_EQ(got.state(), want.state());
  }
}

TEST(UniformIntRange, EdgeBoundsMatchUniformI64) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},                 // bound 1
      {17, 17},               // bound 1 away from zero
      {-5, -5},
      {0, 1},                 // bound 2
      {-3, 3},                // negative lo
      {0, 255},
      {-1000000007, 999999937},
      {kMin, kMax},           // the full 2^64 range
      {kMin, kMax - 1},       // bound 2^64 - 1
      {kMin + 1, kMax},
      {kMin, 0},              // bound 2^63 + 1
      {-1, kMax},             // bound 2^63 + 1
      {kMin / 2, kMax / 2 + 7},  // just above 2^63
      {kMin, kMin + 2},
      {kMax - 2, kMax},
      {0, (std::int64_t{1} << 62) + 1},  // high rejection rate
  };
  std::uint64_t seed = 1;
  for (const auto& [lo, hi] : ranges) {
    expect_range_matches_uniform_i64(lo, hi, seed++, 20000);
  }
}

TEST(UniformIntRange, RandomBoundsMatchUniformI64) {
  Xoshiro256 rng(0x5EED);
  for (int i = 0; i < 2000; ++i) {
    // Spans from 1 to the full range, at every magnitude.
    const auto lo = static_cast<std::int64_t>(rng());
    const auto ulo = static_cast<std::uint64_t>(lo);
    const std::uint64_t room =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) -
        ulo;
    const std::uint64_t span = rng() >> rng.uniform_u64(0, 63);
    const auto hi = static_cast<std::int64_t>(ulo + std::min(span, room));
    expect_range_matches_uniform_i64(lo, hi, rng(), 100);
  }
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Xoshiro, NormalMomentsMatch) {
  Xoshiro256 rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(SeedStream, AtIsPureFunction) {
  const SeedStream s(99);
  EXPECT_EQ(s.at(0), s.at(0));
  EXPECT_EQ(s.at(7), s.at(7));
  EXPECT_NE(s.at(0), s.at(1));
}

TEST(SeedStream, NextMatchesAt) {
  SeedStream s(123);
  const SeedStream pure(123);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(s.next(), pure.at(i));
}

TEST(SeedStream, ChildrenAreDistinct) {
  const SeedStream s(5);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(s.at(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SeedStream, DifferentRootsDifferentChildren) {
  const SeedStream a(1), b(2);
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (a.at(i) == b.at(i)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Shuffle, PreservesElements) {
  Xoshiro256 rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(std::span<int>(v), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------- stats --

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Xoshiro256 rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    (i % 3 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(3.0);
  a.add(5.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 4.0);
}

TEST(Wilson, ZeroTrialsIsVacuous) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(Wilson, ContainsTrueProportion) {
  // Property: across many repetitions, the 95% interval covers p at
  // least ~90% of the time (slack for the approximation).
  Xoshiro256 rng(47);
  const double p = 0.07;
  int covered = 0;
  constexpr int kReps = 400;
  for (int rep = 0; rep < kReps; ++rep) {
    std::size_t hits = 0;
    constexpr std::size_t kTrials = 500;
    for (std::size_t i = 0; i < kTrials; ++i) {
      if (rng.bernoulli(p)) ++hits;
    }
    const auto ci = wilson_interval(hits, kTrials);
    if (p >= ci.lo && p <= ci.hi) ++covered;
  }
  EXPECT_GT(covered, kReps * 9 / 10);
}

TEST(Wilson, DegenerateCountsStayInUnitInterval) {
  const auto all = wilson_interval(100, 100);
  EXPECT_GT(all.lo, 0.9);
  EXPECT_NEAR(all.hi, 1.0, 1e-9);
  const auto none = wilson_interval(0, 100);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.1);
}

TEST(ChiSquare, CriticalValuesMatchTables) {
  // Reference values from standard chi-square tables (alpha = 0.05).
  EXPECT_NEAR(chi_square_critical(1, 0.05), 3.841, 0.01);
  EXPECT_NEAR(chi_square_critical(2, 0.05), 5.991, 0.01);
  EXPECT_NEAR(chi_square_critical(5, 0.05), 11.070, 0.1);
  EXPECT_NEAR(chi_square_critical(10, 0.05), 18.307, 0.1);
  EXPECT_NEAR(chi_square_critical(30, 0.05), 43.773, 0.2);
  EXPECT_NEAR(chi_square_critical(1, 0.001), 10.828, 0.01);
  EXPECT_NEAR(chi_square_critical(2, 0.001), 13.816, 0.01);
}

TEST(ChiSquare, StatisticZeroForPerfectFit) {
  const std::vector<std::size_t> observed{25, 25, 25, 25};
  const std::vector<double> expected{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(chi_square_statistic(observed, expected), 0.0);
}

TEST(ChiSquare, ZeroProbBinWithObservationsThrows) {
  const std::vector<std::size_t> observed{5, 1};
  const std::vector<double> expected{1.0, 0.0};
  EXPECT_THROW((void)chi_square_statistic(observed, expected), LogicError);
}

TEST(Argmax, FindsMaximum) {
  const std::vector<double> xs{1.0, 5.0, 3.0, 5.0};
  EXPECT_EQ(argmax(xs), 1u);  // first max wins
}

TEST(Argmax, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW((void)argmax(xs), LogicError);
}

// ------------------------------------------------------------- strings --

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  foo  bar\tbaz\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int(" 5 "), 5);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc"));
  EXPECT_TRUE(is_identifier("_x9"));
  EXPECT_TRUE(is_identifier("crc_004"));
  EXPECT_TRUE(is_identifier("a.b"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("9abc"));
  EXPECT_FALSE(is_identifier("a b"));
  EXPECT_FALSE(is_identifier(".a"));
}

TEST(Strings, FormatNumber) {
  EXPECT_EQ(format_number(5.0), "5");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(2.5), "2.5");
  EXPECT_EQ(format_number(0.0), "0");
}

/// The printf bytes format_number has always produced: "%.0f" for an
/// integral value below 1e15 in magnitude, "%.<precision>g" otherwise.
std::string printf_number(double value, int precision) {
  char buffer[64];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
  }
  return buffer;
}

// format_number prints through std::to_chars; template text and
// reports depend on its bytes staying printf's.
TEST(Strings, FormatNumberMatchesPrintfBytes) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values{
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 1e-5, 1e-7, 0.9999995,
      999999.5, 1234567.0, 1e15 - 1.0, 1e15, -1e15, 1e15 + 2.0, 1e16,
      4.5e15 + 0.5, 1e300, limits::max(), limits::lowest(), limits::min(),
      limits::denorm_min(), limits::epsilon(), limits::infinity(),
      -limits::infinity(), limits::quiet_NaN()};
  util::Xoshiro256 rng(0x5EC5);
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(rng.uniform());
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(std::round(rng.uniform() * 1e6) / 1e3);
  }
  for (const double value : values) {
    for (const int precision : {3, 4, 6, 17}) {
      EXPECT_EQ(format_number(value, precision), printf_number(value, precision))
          << "precision " << precision;
    }
  }
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.10321), "10.321%");
  EXPECT_EQ(format_percent(0.0), "0.000%");
  EXPECT_EQ(format_percent(1.0), "100.000%");
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(1000000), "1,000,000");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

// --------------------------------------------------------------- table --

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.render(os, /*use_color=*/false);
  const std::string text = os.str();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("Value"), std::string::npos);
  // All lines between rules have equal width.
  std::size_t width = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, ArityMismatchThrows) {
  Table table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), ValidationError);
}

TEST(Table, ColorCodesOnlyWhenEnabled) {
  Table table({"X"});
  table.add_row(std::vector<Cell>{{"hot", CellColor::kRed}});
  std::ostringstream plain, colored;
  table.render(plain, false);
  table.render(colored, true);
  EXPECT_EQ(plain.str().find('\x1b'), std::string::npos);
  EXPECT_NE(colored.str().find("\x1b[31m"), std::string::npos);
}

TEST(Table, MarkdownOutput) {
  Table table({"H1", "H2"});
  table.add_row({"a", "b"});
  std::ostringstream os;
  table.render_markdown(os);
  EXPECT_NE(os.str().find("| H1 | H2 |"), std::string::npos);
  EXPECT_NE(os.str().find("| a | b |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table table({"A", "B"});
  table.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  table.render_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, SeparatorsAndAlignment) {
  Table table({"L", "R"});
  table.set_align(1, Align::kLeft);
  table.add_row({"a", "1"});
  table.add_separator();
  table.add_row({"b", "2"});
  std::ostringstream os;
  table.render(os, false);
  const std::string text = os.str();
  // Header rule + separator + top/bottom: 4 rule lines.
  std::size_t rules = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Table, SetAlignOutOfRangeThrows) {
  Table table({"A"});
  EXPECT_THROW(table.set_align(5, Align::kLeft), LogicError);
}

TEST(Log, LevelFilterWorks) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output check
  // needed beyond not throwing).
  EXPECT_NO_THROW(log_info("suppressed"));
  EXPECT_NO_THROW(log_error("emitted"));
  set_log_level(old_level);
}

TEST(Log, SinkReceivesLevelTimestampAndContext) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  struct Captured {
    LogLevel level;
    std::uint64_t mono_ns;
    std::uint64_t context;
    std::string message;
  };
  std::vector<Captured> captured;
  set_log_sink([&captured](const LogRecord& record) {
    captured.push_back({record.level, record.mono_ns, record.context,
                        std::string(record.message)});
  });

  const std::uint64_t before = monotonic_ns();
  log_info("plain line");
  {
    ScopedLogContext scope(42);
    log_warn("inside span ", 7);
  }
  log_info("after");
  set_log_sink({});  // restore stderr default
  set_log_level(old_level);

  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].level, LogLevel::kInfo);
  EXPECT_EQ(captured[0].context, 0u);
  EXPECT_EQ(captured[0].message, "plain line");
  EXPECT_GE(captured[0].mono_ns, before);
  EXPECT_EQ(captured[1].level, LogLevel::kWarn);
  EXPECT_EQ(captured[1].context, 42u);
  EXPECT_EQ(captured[1].message, "inside span 7");
  EXPECT_EQ(captured[2].context, 0u);
  EXPECT_GE(captured[2].mono_ns, captured[0].mono_ns);
}

TEST(Log, MonotonicClockNeverGoesBackwards) {
  std::uint64_t last = monotonic_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    ASSERT_GE(now, last);
    last = now;
  }
}

TEST(Log, ScopedContextNestsAndRestores) {
  EXPECT_EQ(log_context(), 0u);
  {
    ScopedLogContext outer(1);
    EXPECT_EQ(log_context(), 1u);
    {
      ScopedLogContext inner(2);
      EXPECT_EQ(log_context(), 2u);
    }
    EXPECT_EQ(log_context(), 1u);
  }
  EXPECT_EQ(log_context(), 0u);
}

// --------------------------------------------------------------- error --

TEST(Error, AssertThrowsLogicError) {
  EXPECT_THROW(ASCDG_ASSERT(false, "boom"), LogicError);
  EXPECT_NO_THROW(ASCDG_ASSERT(true, "fine"));
}

TEST(Error, ParseErrorCarriesLine) {
  const ParseError err("bad token", 17);
  EXPECT_EQ(err.line(), 17u);
  EXPECT_NE(std::string(err.what()).find("line 17"), std::string::npos);
}

// -------------------------------------------------------------- jsonl --

TEST(Jsonl, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape("日本"), "日本");  // UTF-8 passes through
}

TEST(Jsonl, BuildsFlatObject) {
  JsonObject obj;
  obj.add("name", "sampling").add("sims", 2000u).add("ok", true);
  EXPECT_EQ(obj.str(), R"({"name":"sampling","sims":2000,"ok":true})");
}

TEST(Jsonl, EmptyObject) {
  const JsonObject obj;
  EXPECT_TRUE(obj.empty());
  EXPECT_EQ(obj.str(), "{}");
}

TEST(Jsonl, SignedAndUnsignedIntegers) {
  JsonObject obj;
  obj.add("neg", -42).add("big", std::uint64_t{18446744073709551615ULL});
  EXPECT_EQ(obj.str(), R"({"neg":-42,"big":18446744073709551615})");
}

TEST(Jsonl, DoublesRoundTripAndNonFiniteBecomeNull) {
  JsonObject obj;
  obj.add("half", 0.5)
      .add("nan", std::nan(""))
      .add("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(obj.str(), R"({"half":0.5,"nan":null,"inf":null})");
}

TEST(Jsonl, MergeAppendsFields) {
  JsonObject a;
  a.add("event", "phase");
  JsonObject b;
  b.add("sims", 10);
  a.merge(b);
  EXPECT_EQ(a.str(), R"({"event":"phase","sims":10})");
  JsonObject empty;
  a.merge(empty);
  EXPECT_EQ(a.str(), R"({"event":"phase","sims":10})");
}

TEST(Jsonl, RawSplicesVerbatim) {
  JsonObject obj;
  obj.add_raw("buckets", "[1,2,3]");
  EXPECT_EQ(obj.str(), R"({"buckets":[1,2,3]})");
}

TEST(Jsonl, KeysAreEscapedToo) {
  JsonObject obj;
  obj.add("we\"ird", 1);
  EXPECT_EQ(obj.str(), R"({"we\"ird":1})");
}

// --------------------------------------------------------------- json --
//
// json_parse must read back everything JsonObject can emit — the
// session layer round-trips every manifest and artifact through this
// pair.

TEST(Json, RoundTripsEveryJsonObjectShape) {
  JsonObject obj;
  obj.add("name", "sampling")
      .add("quoted", "a\"b\\c\nd")
      .add("flag", true)
      .add("off", false)
      .add("sims", 2000u)
      .add("neg", -42)
      .add("big", std::uint64_t{9007199254740991ULL})  // 2^53 - 1
      .add("half", 0.5)
      .add("tiny", 1e-300)
      .add("nan", std::nan(""))
      .add_raw("buckets", "[1,2.5,-3]")
      .add_raw("nested", R"({"inner":{"deep":[true,null]}})");
  const JsonValue doc = json_parse(obj.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").as_string(), "sampling");
  EXPECT_EQ(doc.at("quoted").as_string(), "a\"b\\c\nd");
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_FALSE(doc.at("off").as_bool());
  EXPECT_EQ(doc.at("sims").as_uint64(), 2000u);
  EXPECT_EQ(doc.at("neg").as_int64(), -42);
  EXPECT_EQ(doc.at("big").as_uint64(), 9007199254740991ULL);
  EXPECT_EQ(doc.at("half").as_double(), 0.5);
  EXPECT_EQ(doc.at("tiny").as_double(), 1e-300);
  // Non-finite doubles render as null; the reader surfaces that kind.
  EXPECT_TRUE(doc.at("nan").is_null());
  const auto& buckets = doc.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].as_int64(), 1);
  EXPECT_EQ(buckets[1].as_double(), 2.5);
  EXPECT_EQ(buckets[2].as_int64(), -3);
  const auto& deep = doc.at("nested").at("inner").at("deep").as_array();
  ASSERT_EQ(deep.size(), 2u);
  EXPECT_TRUE(deep[0].as_bool());
  EXPECT_TRUE(deep[1].is_null());
}

TEST(Json, ShortestRoundTripDoublesAreBitIdentical) {
  // The artifact writers rely on shortest-round-trip formatting: the
  // parsed double must equal the original bit for bit.
  const double values[] = {0.1,     1.0 / 3.0, 6.02214076e23, -2.5e-8,
                           1e308,   4.9e-324,  123456789.123456789};
  for (const double v : values) {
    JsonObject obj;
    obj.add("v", v);
    EXPECT_EQ(json_parse(obj.str()).at("v").as_double(), v);
  }
}

TEST(Json, EmptyContainersAndOrderPreserved) {
  const JsonValue doc = json_parse(R"({"b":1,"a":{},"z":[]})");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "b");  // document order, not sorted
  EXPECT_EQ(members[1].first, "a");
  EXPECT_TRUE(members[1].second.as_object().empty());
  EXPECT_TRUE(members[2].second.as_array().empty());
}

TEST(Json, StringEscapesIncludingSurrogatePairs) {
  const JsonValue doc = json_parse(
      R"({"esc":"\" \\ \/ \b \f \n \r \t","bmp":"A\u00e9\u4e16",)"
      R"("pair":"\ud83d\ude00","raw":"日本"})");
  EXPECT_EQ(doc.at("esc").as_string(), "\" \\ / \b \f \n \r \t");
  EXPECT_EQ(doc.at("bmp").as_string(), "A\xc3\xa9\xe4\xb8\x96");  // A é 世
  EXPECT_EQ(doc.at("pair").as_string(), "\xf0\x9f\x98\x80");      // 😀
  EXPECT_EQ(doc.at("raw").as_string(), "日本");  // UTF-8 passes through
}

TEST(Json, NumberFormsAndExponents) {
  const JsonValue doc =
      json_parse(R"([0, -0, 12, -7, 3.25, 1e3, 1E-2, 2.5e+10, -0.125])");
  const auto& a = doc.as_array();
  ASSERT_EQ(a.size(), 9u);
  EXPECT_EQ(a[2].as_int64(), 12);
  EXPECT_EQ(a[3].as_int64(), -7);
  EXPECT_EQ(a[4].as_double(), 3.25);
  EXPECT_EQ(a[5].as_double(), 1000.0);
  EXPECT_EQ(a[6].as_double(), 0.01);
  EXPECT_EQ(a[7].as_double(), 2.5e10);
  EXPECT_EQ(a[8].as_double(), -0.125);
}

TEST(Json, ScalarDocumentsAndWhitespace) {
  EXPECT_TRUE(json_parse("  null \n").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_EQ(json_parse("\t42 ").as_int64(), 42);
  EXPECT_EQ(json_parse(R"("hi")").as_string(), "hi");
}

TEST(Json, AccessorKindMismatchThrows) {
  const JsonValue doc = json_parse(R"({"s":"x","n":1.5,"frac":0.5,"neg":-1})");
  EXPECT_THROW((void)doc.at("s").as_double(), Error);
  EXPECT_THROW((void)doc.at("n").as_string(), Error);
  EXPECT_THROW((void)doc.at("s").as_array(), Error);
  EXPECT_THROW((void)doc.as_bool(), Error);
  // Integer conversions reject inexact values.
  EXPECT_THROW((void)doc.at("frac").as_int64(), Error);
  EXPECT_THROW((void)doc.at("neg").as_uint64(), Error);
}

TEST(Json, FindAndAtLookup) {
  const JsonValue doc = json_parse(R"({"present":1})");
  ASSERT_NE(doc.find("present"), nullptr);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW((void)doc.at("absent"), NotFoundError);
  // find() on a non-object is a safe nullptr, not a throw.
  EXPECT_EQ(json_parse("3").find("x"), nullptr);
}

TEST(Json, ParseErrorsCarryLineNumbers) {
  const struct {
    const char* text;
    std::size_t line;
  } cases[] = {
      {"", 1},
      {"{\"a\":1,}", 1},
      {"{\"a\" 1}", 1},              // missing colon
      {"[1 2]", 1},                  // missing comma
      {"{\n\"a\": tru}", 2},         // bad literal on line 2
      {"{\n\n\"a\": \"unterminated", 3},
      {"{\"a\": 1} trailing", 1},    // trailing garbage
      {"[1, 01]", 1},                // leading zero
      {"\"bad \\q escape\"", 1},
      {"\"lone \\ud800 surrogate\"", 1},
      {"nan", 1},                    // not a JSON literal
  };
  for (const auto& c : cases) {
    try {
      (void)json_parse(c.text);
      FAIL() << "expected ParseError for: " << c.text;
    } catch (const ParseError& err) {
      EXPECT_EQ(err.line(), c.line) << c.text;
    }
  }
}

TEST(Json, DeepNestingRoundTrips) {
  std::string text;
  for (int i = 0; i < 64; ++i) text += R"({"k":)";
  text += "1";
  for (int i = 0; i < 64; ++i) text += "}";
  const JsonValue doc = json_parse(text);
  const JsonValue* v = &doc;
  for (int i = 0; i < 64; ++i) v = &v->at("k");
  EXPECT_EQ(v->as_int64(), 1);
}

}  // namespace
}  // namespace ascdg::util
