#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/json.h"
#include "util/json_parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace wmatch {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoolMatchesProbabilityRoughly) {
  Rng rng(5);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  double frac = static_cast<double>(hits) / trials;
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
  EXPECT_NE(v, original);  // overwhelmingly likely
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  b.split();
  // Parent streams stay in sync after split.
  EXPECT_EQ(a.next(), b.next());
  // Child differs from parent.
  Rng c(42);
  EXPECT_NE(child.next(), c.next());
}

// Same values and same generator state afterwards as next_below, over
// small bounds, every power of two, and bounds just past 2^32 and just
// below 2^64 (where the rejection threshold is non-trivial).
TEST(Rng, BoundedSamplerMatchesNextBelow) {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 200; ++b) bounds.push_back(b);
  for (int e = 0; e < 64; ++e) bounds.push_back(std::uint64_t{1} << e);
  bounds.push_back((std::uint64_t{1} << 33) + 5);
  bounds.push_back(~std::uint64_t{0} - 3);  // 2^64 - 4
  for (std::uint64_t bound : bounds) {
    const BoundedSampler sample(bound);
    Rng fast(bound), slow(bound);
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t want = slow.next_below(bound);
      const std::uint64_t got = sample(fast);
      if (got != want) {
        FAIL() << "bound " << bound << " draw " << i << ": " << got
               << " != " << want;
      }
    }
    ASSERT_EQ(fast.next(), slow.next()) << "bound " << bound;
  }
}

TEST(Stats, AccumulatorMeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, SingleValueHasZeroCi) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci95_halfwidth(), 0.0);
}

TEST(Stats, EmptyAccumulatorThrows) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), std::invalid_argument);
  EXPECT_THROW(acc.min(), std::invalid_argument);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"n", "ratio"});
  t.add_row({"100", Table::fmt(0.51234, 3)});
  t.add_row({"200", Table::fmt(0.5, 3)});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("ratio"), std::string::npos);
  EXPECT_NE(s.find("0.512"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

// Regression: algorithm / generator names containing quotes,
// backslashes, or control characters must escape to valid JSON.
TEST(Json, WriteJsonStringEscapesQuotesBackslashesAndControls) {
  std::ostringstream os;
  util::write_json_string(os, "id \"quoted\"");
  util::write_json_string(os, "quote \" backslash \\");
  util::write_json_string(os, "newline \n tab \t bell \x01");
  const std::string s = os.str();

  EXPECT_NE(s.find("\"id \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(s.find("quote \\\" backslash \\\\"), std::string::npos);
  EXPECT_NE(s.find("newline \\n tab \\t bell \\u0001"), std::string::npos);
  // No raw control characters may survive.
  ASSERT_FALSE(s.empty());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(s[i]), 0x20u) << "index " << i;
  }
}

// ---- util/json_parse.h (ISSUE 5: JSONL job files) ----

TEST(JsonParse, ParsesScalarsArraysAndNestedObjects) {
  const util::JsonValue v = util::parse_json(
      R"({"name":"a b","n":42,"x":-1.5e2,"ok":true,"none":null,)"
      R"("list":[1,2,3],"nested":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "a b");
  EXPECT_EQ(v.find("n")->as_number(), 42.0);
  EXPECT_EQ(v.find("x")->as_number(), -150.0);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_TRUE(v.find("none")->is_null());
  ASSERT_EQ(v.find("list")->as_array().size(), 3u);
  EXPECT_EQ(v.find("list")->as_array()[2].as_number(), 3.0);
  EXPECT_EQ(v.find("nested")->find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, DecodesStringEscapes) {
  const util::JsonValue v =
      util::parse_json(R"("quote \" slash \\ nl \n tab \t u A")");
  EXPECT_EQ(v.as_string(), "quote \" slash \\ nl \n tab \t u A");
  // ASCII \u escapes decode; non-ASCII ones are rejected rather than
  // truncated to a byte (raw UTF-8 bytes in strings pass through).
  EXPECT_EQ(util::parse_json(R"("\u0041z")").as_string(), "Az");
  EXPECT_THROW(util::parse_json(R"("snow \u2603 man")"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_json(R"("caf\u00e9")"), std::invalid_argument);
  EXPECT_EQ(util::parse_json("\"caf\xc3\xa9\"").as_string(), "caf\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(util::parse_json(""), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_json("{'a':1}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":01}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("nul"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":1,\"a\":2}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("\"unterminated"), std::invalid_argument);
}

TEST(JsonParse, TypeMismatchThrowsWithTypeNames) {
  const util::JsonValue v = util::parse_json("{\"a\":1}");
  try {
    v.find("a")->as_string();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
  }
}

}  // namespace
}  // namespace wmatch
