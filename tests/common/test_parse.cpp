// parse_unsigned (src/common/parse.h): the one strict unsigned parser
// behind every integer CLI flag and BINOPT_* knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/parse.h"
#include "common/rng.h"

namespace binopt {
namespace {

TEST(ParseUnsigned, AcceptsPlainDigits) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("7"), 7u);
  EXPECT_EQ(parse_unsigned("0042"), 42u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsSignsAndWhitespace) {
  EXPECT_EQ(parse_unsigned("-5"), std::nullopt);
  EXPECT_EQ(parse_unsigned("-0"), std::nullopt);
  EXPECT_EQ(parse_unsigned("+5"), std::nullopt);
  EXPECT_EQ(parse_unsigned(" 5"), std::nullopt);
  EXPECT_EQ(parse_unsigned("5 "), std::nullopt);
}

TEST(ParseUnsigned, RejectsEmptyAndTrailingJunk) {
  EXPECT_EQ(parse_unsigned(""), std::nullopt);
  EXPECT_EQ(parse_unsigned("abc"), std::nullopt);
  EXPECT_EQ(parse_unsigned("12abc"), std::nullopt);
  EXPECT_EQ(parse_unsigned("2ms"), std::nullopt);
  EXPECT_EQ(parse_unsigned("0x10"), std::nullopt);
  EXPECT_EQ(parse_unsigned("1e3"), std::nullopt);
  EXPECT_EQ(parse_unsigned("1.0"), std::nullopt);
  EXPECT_EQ(parse_unsigned("nan"), std::nullopt);
  EXPECT_EQ(parse_unsigned(std::string("5\0", 2)), std::nullopt);
}

TEST(ParseUnsigned, RejectsOverflow) {
  EXPECT_EQ(parse_unsigned("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_unsigned("99999999999999999999999"), std::nullopt);
}

TEST(ParseUnsigned, EnforcesInclusiveBounds) {
  EXPECT_EQ(parse_unsigned("1", 1, 1024), 1u);
  EXPECT_EQ(parse_unsigned("1024", 1, 1024), 1024u);
  EXPECT_EQ(parse_unsigned("0", 1, 1024), std::nullopt);
  EXPECT_EQ(parse_unsigned("1025", 1, 1024), std::nullopt);
}

// Generated values round-trip through their decimal text, with and without
// leading zeros; case i uses seed kSeed + i, printed on failure.
TEST(ParseUnsigned, GeneratedValuesRoundTrip) {
  constexpr std::uint64_t kSeed = 0x5eedca11ull;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    SplitMix64 rng(kSeed + i);
    const std::uint64_t shift = rng.below(64);
    const std::uint64_t value = rng() >> shift;
    const std::string text =
        std::string(rng.below(3), '0') + std::to_string(value);
    ASSERT_EQ(parse_unsigned(text), value)
        << "seed " << kSeed + i << ", text '" << text << "'";
    const std::uint64_t lo = value == 0 ? 0 : value - rng.below(2);
    const std::uint64_t hi =
        value == std::numeric_limits<std::uint64_t>::max()
            ? value
            : value + rng.below(2);
    ASSERT_EQ(parse_unsigned(text, lo, hi), value)
        << "seed " << kSeed + i << ", bounds [" << lo << ", " << hi << "]";
    if (value != 0) {
      ASSERT_EQ(parse_unsigned(text, value + 0, value - 1), std::nullopt)
          << "seed " << kSeed + i << ": empty range must reject";
    }
  }
}

}  // namespace
}  // namespace binopt
