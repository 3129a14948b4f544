#include "common/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "testing/lines.h"

namespace vodx {
namespace {

std::string printf_double(const char* conversion, int precision,
                          double value) {
  char buffer[512];
  const std::string fmt = std::string("%.*") + conversion;
  std::snprintf(buffer, sizeof buffer, fmt.c_str(), precision, value);
  return buffer;
}

TEST(FormatDouble, MatchesPrintfGeneralAndFixed) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      0.125,
      2.5,
      1e-7,
      123456.5,
      999999.5,
      1e21,
      1e300,
      -1e-300,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    // Mantissas over every magnitude a report can print, and exact
    // round-half cases at 3 and 6 digits.
    const double magnitude = std::pow(10.0, rng.uniform(-12, 12));
    values.push_back(rng.uniform(-1, 1) * magnitude);
    values.push_back(std::round(rng.uniform(0, 1e6)) / 1e3 + 0.0005);
    values.push_back(std::round(rng.uniform(0, 2e6)) / 2);
  }
  for (const double v : values) {
    for (const int precision : {0, 1, 3, 4, 6, 10, 17}) {
      ASSERT_EQ(format_double(v, std::chars_format::general, precision),
                printf_double("g", precision, v))
          << "value " << v << " precision " << precision;
      ASSERT_EQ(format_double(v, std::chars_format::fixed, precision),
                printf_double("f", precision, v))
          << "value " << v << " precision " << precision;
    }
  }
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitLines, HandlesUnixAndDos) {
  EXPECT_EQ(split_lines("a\nb\nc"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_lines("a\r\nb\r\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_lines("single"), (std::vector<std::string>{"single"}));
  EXPECT_TRUE(split_lines("").empty());
  std::string_view text = "a\r\nb";
  EXPECT_EQ(next_line(text), "a");
  EXPECT_EQ(text, "b");
  EXPECT_EQ(next_line(text), "b");
  EXPECT_TRUE(text.empty());
}

TEST(SplitLines, TrailingNewlineProducesNoEmptyLine) {
  EXPECT_EQ(split_lines("a\n"), (std::vector<std::string>{"a"}));
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("#EXTM3U", "#EXT"));
  EXPECT_FALSE(starts_with("EXT", "#EXT"));
  EXPECT_TRUE(ends_with("seg0.ts", ".ts"));
  EXPECT_FALSE(ends_with(".ts", "seg.ts"));
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("1234567890123"), 1234567890123LL);
  EXPECT_THROW(parse_int("12x"), ParseError);
  EXPECT_THROW(parse_int(""), ParseError);
  EXPECT_THROW(parse_int("4.5"), ParseError);
}

TEST(ParseDouble, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" 2 "), 2.0);
  EXPECT_DOUBLE_EQ(parse_double("1e3"), 1000.0);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.239), "1.24");
  EXPECT_EQ(format("empty"), "empty");
}

}  // namespace
}  // namespace vodx
