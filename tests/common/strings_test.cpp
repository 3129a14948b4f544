#include "common/strings.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx {
namespace {

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
