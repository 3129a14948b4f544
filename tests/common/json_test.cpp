// The one JSON writer: comma and colon placement at every nesting level,
// string escaping, canonical numbers, and documents the reader parses back.
#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace vodx {
namespace {

TEST(JsonWriter, NestsObjectsAndArraysWithCommasBetweenMembers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .key("a").integer(1)
      .key("list").begin_array()
      .integer(1).begin_object().end_object().begin_array().end_array()
      .string("x").begin_object().key("k").boolean(false).end_object()
      .end_array()
      .key("empty").begin_object().end_object()
      .key("t").boolean(true)
      .end_object();
  EXPECT_EQ(out,
            R"({"a":1,"list":[1,{},[],"x",{"k":false}],"empty":{},"t":true})");
  EXPECT_EQ(parse_json(out).find("list")->array.size(), 5u);
}

TEST(JsonWriter, TopLevelValuesAreRecordsWithoutSeparators) {
  std::string out;
  JsonWriter w(out);
  for (int i = 0; i < 3; ++i) {
    w.begin_object().key("i").integer(i).end_object();
    out += '\n';
  }
  EXPECT_EQ(out, "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
}

TEST(JsonWriter, OnePerLineArrayPutsEachElementOnItsOwnLine) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("events").begin_array(/*one_per_line=*/true);
  w.begin_object().key("n").integer(1).end_object();
  w.begin_array().integer(2).integer(3).end_array();  // nested arrays stay inline
  w.end_array().key("after").string("x").end_object();
  EXPECT_EQ(out, "{\"events\":[\n{\"n\":1},\n[2,3]\n],\"after\":\"x\"}");
  EXPECT_EQ(parse_json(out).find("events")->array.size(), 2u);

  std::string empty;
  JsonWriter(empty).begin_array(true).end_array();
  EXPECT_EQ(empty, "[\n]");
}

TEST(JsonWriter, EscapesEveryControlByteInKeysAndStrings) {
  std::string raw = "q\"b\\n\nr\rt\t";
  for (char c = 1; c < 0x20; ++c) raw += c;
  std::string out;
  JsonWriter w(out);
  w.begin_object().key(raw).string(raw).end_object();
  EXPECT_NE(out.find(R"(q\"b\\n\nr\rt\t\u0001)"), std::string::npos) << out;
  EXPECT_NE(out.find(R"(\u0008\t\n\u000b\u000c\r\u000e)"), std::string::npos)
      << out;
  EXPECT_NE(out.find(R"(\u001f)"), std::string::npos) << out;
  for (char c : out) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  const Json parsed = parse_json(out);
  ASSERT_NE(parsed.find(raw), nullptr);
  EXPECT_EQ(parsed.find(raw)->string, raw);
}

TEST(JsonWriter, TypedValuesWriteIntegersAndFixedDecimals) {
  std::string out;
  JsonWriter w(out);
  w.begin_array().fixed(1.5, 3).fixed(-0.0, 3).integer(-42);
  w.integer(std::numeric_limits<std::uint64_t>::max()).end_array();
  EXPECT_EQ(out, "[1.500,-0.000,-42,18446744073709551615]");
}

TEST(JsonWriter, FixedWritesNonFiniteAsNull) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("nan").fixed(std::nan(""), 3);
  w.key("inf").fixed(std::numeric_limits<double>::infinity(), 0);
  w.key("-inf").fixed(-std::numeric_limits<double>::infinity(), 2);
  w.end_object();
  EXPECT_EQ(out, R"({"nan":null,"inf":null,"-inf":null})");
  EXPECT_EQ(parse_json(out).find("nan")->type, Json::Type::kNull);
}

TEST(JsonWriter, FixedMatchesPrintfOverSeededValues) {
  // Binary-exact ties (printf rounds them to even), negative zero and
  // values far past 2^53, then seeded values of every magnitude.
  std::vector<double> values = {0.5,   1.5,    2.5,     0.125, 0.375,
                                -0.5,  -2.5,   -0.0,    0.0,   1e15 + 0.5,
                                1e21,  -1e22,  1.7e308, 5e-324, 0.045};
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-12, 24);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
  }
  for (const double v : values) {
    for (int precision = 0; precision <= 4; ++precision) {
      char expected[512];
      std::snprintf(expected, sizeof expected, "%.*f", precision, v);
      std::string out;
      JsonWriter(out).fixed(v, precision);
      ASSERT_EQ(out, expected) << "precision " << precision;
    }
  }
}

TEST(JsonNumber, IntegersFractionsAndNonFinite) {
  EXPECT_EQ(json_number(0), "0");
  EXPECT_EQ(json_number(42), "42");
  EXPECT_EQ(json_number(-7), "-7");
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(999999999999999), "999999999999999");
  EXPECT_EQ(json_number(1e15), "1e+15");  // past the integer range: %.9g
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(1.0 / 3), "0.333333333");
  EXPECT_EQ(json_number(-2.5e-7), "-2.5e-07");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");

  std::string out;
  JsonWriter(out).begin_array().number(3).number(0.5).number(NAN).end_array();
  EXPECT_EQ(out, "[3,0.5,null]");
}

}  // namespace
}  // namespace vodx
