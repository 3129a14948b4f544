// The one JSON writer: comma and colon placement at every nesting level,
// string escaping, canonical numbers, and documents the reader parses back.
#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace vodx {
namespace {

TEST(JsonWriter, NestsObjectsAndArraysWithCommasBetweenMembers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .key("a").raw("1")
      .key("list").begin_array()
      .raw("1").begin_object().end_object().begin_array().end_array()
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
    w.begin_object().key("i").raw(std::to_string(i)).end_object();
    out += '\n';
  }
  EXPECT_EQ(out, "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
}

TEST(JsonWriter, OnePerLineArrayPutsEachElementOnItsOwnLine) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("events").begin_array(/*one_per_line=*/true);
  w.begin_object().key("n").raw("1").end_object();
  w.begin_array().raw("2").raw("3").end_array();  // nested arrays stay inline
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

TEST(JsonWriter, RawCopiesPreformattedValuesVerbatim) {
  std::string out;
  JsonWriter w(out);
  w.begin_array().raw("1.500").raw("-0.000").raw(R"({"nested":[1]})")
      .end_array();
  EXPECT_EQ(out, R"([1.500,-0.000,{"nested":[1]}])");
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
