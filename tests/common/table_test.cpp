#include "common/table.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "testing/lines.h"

namespace vodx {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, HeaderSeparatorPresent) {
  Table t({"a"});
  t.add_row({"b"});
  const std::string out = t.render();
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(Table, EmptyTableStillRendersHeader) {
  Table t({"col1", "col2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("col1"), std::string::npos);
}

TEST(Table, HtmlEscapesEveryCell) {
  Table t({"a&b", "c"});
  t.add_row({"<x>", "say \"hi\""});
  EXPECT_EQ(t.html(),
            "<table><tr><th>a&amp;b</th><th>c</th></tr>\n"
            "<tr><td>&lt;x&gt;</td><td>say &quot;hi&quot;</td></tr>\n"
            "</table>\n");
}

TEST(Table, CsvIsHeaderThenRowsUnpadded) {
  Table t({"key"});
  t.add_columns({"bin", "value"}, Table::Kind::kNumber);
  t.add_row({"longer", "0", "1.5"});
  t.add_row({"x", "12", "3"});
  EXPECT_EQ(t.csv(), "key,bin,value\nlonger,0,1.5\nx,12,3\n");
  EXPECT_EQ(Table({"a", "b"}).csv(), "a,b\n");
}

TEST(Table, JsonlQuotesTextAndWritesNumbersVerbatim) {
  Table t({"key"});
  t.add_columns({"bin", "t_s"}, Table::Kind::kNumber);
  t.add_row({"0", "3", "0.500"});
  EXPECT_EQ(t.jsonl(), "{\"key\":\"0\",\"bin\":3,\"t_s\":0.500}\n");
  EXPECT_EQ(t.jsonl("tower"),
            "{\"type\":\"tower\",\"key\":\"0\",\"bin\":3,\"t_s\":0.500}\n");
  EXPECT_EQ(Table({"a"}).jsonl(), "");
}

TEST(Table, JsonlRoundTripsEveryControlByte) {
  std::string hostile = "quote\" backslash\\ ";
  for (char c = 0x01; c < 0x20; ++c) hostile += c;
  Table t({"name", "note"});
  t.add_columns({"count", "ratio"}, Table::Kind::kNumber);
  t.add_row({hostile, "plain", "42", "-0.125"});
  t.add_row({"second", hostile + hostile, "0", "1e-07"});

  const std::vector<std::string> lines = split_lines(t.jsonl());
  ASSERT_EQ(lines.size(), 2u);
  const Json first = parse_json(lines[0]);
  EXPECT_EQ(first.str_or("name", ""), hostile);
  EXPECT_EQ(first.str_or("note", ""), "plain");
  ASSERT_NE(first.find("count"), nullptr);
  EXPECT_EQ(first.find("count")->type, Json::Type::kNumber);
  EXPECT_EQ(first.num_or("count", 0), 42);
  EXPECT_EQ(first.num_or("ratio", 0), -0.125);
  const Json second = parse_json(lines[1]);
  EXPECT_EQ(second.str_or("name", ""), "second");
  EXPECT_EQ(second.str_or("note", ""), hostile + hostile);
  ASSERT_NE(second.find("ratio"), nullptr);
  EXPECT_EQ(second.find("ratio")->type, Json::Type::kNumber);
  EXPECT_EQ(second.num_or("ratio", 0), 1e-07);
}

TEST(TableDeathTest, RowArityMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "arity");
  t.add_columns({"c"}, Table::Kind::kNumber);
  EXPECT_DEATH(t.add_row({"1", "2"}), "arity");
}

TEST(TableDeathTest, ColumnsAfterTheFirstRowAbort) {
  Table t({"a"});
  t.add_row({"1"});
  EXPECT_DEATH(t.add_columns({"b"}), "after the first row");
}

}  // namespace
}  // namespace vodx
