#include "common/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "testing/lines.h"

namespace vodx {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row("x", "1");
  t.add_row("longer", "22");
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, HeaderSeparatorPresent) {
  Table t({"a"});
  t.add_row("b");
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
  t.add_row("<x>", "say \"hi\"");
  EXPECT_EQ(t.html(),
            "<table><tr><th>a&amp;b</th><th>c</th></tr>\n"
            "<tr><td>&lt;x&gt;</td><td>say &quot;hi&quot;</td></tr>\n"
            "</table>\n");
}

TEST(Table, CsvIsHeaderThenRowsUnpadded) {
  Table t({"key"});
  t.add_column("bin", Format::integer());
  t.add_column("value", Format::general(6));
  t.add_row("longer", 0, 1.5);
  t.add_row("x", 12, 3.0);
  EXPECT_EQ(t.csv(), "key,bin,value\nlonger,0,1.5\nx,12,3\n");
  EXPECT_EQ(Table({"a", "b"}).csv(), "a,b\n");
}

TEST(Table, JsonlQuotesTextAndWritesNumbersVerbatim) {
  Table t({"key"});
  t.add_column("bin", Format::integer());
  t.add_column("t_s", Format::fixed(3));
  t.add_row("0", 3, 0.5);
  EXPECT_EQ(t.jsonl(), "{\"key\":\"0\",\"bin\":3,\"t_s\":0.500}\n");
  EXPECT_EQ(t.jsonl("tower"),
            "{\"type\":\"tower\",\"key\":\"0\",\"bin\":3,\"t_s\":0.500}\n");
  EXPECT_EQ(Table({"a"}).jsonl(), "");
}

TEST(Table, JsonlRoundTripsEveryControlByte) {
  std::string hostile = "quote\" backslash\\ ";
  for (char c = 0x01; c < 0x20; ++c) hostile += c;
  Table t({"name", "note"});
  t.add_column("count", Format::integer());
  t.add_column("ratio", Format::general(6));
  t.add_row(hostile, "plain", 42, -0.125);
  t.add_row("second", hostile + hostile, 0, 1e-07);

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
  EXPECT_DEATH(t.add_row("only-one"), "arity");
  t.add_column("c", Format::integer());
  EXPECT_DEATH(t.add_row("1", "2"), "arity");
}

TEST(TableDeathTest, ColumnsAfterTheFirstRowAbort) {
  Table t({"a"});
  t.add_row("1");
  EXPECT_DEATH(t.add_column("b"), "after the first row");
}

TEST(TableDeathTest, ValueOfTheWrongKindAborts) {
  Table t({"name"});
  t.add_column("count", Format::integer());
  EXPECT_DEATH(t.add(1.5), "number added to a text column");
  EXPECT_DEATH(t.add("x").add("y"), "text added to a number column");
}

TEST(Table, ColumnsFormatEachValueOnce) {
  Table t({"name"});
  t.add_column("n", Format::integer());
  t.add_column("fix", Format::fixed(2));
  t.add_column("gen", Format::general(6));
  t.add_column("pct", Format::fixed(1, "%"));
  t.add_row("a", std::uint64_t{18446744073709551615u}, 2.0 / 3, 1.0 / 3,
             12.25);
  t.add_row("b", -7, -0.0, 1e-7, std::nullopt);
  EXPECT_EQ(t.csv(),
            "name,n,fix,gen,pct\n"
            "a,18446744073709551615,0.67,0.333333,12.2%\n"
            "b,-7,-0.00,1e-07,-\n");
  EXPECT_EQ(t.jsonl(),
            "{\"name\":\"a\",\"n\":18446744073709551615,\"fix\":0.67,"
            "\"gen\":0.333333,\"pct\":12.2}\n"
            "{\"name\":\"b\",\"n\":-7,\"fix\":-0.00,\"gen\":1e-07,"
            "\"pct\":null}\n");
  EXPECT_EQ(t.html(),
            "<table><tr><th>name</th><th>n</th><th>fix</th><th>gen</th>"
            "<th>pct</th></tr>\n"
            "<tr><td>a</td><td>18446744073709551615</td><td>0.67</td>"
            "<td>0.333333</td><td>12.2%</td></tr>\n"
            "<tr><td>b</td><td>-7</td><td>-0.00</td><td>1e-07</td>"
            "<td>-</td></tr>\n</table>\n");
}

TEST(Table, FixedWidthColumnsWriteWiderValuesWhole) {
  // printf's "%5s %-4s %6.2f": pad what is shorter, never cut what is
  // longer, and no trailing blanks after a left-aligned last column.
  Table t;
  t.layout(1, Table::Header::kPlain);
  t.add_column("id", Format::integer(), Table::Align::kRight, 5);
  t.add_column("svc", Format{}, Table::Align::kLeft, 4);
  t.add_column("mbps", Format::fixed(2), Table::Align::kRight, 6);
  t.add_column("note");
  t.add_row(7, "H1", 1.5, "ok");
  t.add_row(1234567, "LONGNAME", 12345.678, "wide");
  EXPECT_EQ(t.render(),
            "   id svc    mbps note\n"
            "    7 H1     1.50 ok\n"
            "1234567 LONGNAME 12345.68 wide\n");
}

TEST(Table, NonFiniteNumbersAreNullInJsonl) {
  Table t;
  t.add_column("fix", Format::fixed(3));
  t.add_column("gen", Format::general(6));
  t.add_row(std::nan(""), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(t.jsonl(), "{\"fix\":null,\"gen\":null}\n");
  EXPECT_EQ(t.csv(), "fix,gen\nnan,-inf\n");
}

}  // namespace
}  // namespace vodx
