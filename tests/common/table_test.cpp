#include "common/table.h"

#include <gtest/gtest.h>

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

TEST(TableDeathTest, RowArityMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "arity");
}

}  // namespace
}  // namespace vodx
