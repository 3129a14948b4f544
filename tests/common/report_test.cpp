// The report model: one block list rendered as terminal text and as an
// HTML page with every heading, line and cell escaped.
#include "common/report.h"

#include <gtest/gtest.h>

#include <string>

namespace vodx {
namespace {

Report sample() {
  Table titled({"key", "n"});
  titled.add_row("a<b", "1");
  Table untitled({"x"});
  untitled.add_row("y&z");
  Report report;
  report.line("summary \"line\"")
      .list("warnings", {"WARNING one", "WARNING <two>"})
      .section("by <key>", std::move(titled))
      .line("")
      .section("", std::move(untitled));
  return report;
}

TEST(Report, TextLaysOutLinesListsAndSections) {
  EXPECT_EQ(sample().text(),
            "summary \"line\"\n"
            "\n== warnings ==\n"
            "WARNING one\n"
            "WARNING <two>\n"
            "\n== by <key> ==\n"
            "key  n\n"
            "------\n"
            "a<b  1\n"
            "\n"
            "x\n"
            "---\n"
            "y&z\n");
}

TEST(Report, HtmlIsOnePageWithEscapedHeadingsAndCells) {
  const std::string html = sample().html("t & <u>");
  EXPECT_EQ(html.rfind(html_page_start("t &amp; &lt;u&gt;"), 0), 0u);
  const std::string body = html.substr(html_page_start("t &amp; &lt;u&gt;").size());
  EXPECT_EQ(body,
            "<p>summary &quot;line&quot;</p>\n"
            "<h2>warnings</h2>\n<ul>\n"
            "<li>WARNING one</li>\n"
            "<li>WARNING &lt;two&gt;</li>\n"
            "</ul>\n"
            "<h2>by &lt;key&gt;</h2>\n"
            "<table><tr><th>key</th><th>n</th></tr>\n"
            "<tr><td>a&lt;b</td><td>1</td></tr>\n"
            "</table>\n"
            "<table><tr><th>x</th></tr>\n"
            "<tr><td>y&amp;z</td></tr>\n"
            "</table>\n"
            "</body></html>\n");
  EXPECT_EQ(html.find("<!doctype"), html.rfind("<!doctype"));
}

TEST(Report, AppendKeepsBothBlockListsInOrder) {
  Report a;
  a.line("first");
  Report b;
  b.line("second").list("l", {"row"});
  a.append(b);
  EXPECT_EQ(a.text(), "first\nsecond\n\n== l ==\nrow\n");
  EXPECT_EQ(a.text(), Report().line("first").append(b).text());
}

}  // namespace
}  // namespace vodx
