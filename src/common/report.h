// One report model for every text/HTML report pair: an ordered list of
// blocks (lines, titled lists of lines, optionally titled Table sections)
// that renders once as terminal text and once as an HTML page, so the two
// formats of a report cannot drift apart. The pop and chaos text reports
// are Reports of fixed-width tables.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"

namespace vodx {

class Report {
 public:
  /// A line of prose. Text: the line; HTML: a <p> (an empty line is a blank
  /// line in text and nothing in HTML).
  Report& line(std::string text);

  /// A titled list of lines (QUARANTINED / WARNING rows). Text: a blank
  /// line, "== title ==", then one line each; HTML: <h2> and a <ul>.
  Report& list(std::string title, std::vector<std::string> lines);

  /// A table. Text: with a title, a blank line and "== title ==" first;
  /// HTML: an <h2> when titled, then the table.
  Report& section(std::string title, Table table);

  /// Appends `other`'s blocks after this report's.
  Report& append(Report other);

  std::string text() const;

  /// A whole page: html_page_start(title), every block with headings and
  /// cells HTML-escaped, then the closing tags.
  std::string html(const std::string& title) const;

 private:
  struct Block {
    enum class Kind { kLine, kList, kSection };
    Kind kind;
    std::string title;               ///< kList / kSection heading
    std::vector<std::string> lines;  ///< kLine: one; kList: every row
    Table table;                     ///< kSection
  };
  std::vector<Block> blocks_;
};

/// Opens an HTML report page: <head> with the shared stylesheet (tables and
/// the timeline sparklines), then `title` (inserted unescaped) as both the
/// page title and the <h1>. Close with "</body></html>".
std::string html_page_start(const std::string& title);

}  // namespace vodx
