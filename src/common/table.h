// Table renderer for the bench harnesses and reports: prints the same
// rows/series the paper's tables and figures report, as aligned ASCII or as
// an HTML <table>.
#pragma once

#include <string>
#include <vector>

namespace vodx {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header separator.
  std::string render() const;

  /// Convenience: render straight to stdout.
  void print() const;

  /// Renders as an HTML <table> (header row of <th>, one <tr> per row),
  /// every cell HTML-escaped; one line per row.
  std::string html() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Opens an HTML report page: <head> with the shared table stylesheet, then
/// `title` (inserted unescaped) as both the page title and the <h1>. Close
/// with "</body></html>".
std::string html_page_start(const std::string& title);

}  // namespace vodx
