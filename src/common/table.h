// One row model for every tabular output: a header, a kind per column and
// rows of already-formatted cells. The same table renders as aligned ASCII
// (the paper's tables in the bench harnesses), an HTML <table>, CSV or
// JSONL, so sibling exports cannot drift apart.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace vodx {

class Table {
 public:
  /// How jsonl() writes a column's cells: text quoted and escaped, numbers
  /// verbatim (a number cell must already be a JSON number).
  enum class Kind { kText, kNumber };

  Table() = default;
  /// Every column text.
  explicit Table(std::vector<std::string> header);

  /// Appends columns of one kind; only before the first row.
  void add_columns(std::vector<std::string> names, Kind kind = Kind::kText);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header separator.
  std::string render() const;

  /// Convenience: render straight to stdout.
  void print() const;

  /// Renders as an HTML <table> (header row of <th>, one <tr> per row),
  /// every cell HTML-escaped; one line per row.
  std::string html() const;

  /// Header line, then one line per row; cells comma-joined as they are
  /// (no padding, no quoting).
  std::string csv() const;

  /// One JSON object per row, keyed by the header in column order. A
  /// non-empty `type` leads every object as "type":"<type>".
  std::string jsonl(std::string_view type = {}) const;

 private:
  std::vector<std::string> header_;
  std::vector<Kind> kinds_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vodx
