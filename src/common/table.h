// One row model for every tabular output: typed columns and rows of values.
// A column has a name and a Format (text, integer, fixed or general), and
// for the text layout an alignment and a width. A value is formatted once,
// by its column, when it is added: integers by to_chars, reals by
// append_double (printf's bytes without printf), all into one buffer the
// table owns. The same table renders as aligned text (the paper's tables in
// the bench harnesses, the fixed-width pop and chaos reports), an HTML
// <table>, CSV or JSONL, so sibling exports cannot drift apart.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vodx {

/// How a column turns its values into text.
struct Format {
  enum class Type : std::uint8_t { kText, kInteger, kFixed, kGeneral };
  Type type = Type::kText;
  /// kFixed: decimals (printf "%.<digits>f"); kGeneral: significant digits
  /// ("%.<digits>g").
  int digits = 0;
  /// A unit after every number in text, CSV and HTML ("%", " s"); JSONL
  /// writes the bare number.
  const char* suffix = "";

  static constexpr Format integer() { return {Type::kInteger}; }
  static constexpr Format fixed(int decimals, const char* suffix = "") {
    return {Type::kFixed, decimals, suffix};
  }
  static constexpr Format general(int digits) {
    return {Type::kGeneral, digits};
  }
};

/// Appends `value` as a number column of `format` writes it, without the
/// suffix (an integer column drops the fraction).
void append_number(std::string& out, const Format& format, double value);

class Table {
 public:
  enum class Align : std::uint8_t { kLeft, kRight };
  /// What render() writes above the rows: the header and a line of dashes
  /// (the default), the header alone, or nothing.
  enum class Header : std::uint8_t { kRuled, kPlain, kNone };

  Table() = default;
  /// Every column text.
  explicit Table(std::vector<std::string> header);

  /// Appends a column; only before the first value. `align` and `width`
  /// shape render() alone. The width is printf's field width: a shorter
  /// value is padded, a longer one written whole. Width 0 fits the column
  /// to its widest value.
  Table& add_column(std::string name, Format format = {},
                    Align align = Align::kLeft, std::size_t width = 0);

  /// render()'s layout: `gap` blanks between columns (2 by default) and
  /// what stands above the rows.
  Table& layout(std::size_t gap, Header header);

  /// Appends the next value of the row being filled: text to a text
  /// column, a number to any other. No value (std::nullopt) suits every
  /// column: it reads "-", and null in JSONL, as NaN and inf do there.
  Table& add(std::string_view text);
  Table& add(double value);
  template <std::integral Int>
  Table& add(Int value) {
    if constexpr (std::is_signed_v<Int>) {
      return add_integer(static_cast<long long>(value));
    } else {
      return add_integer(static_cast<unsigned long long>(value));
    }
  }
  Table& add(std::nullopt_t);
  template <typename T>
  Table& add(const std::optional<T>& value) {
    return value ? add(*value) : add(std::nullopt);
  }

  /// Appends a whole row; must have the same arity as the header.
  template <typename... Values>
  Table& add_row(const Values&... values) {
    start_row(sizeof...(Values));
    (add(values), ...);
    return *this;
  }

  /// Renders the text layout: the header aligned like its column, each
  /// value padded to its column's width, no trailing blanks.
  std::string render() const;

  /// Convenience: render straight to stdout.
  void print() const;

  /// Renders as an HTML <table> (header row of <th>, one <tr> per row),
  /// every cell HTML-escaped; one line per row.
  std::string html() const;

  /// Header line, then one line per row; cells comma-joined as they are
  /// (no padding, no quoting).
  std::string csv() const;

  /// One JSON object per row, keyed by the header in column order: text
  /// quoted and escaped, numbers bare. A non-empty `type` leads every
  /// object as "type":"<type>".
  std::string jsonl(std::string_view type = {}) const;

 private:
  struct Column {
    std::string name;
    Format format;
    Align align;
    std::size_t width;
  };
  /// A formatted value: `text_` at [at, at + size), suffix included.
  struct Cell {
    enum class Kind : std::uint8_t { kText, kNumber, kNull };
    std::uint32_t at, size;
    Kind kind;
  };

  const Column& next_column() const;
  void start_row(std::size_t arity) const;
  /// Defined for long long and unsigned long long.
  template <typename Int>
  Table& add_integer(Int value);
  /// Records what was written to `text_` since `at` as the next cell.
  Table& close(std::size_t at, Cell::Kind kind);
  std::string_view text(const Cell& cell) const {
    return std::string_view(text_).substr(cell.at, cell.size);
  }

  std::vector<Column> columns_;
  std::vector<Cell> cells_;  ///< row-major
  std::string text_;         ///< every value, formatted
  std::size_t gap_ = 2;
  Header header_ = Header::kRuled;
};

}  // namespace vodx
