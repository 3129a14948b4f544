#include "common/table.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace vodx {

void append_number(std::string& out, const Format& format, double value) {
  if (format.type == Format::Type::kInteger) {
    append_int(out, static_cast<long long>(value));
  } else {
    append_double(out, value,
                  format.type == Format::Type::kFixed
                      ? std::chars_format::fixed
                      : std::chars_format::general,
                  format.digits);
  }
}

Table::Table(std::vector<std::string> header) {
  for (std::string& name : header) add_column(std::move(name));
}

Table& Table::add_column(std::string name, Format format, Align align,
                         std::size_t width) {
  VODX_ASSERT(cells_.empty(), "table columns added after the first row");
  columns_.push_back({std::move(name), format, align, width});
  return *this;
}

Table& Table::layout(std::size_t gap, Header header) {
  gap_ = gap;
  header_ = header;
  return *this;
}

const Table::Column& Table::next_column() const {
  VODX_ASSERT(!columns_.empty(), "table value added before any column");
  return columns_[cells_.size() % columns_.size()];
}

void Table::start_row(std::size_t arity) const {
  VODX_ASSERT(arity == columns_.size() &&
                  cells_.size() % columns_.size() == 0,
              "table row arity mismatch");
}

Table& Table::close(std::size_t at, Cell::Kind kind) {
  cells_.push_back({static_cast<std::uint32_t>(at),
                    static_cast<std::uint32_t>(text_.size() - at), kind});
  return *this;
}

Table& Table::add(std::string_view text) {
  VODX_ASSERT(next_column().format.type == Format::Type::kText,
              "table text added to a number column");
  const std::size_t at = text_.size();
  text_ += text;
  return close(at, Cell::Kind::kText);
}

Table& Table::add(double value) {
  const Format& format = next_column().format;
  VODX_ASSERT(format.type != Format::Type::kText,
              "table number added to a text column");
  const std::size_t at = text_.size();
  append_number(text_, format, value);
  if (*format.suffix != '\0') text_ += format.suffix;
  return close(at, std::isfinite(value) ? Cell::Kind::kNumber
                                        : Cell::Kind::kNull);
}

template <typename Int>
Table& Table::add_integer(Int value) {
  const Format& format = next_column().format;
  if (format.type != Format::Type::kInteger) {
    return add(static_cast<double>(value));
  }
  const std::size_t at = text_.size();
  append_int(text_, value);
  if (*format.suffix != '\0') text_ += format.suffix;
  return close(at, Cell::Kind::kNumber);
}
template Table& Table::add_integer(long long);
template Table& Table::add_integer(unsigned long long);

Table& Table::add(std::nullopt_t) {
  next_column();
  const std::size_t at = text_.size();
  text_ += '-';
  return close(at, Cell::Kind::kNull);
}

std::string Table::render() const {
  const std::size_t n = columns_.size();
  std::vector<std::size_t> widths(n);
  for (std::size_t i = 0; i < n; ++i) {
    widths[i] = columns_[i].width;
    if (widths[i] > 0) continue;
    widths[i] = columns_[i].name.size();
    for (std::size_t c = i; c < cells_.size(); c += n) {
      widths[i] = std::max<std::size_t>(widths[i], cells_[c].size);
    }
  }

  std::string out;
  // Column i's text, padded to its width: blanks before it when
  // right-aligned, after it when left-aligned (none after the last
  // column), then the gap.
  auto put = [&](std::size_t i, std::string_view text) {
    const std::size_t pad =
        widths[i] > text.size() ? widths[i] - text.size() : 0;
    const bool last = i + 1 == n;
    if (columns_[i].align == Align::kRight) out.append(pad, ' ');
    out += text;
    if (columns_[i].align == Align::kLeft && !last) out.append(pad, ' ');
    if (!last) out.append(gap_, ' ');
  };
  if (header_ != Header::kNone) {
    for (std::size_t i = 0; i < n; ++i) put(i, columns_[i].name);
    out += '\n';
  }
  if (header_ == Header::kRuled) {
    std::size_t total = n > 0 ? gap_ * (n - 1) : 0;
    for (const std::size_t w : widths) total += w;
    out.append(total, '-');
    out += '\n';
  }
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    put(c % n, text(cells_[c]));
    if ((c + 1) % n == 0) out += '\n';
  }
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

std::string Table::html() const {
  std::string out = "<table><tr>";
  for (const Column& column : columns_) {
    out += "<th>" + html_escape(column.name) + "</th>";
  }
  out += "</tr>\n";
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (c % columns_.size() == 0) out += "<tr>";
    out += "<td>" + html_escape(text(cells_[c])) + "</td>";
    if ((c + 1) % columns_.size() == 0) out += "</tr>\n";
  }
  out += "</table>\n";
  return out;
}

std::string Table::csv() const {
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ',';
    out += columns_[i].name;
  }
  out += '\n';
  out.reserve(out.size() + text_.size() + cells_.size());
  for (auto cell = cells_.begin(); cell != cells_.end();) {
    for (std::size_t i = 0; i < columns_.size(); ++i, ++cell) {
      if (i > 0) out += ',';
      out.append(text_, cell->at, cell->size);
    }
    out += '\n';
  }
  return out;
}

std::string Table::jsonl(std::string_view type) const {
  std::string lead;
  JsonWriter w(lead);
  w.begin_object();
  if (!type.empty()) w.key("type").string(type);
  // Each key with its separator, escaped once for every row.
  std::vector<std::string> keys(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const bool first = i == 0 && type.empty();
    keys[i] = (first ? "\"" : ",\"") + json_escape(columns_[i].name) + "\":";
  }
  std::string out;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const std::size_t i = c % columns_.size();
    if (i == 0) out += lead;
    out += keys[i];
    const std::string_view value = text(cells_[c]);
    switch (cells_[c].kind) {
      case Cell::Kind::kText:
        out += '"';
        out += json_escape(value);
        out += '"';
        break;
      case Cell::Kind::kNumber:
        out += value.substr(
            0, value.size() - std::strlen(columns_[i].format.suffix));
        break;
      case Cell::Kind::kNull: out += "null"; break;
    }
    if (i + 1 == columns_.size()) out += "}\n";
  }
  return out;
}

}  // namespace vodx
