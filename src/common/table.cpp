#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace vodx {

Table::Table(std::vector<std::string> header) {
  add_columns(std::move(header));
}

void Table::add_columns(std::vector<std::string> names, Kind kind) {
  VODX_ASSERT(rows_.empty(), "table columns added after the first row");
  kinds_.insert(kinds_.end(), names.size(), kind);
  for (std::string& name : names) header_.push_back(std::move(name));
}

void Table::add_row(std::vector<std::string> cells) {
  VODX_ASSERT(cells.size() == header_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      line += row[i];
      if (i + 1 < row.size()) {
        line.append(widths[i] - row[i].size() + 2, ' ');
      }
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

std::string Table::html() const {
  std::string out = "<table><tr>";
  for (const std::string& cell : header_) {
    out += "<th>" + html_escape(cell) + "</th>";
  }
  out += "</tr>\n";
  for (const auto& row : rows_) {
    out += "<tr>";
    for (const std::string& cell : row) {
      out += "<td>" + html_escape(cell) + "</td>";
    }
    out += "</tr>\n";
  }
  out += "</table>\n";
  return out;
}

std::string Table::csv() const {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += row[i];
    }
    out += '\n';
  };
  append_row(header_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

std::string Table::jsonl(std::string_view type) const {
  std::string lead;
  JsonWriter w(lead);
  w.begin_object();
  if (!type.empty()) w.key("type").string(type);
  // Each key with its separator, escaped once for every row.
  std::vector<std::string> keys(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) {
    const bool first = i == 0 && type.empty();
    keys[i] = (first ? "\"" : ",\"") + json_escape(header_[i]) + "\":";
  }
  std::string out;
  for (const auto& row : rows_) {
    out += lead;
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += keys[i];
      if (kinds_[i] == Kind::kText) {
        out += '"';
        out += json_escape(row[i]);
        out += '"';
      } else {
        out += row[i];
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace vodx
