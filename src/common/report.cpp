#include "common/report.h"

#include "common/strings.h"

namespace vodx {

std::string html_page_start(const std::string& title) {
  return "<!doctype html><html><head><meta charset=\"utf-8\">"
         "<title>" + title + "</title><style>\n"
         "body{font:14px/1.4 system-ui,sans-serif;margin:2em;color:#222}\n"
         "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.5em}\n"
         "table{border-collapse:collapse;margin:.5em 0}\n"
         "th,td{border:1px solid #ccc;padding:3px 9px;text-align:right;"
         "font-variant-numeric:tabular-nums}\n"
         "th{background:#f0f0f0}\n"
         "th:first-child,td:first-child{text-align:left;font-family:monospace}\n"
         ".spark{vertical-align:middle}\n"
         ".peak{color:#888;font-size:11px;margin-left:4px}\n"
         "</style></head><body>\n<h1>" + title + "</h1>\n";
}

Report& Report::line(std::string text) {
  blocks_.push_back({Block::Kind::kLine, {}, {std::move(text)}, {}});
  return *this;
}

Report& Report::list(std::string title, std::vector<std::string> lines) {
  blocks_.push_back(
      {Block::Kind::kList, std::move(title), std::move(lines), {}});
  return *this;
}

Report& Report::section(std::string title, Table table) {
  blocks_.push_back(
      {Block::Kind::kSection, std::move(title), {}, std::move(table)});
  return *this;
}

Report& Report::append(Report other) {
  for (Block& block : other.blocks_) blocks_.push_back(std::move(block));
  return *this;
}

std::string Report::text() const {
  std::string out;
  for (const Block& block : blocks_) {
    if (!block.title.empty()) out += "\n== " + block.title + " ==\n";
    switch (block.kind) {
      case Block::Kind::kLine:
      case Block::Kind::kList:
        for (const std::string& line : block.lines) out += line + '\n';
        break;
      case Block::Kind::kSection:
        out += block.table.render();
        break;
    }
  }
  return out;
}

std::string Report::html(const std::string& title) const {
  std::string out = html_page_start(html_escape(title));
  for (const Block& block : blocks_) {
    if (!block.title.empty()) {
      out += "<h2>" + html_escape(block.title) + "</h2>\n";
    }
    switch (block.kind) {
      case Block::Kind::kLine:
        if (!block.lines[0].empty()) {
          out += "<p>" + html_escape(block.lines[0]) + "</p>\n";
        }
        break;
      case Block::Kind::kList:
        out += "<ul>\n";
        for (const std::string& line : block.lines) {
          out += "<li>" + html_escape(line) + "</li>\n";
        }
        out += "</ul>\n";
        break;
      case Block::Kind::kSection:
        out += block.table.html();
        break;
    }
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace vodx
