#include "common/strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "common/error.h"

namespace vodx {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view next_line(std::string_view& text) {
  const std::size_t pos = text.find('\n');
  std::string_view line = text.substr(0, pos);
  text.remove_prefix(pos == std::string_view::npos ? text.size() : pos + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::int64_t parse_int(std::string_view text) {
  text = trim(text);
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw ParseError("expected integer, got '" + std::string(text) + "'");
  }
  return value;
}

double parse_double(std::string_view text) {
  text = trim(text);
  // from_chars reads the plain decimal fields manifests carry without a
  // copy; what it does not take (a '+' sign, hex, a value out of range)
  // goes to strtod on a NUL-terminated copy, whose grammar this keeps.
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && ptr == text.data() + text.size()) return value;
  std::string copy(text);
  char* end = nullptr;
  value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) {
    throw ParseError("expected number, got '" + copy + "'");
  }
  return value;
}

void append_double(std::string& out, double value, std::chars_format style,
                   int precision) {
  // 400 bytes hold any double at the precisions the reports use; a longer
  // rendering (fixed style near DBL_MAX at a large precision) takes printf.
  char buffer[400];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof buffer, value, style, precision);
  if (result.ec != std::errc()) {
    out += format(style == std::chars_format::fixed ? "%.*f" : "%.*g",
                  precision, value);
    return;
  }
  out.append(buffer, result.ptr);
}

std::string format(const char* fmt, ...) {
  // One pass into a stack buffer fits nearly every call; longer output
  // takes a second pass into an exactly sized string.
  char buffer[256];
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<std::size_t>(needed) < sizeof buffer) {
    out.assign(buffer, static_cast<std::size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string html_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace vodx
