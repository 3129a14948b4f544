// Small string utilities used by the manifest parsers and formatters.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace vodx {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes the first line from `text` and returns it without its "\n" or
/// "\r\n" terminator. Called until `text` is empty, it yields no line for
/// a final terminator.
std::string_view next_line(std::string_view& text);

/// What std::isspace accepts in the "C" locale, without its table lookup.
inline bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Parses a decimal integer / double; throws ParseError on malformed input.
/// Both ignore surrounding whitespace; parse_double accepts what strtod does.
std::int64_t parse_int(std::string_view text);
double parse_double(std::string_view text);

/// Appends the integer `value` in decimal, as printf prints it.
template <typename Int>
void append_int(std::string& out, Int value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `value` exactly as printf's "%.<precision>g" (style general) or
/// "%.<precision>f" (style fixed) prints it, but through std::to_chars:
/// no format string to parse, no locale.
std::string format_double(double value, std::chars_format style,
                          int precision);
/// Appends what format_double() returns.
void append_double(std::string& out, double value, std::chars_format style,
                   int precision);

/// Escapes &, <, > and " for HTML text and attribute values.
std::string html_escape(std::string_view raw);

}  // namespace vodx
