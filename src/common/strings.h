// Small string utilities used by the manifest parsers and formatters.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace vodx {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits into lines, treating both "\n" and "\r\n" as terminators.
std::vector<std::string> split_lines(std::string_view text);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Parses a decimal integer / double; throws ParseError on malformed input.
std::int64_t parse_int(std::string_view text);
double parse_double(std::string_view text);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `value` exactly as printf's "%.<precision>g" (style general) or
/// "%.<precision>f" (style fixed) prints it, but through std::to_chars:
/// no format string to parse, no locale.
std::string format_double(double value, std::chars_format style,
                          int precision);

/// Escapes &, <, > and " for HTML text and attribute values.
std::string html_escape(std::string_view raw);

}  // namespace vodx
