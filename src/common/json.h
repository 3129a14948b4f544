// The project's one JSON codec: a streaming writer every JSON and JSONL
// output goes through, and a minimal recursive-descent reader for documents
// the project itself emits (repro artifacts, JSONL rows) plus hand-edits of
// them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vodx {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view raw);

/// Canonical JSON number: integers (|v| < 1e15) without a fraction, others
/// as %.9g, and NaN/inf (never expected, but no output may be invalid JSON)
/// as null.
std::string json_number(double value);

/// Streaming JSON writer appending to a caller-owned string. It places the
/// commas and colons and escapes keys and strings; the caller keeps the
/// nesting balanced. Values written at the top level get no separator, so
/// JSONL is one object per record with the caller appending each '\n'.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{', false); }
  JsonWriter& end_object() { return close('}'); }
  /// `one_per_line` puts every element on its own line, the ']' too
  /// ("[\n<a>,\n<b>\n]"); otherwise the array is written inline.
  JsonWriter& begin_array(bool one_per_line = false) {
    return open('[', one_per_line);
  }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next call writes its value.
  JsonWriter& key(std::string_view name);
  JsonWriter& string(std::string_view value);
  JsonWriter& boolean(bool value) { return raw(value ? "true" : "false"); }
  JsonWriter& number(double value) { return raw(json_number(value)); }
  /// A value the caller already formatted ("%.3f", an integer, a nested
  /// document), copied verbatim.
  JsonWriter& raw(std::string_view value);

 private:
  void start_value();
  JsonWriter& open(char bracket, bool one_per_line);
  JsonWriter& close(char bracket);

  std::string& out_;
  int depth_ = 0;
  std::uint64_t per_line_ = 0;  ///< bit d: the array at depth d is per-line
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// A parsed JSON value: objects, arrays, strings, numbers, true/false/null.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double num_or(const std::string& key, double fallback) const {
    const Json* j = find(key);
    return j != nullptr && j->type == Type::kNumber ? j->number : fallback;
  }
  std::string str_or(const std::string& key, std::string fallback) const {
    const Json* j = find(key);
    return j != nullptr && j->type == Type::kString ? j->string : fallback;
  }
};

/// Parses one JSON document (whitespace around it is allowed). \uXXXX
/// decodes to UTF-8 but surrogate pairs are not joined, and numbers are
/// whatever strtod accepts. Throws ParseError on malformed input.
Json parse_json(const std::string& text);

}  // namespace vodx
