// The project's one JSON codec: the string escaper every writer uses, and a
// minimal recursive-descent reader for documents the project itself emits
// (repro artifacts, JSONL rows) plus hand-edits of them.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vodx {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view raw);

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
