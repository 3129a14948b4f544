#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "common/strings.h"

namespace vodx {

namespace {

void append_escaped(std::string_view raw, std::string& out) {
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(raw, out);
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return format("%lld", static_cast<long long>(value));
  }
  return format("%.9g", value);
}

void JsonWriter::start_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    if (need_comma_) out_ += ',';
    if ((per_line_ >> depth_) & 1) out_ += '\n';
  }
}

JsonWriter& JsonWriter::open(char bracket, bool one_per_line) {
  start_value();
  out_ += bracket;
  ++depth_;
  VODX_ASSERT(depth_ < 64, "json nesting too deep");
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  per_line_ = one_per_line ? per_line_ | bit : per_line_ & ~bit;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  VODX_ASSERT(depth_ > 0 && !after_key_, "unbalanced json nesting");
  if ((per_line_ >> depth_) & 1) out_ += '\n';
  --depth_;
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  start_value();
  out_ += '"';
  append_escaped(name, out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  start_value();
  out_ += '"';
  append_escaped(value, out_);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view value) {
  start_value();
  out_ += value;
  need_comma_ = true;
  return *this;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError(format("json: %s at offset %zu", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(format("expected '%c'", c));
    ++pos_;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        return parse_null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    Json out;
    out.type = Json::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      Json key = parse_string();
      expect(':');
      out.object[key.string] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json parse_array() {
    Json out;
    out.type = Json::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  Json parse_string() {
    Json out;
    out.type = Json::Type::kString;
    expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c != '\\') {
        out.string += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      switch (const char e = text_[pos_++]) {
        case 'n': out.string += '\n'; break;
        case 't': out.string += '\t'; break;
        case 'r': out.string += '\r'; break;
        case 'b': out.string += '\b'; break;
        case 'f': out.string += '\f'; break;
        case 'u': append_utf8(parse_hex4(), &out.string); break;
        default: out.string += e; break;  // \" \\ \/
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  unsigned parse_hex4() {
    const std::string hex = text_.substr(pos_, 4);
    if (hex.size() != 4) fail("truncated \\u escape");
    for (const char h : hex) {
      if (!std::isxdigit(static_cast<unsigned char>(h))) fail("bad \\u escape");
    }
    pos_ += 4;
    return static_cast<unsigned>(std::stoul(hex, nullptr, 16));
  }

  static void append_utf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    Json out;
    out.type = Json::Type::kNumber;
    out.number = value;
    return out;
  }

  Json parse_bool() {
    Json out;
    out.type = Json::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("expected true/false");
    }
    return out;
  }

  Json parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
    pos_ += 4;
    return Json{};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace vodx
