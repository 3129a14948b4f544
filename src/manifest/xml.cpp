#include "manifest/xml.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::manifest {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
}

}  // namespace

XmlWriter::XmlWriter(std::string& out) : out_(out) {
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
}

void XmlWriter::open(std::string_view name) {
  if (!open_.empty()) {
    if (in_tag_) out_ += '>';
    Open& parent = open_.back();
    if (!parent.children) {
      out_ += '\n';
      parent.children = true;
    }
  }
  out_.append(2 * open_.size(), ' ');
  out_ += '<';
  out_ += name;
  open_.push_back({name});
  in_tag_ = true;
}

void XmlWriter::attr(std::string_view key, std::string_view value) {
  out_ += ' ';
  out_ += key;
  out_ += "=\"";
  append_escaped(out_, value);
  out_ += '"';
}

void XmlWriter::attr(std::string_view key, std::int64_t value) {
  out_ += ' ';
  out_ += key;
  out_ += "=\"";
  append_int(out_, value);
  out_ += '"';
}

void XmlWriter::text(std::string_view text) {
  if (text.empty()) return;
  out_ += '>';
  in_tag_ = false;
  append_escaped(out_, text);
}

void XmlWriter::close() {
  const Open element = open_.back();
  open_.pop_back();
  if (in_tag_) {
    out_ += "/>\n";
    in_tag_ = false;
    return;
  }
  if (element.children) out_.append(2 * open_.size(), ' ');
  out_ += "</";
  out_ += element.name;
  out_ += ">\n";
}

std::optional<std::string_view> XmlElement::attr(std::string_view key) const {
  std::optional<std::string_view> value;
  for (std::size_t i = 0; i < attr_count_; ++i) {
    if (attrs_[i].first == key) value = attrs_[i].second;
  }
  return value;
}

std::string_view XmlElement::required_attr(std::string_view key) const {
  const std::optional<std::string_view> value = attr(key);
  if (!value) {
    throw ParseError("<" + std::string(name_) + "> missing attribute '" +
                     std::string(key) + "'");
  }
  return *value;
}

const XmlElement* XmlElement::child(std::string_view name) const {
  const XmlElement* c = first_child_;
  while (c != nullptr && c->name_ != name) c = c->next_sibling_;
  return c;
}

const XmlElement* XmlElement::next(std::string_view name) const {
  const XmlElement* c = next_sibling_;
  while (c != nullptr && c->name_ != name) c = c->next_sibling_;
  return c;
}

class XmlParser {
 public:
  XmlParser(std::string_view text, XmlDocument& doc) : text_(text), doc_(doc) {}

  void parse() {
    // Each element consumes one '<' and each attribute one '=', so with
    // these reserved neither array moves and the pointers into them hold.
    doc_.elements_.reserve(static_cast<std::size_t>(
        std::count(text_.begin(), text_.end(), '<')));
    doc_.attrs_.reserve(static_cast<std::size_t>(
        std::count(text_.begin(), text_.end(), '=')));
    skip_misc();
    parse_element();
    skip_misc();
    if (pos_ != text_.size()) throw ParseError("trailing content after root");
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  /// Skips whitespace, XML declarations and comments.
  void skip_misc() {
    while (true) {
      skip_whitespace();
      if (lookahead("<?")) {
        std::size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) throw ParseError("unterminated <?");
        pos_ = end + 2;
      } else if (lookahead("<!--")) {
        skip_comment();
      } else {
        return;
      }
    }
  }

  void skip_comment() {
    std::size_t end = text_.find("-->", pos_);
    if (end == std::string_view::npos) throw ParseError("unterminated comment");
    pos_ = end + 3;
  }

  bool lookahead(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw ParseError(std::string("expected '") + c + "' in XML");
    }
    ++pos_;
  }

  std::string_view parse_name() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            ((text_[pos_] | 0x20) >= 'a' && (text_[pos_] | 0x20) <= 'z') ||
            text_[pos_] == ':' || text_[pos_] == '_' || text_[pos_] == '-' ||
            text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) throw ParseError("expected XML name");
    return text_.substr(start, pos_ - start);
  }

  /// `raw` with its entities replaced; a view of `raw` when it has none.
  std::string_view unescape(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    std::string& out = doc_.owned_.emplace_back();
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      std::size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) throw ParseError("bad entity");
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else throw ParseError("unknown entity &" + std::string(entity) + ";");
      i = semi + 1;
    }
    return out;
  }

  XmlElement& parse_element() {
    expect('<');
    XmlElement& element = doc_.elements_.emplace_back();
    element.name_ = parse_name();
    element.attrs_ = doc_.attrs_.data() + doc_.attrs_.size();
    while (true) {
      skip_whitespace();
      if (lookahead("/>")) {
        pos_ += 2;
        return element;
      }
      if (lookahead(">")) {
        ++pos_;
        break;
      }
      std::string_view key = parse_name();
      skip_whitespace();
      expect('=');
      skip_whitespace();
      expect('"');
      std::size_t end = text_.find('"', pos_);
      if (end == std::string_view::npos)
        throw ParseError("unterminated attribute value");
      doc_.attrs_.emplace_back(key, unescape(text_.substr(pos_, end - pos_)));
      ++element.attr_count_;
      pos_ = end + 1;
    }
    // Content: character data and child elements until the closing tag.
    // The text is all character data, trimmed: the first run that is not
    // blank, plus every run after it (`tail`, rarely any).
    std::string_view first;
    std::string tail;
    XmlElement* last_child = nullptr;
    while (true) {
      const std::size_t markup = text_.find('<', pos_);
      if (markup == std::string_view::npos) {
        throw ParseError("unexpected end of XML");
      }
      const std::string_view run = text_.substr(pos_, markup - pos_);
      if (!first.empty()) {
        tail += run;
      } else if (!trim(run).empty()) {
        first = run;
      }
      pos_ = markup;
      if (lookahead("</")) {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != element.name_) {
          throw ParseError("mismatched </" + std::string(closing) + "> for <" +
                           std::string(element.name_) + ">");
        }
        skip_whitespace();
        expect('>');
        std::string_view text = trim(first);
        if (!trim(tail).empty()) {
          std::string& joined = doc_.owned_.emplace_back(first);
          joined += tail;
          text = trim(joined);
        }
        element.text_ = unescape(text);
        return element;
      }
      if (lookahead("<!--")) {
        skip_comment();
        continue;
      }
      XmlElement& child = parse_element();
      if (last_child != nullptr) {
        last_child->next_sibling_ = &child;
      } else {
        element.first_child_ = &child;
      }
      last_child = &child;
    }
  }

  std::string_view text_;
  XmlDocument& doc_;
  std::size_t pos_ = 0;
};

XmlDocument::XmlDocument(std::string_view text) {
  XmlParser(text, *this).parse();
}

}  // namespace vodx::manifest
