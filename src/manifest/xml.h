// Minimal XML writer and parser.
//
// Covers the subset DASH MPDs and SmoothStreaming manifests need: nested
// elements, attributes, text nodes, self-closing tags, XML declarations and
// comments. No namespace resolution (names are kept verbatim) and only the
// five predefined entities.
//
// Both directions work on flat text: XmlWriter streams a document into one
// string, and XmlDocument parses into one array of elements whose names,
// attribute values and text are views of the parsed text. Neither builds a
// node per element on the heap.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vodx::manifest {

/// Appends a document to a string: an XML declaration, then elements with
/// 2-space indentation. An element without text or children self-closes;
/// text sits inline between the tags, before any children.
class XmlWriter {
 public:
  /// Starts the document (the declaration) at the end of `out`.
  explicit XmlWriter(std::string& out);

  /// Opens a child of the open element (the root first). `name` must stay
  /// valid until close().
  void open(std::string_view name);
  /// Adds an attribute to the element just opened, before any text or child.
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, std::int64_t value);
  /// Sets the open element's text, before any child; empty text is none.
  void text(std::string_view text);
  /// Closes the innermost open element.
  void close();

 private:
  struct Open {
    std::string_view name;
    bool children = false;
  };

  std::string& out_;
  std::vector<Open> open_;
  /// The innermost element's start tag still waits for its '>'.
  bool in_tag_ = false;
};

/// One element of an XmlDocument.
class XmlElement {
 public:
  std::string_view name() const { return name_; }
  /// The attribute's value (the last one, if the key repeats), unescaped.
  std::optional<std::string_view> attr(std::string_view key) const;
  /// Attribute that must exist; throws ParseError otherwise.
  std::string_view required_attr(std::string_view key) const;
  /// The first child named `name`, or nullptr.
  const XmlElement* child(std::string_view name) const;
  /// The next sibling named `name`, or nullptr: with child(), walks all
  /// children of one name.
  const XmlElement* next(std::string_view name) const;
  /// The character data directly inside the element, trimmed and
  /// unescaped.
  std::string_view text() const { return text_; }

 private:
  friend class XmlParser;

  std::string_view name_;
  std::string_view text_;
  const std::pair<std::string_view, std::string_view>* attrs_ = nullptr;
  std::size_t attr_count_ = 0;
  const XmlElement* first_child_ = nullptr;
  const XmlElement* next_sibling_ = nullptr;
};

/// A parsed document. It views the text it was parsed from, which must
/// outlive it.
class XmlDocument {
 public:
  /// Parses `text`; throws ParseError on malformed input.
  explicit XmlDocument(std::string_view text);
  XmlDocument(const XmlDocument&) = delete;
  XmlDocument& operator=(const XmlDocument&) = delete;

  const XmlElement& root() const { return elements_.front(); }

 private:
  friend class XmlParser;

  std::vector<XmlElement> elements_;  ///< document order, never reallocated
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
  /// Values that needed unescaping or joining; a deque keeps them in place.
  std::deque<std::string> owned_;
};

}  // namespace vodx::manifest
