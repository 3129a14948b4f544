#include "manifest/xml.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx::manifest {
namespace {

constexpr std::string_view kDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";

TEST(Xml, SerializeSimpleElement) {
  std::string out;
  XmlWriter xml(out);
  xml.open("Root");
  xml.attr("a", "1");
  xml.attr("n", std::int64_t{-42});
  xml.close();
  EXPECT_EQ(out, std::string(kDeclaration) + "<Root a=\"1\" n=\"-42\"/>\n");
}

TEST(Xml, SerializeNestedWithText) {
  std::string out;
  XmlWriter xml(out);
  xml.open("Root");
  xml.open("Child");
  xml.text("hello");
  xml.close();
  xml.open("Parent");
  xml.text("t");
  xml.open("Leaf");
  xml.close();
  xml.close();
  xml.close();
  EXPECT_EQ(out, std::string(kDeclaration) +
                     "<Root>\n"
                     "  <Child>hello</Child>\n"
                     "  <Parent>t\n"
                     "    <Leaf/>\n"
                     "  </Parent>\n"
                     "</Root>\n");
}

TEST(Xml, AttributeOverwriteKeepsOrder) {
  // A repeated attribute reads as its last value.
  const XmlDocument doc("<N a=\"1\" b=\"2\" a=\"3\"/>");
  EXPECT_EQ(*doc.root().attr("a"), "3");
  EXPECT_EQ(*doc.root().attr("b"), "2");
}

TEST(Xml, RequiredAttrThrowsWhenMissing) {
  const XmlDocument doc("<N/>");
  EXPECT_THROW(doc.root().required_attr("missing"), ParseError);
  EXPECT_FALSE(doc.root().attr("missing").has_value());
}

TEST(Xml, ParseRoundTrip) {
  std::string out;
  XmlWriter xml(out);
  xml.open("MPD");
  xml.attr("type", "static");
  xml.open("Period");
  xml.open("Representation");
  xml.attr("id", "video/0");
  xml.open("BaseURL");
  xml.text("video/0/media.mp4");
  xml.close();
  xml.close();
  xml.close();
  xml.close();

  const XmlDocument doc(out);
  const XmlElement& parsed = doc.root();
  EXPECT_EQ(parsed.name(), "MPD");
  EXPECT_EQ(*parsed.attr("type"), "static");
  const XmlElement* p = parsed.child("Period");
  ASSERT_NE(p, nullptr);
  const XmlElement* r = p->child("Representation");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->required_attr("id"), "video/0");
  EXPECT_EQ(r->child("BaseURL")->text(), "video/0/media.mp4");
}

TEST(Xml, ParseSelfClosing) {
  const XmlDocument doc("<a><b x=\"1\"/><c/><b x=\"2\"/></a>");
  const XmlElement* first = doc.root().child("b");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first->attr("x"), "1");
  const XmlElement* second = first->next("b");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second->attr("x"), "2");
  EXPECT_EQ(second->next("b"), nullptr);
  EXPECT_NE(first->next("c"), nullptr);
}

TEST(Xml, ParseSkipsDeclarationAndComments) {
  const XmlDocument doc(
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>");
  EXPECT_EQ(doc.root().name(), "a");
  EXPECT_NE(doc.root().child("b"), nullptr);
}

TEST(Xml, EscapesSpecialCharacters) {
  std::string out;
  XmlWriter xml(out);
  xml.open("N");
  xml.attr("a", "x<y&\"z\"'");
  xml.text("a<b>&c");
  xml.close();
  EXPECT_NE(out.find("a=\"x&lt;y&amp;&quot;z&quot;&apos;\""),
            std::string::npos);
  const XmlDocument doc(out);
  EXPECT_EQ(*doc.root().attr("a"), "x<y&\"z\"'");
  EXPECT_EQ(doc.root().text(), "a<b>&c");
}

TEST(Xml, ParseErrors) {
  auto parse = [](std::string_view text) { XmlDocument doc(text); };
  EXPECT_THROW(parse("<a><b></a>"), ParseError);      // mismatched close
  EXPECT_THROW(parse("<a attr=1/>"), ParseError);     // unquoted attr
  EXPECT_THROW(parse("<a>"), ParseError);             // unterminated
  EXPECT_THROW(parse("<a/><b/>"), ParseError);        // two roots
  EXPECT_THROW(parse("<a>&unknown;</a>"), ParseError);  // bad entity
  EXPECT_THROW(parse("<a x=\"&amp\"/>"), ParseError);   // entity without ;
  EXPECT_THROW(parse(""), ParseError);
}

TEST(Xml, WhitespaceAroundTextIsTrimmed) {
  const XmlDocument doc("<a>  text  </a>");
  EXPECT_EQ(doc.root().text(), "text");
  // Text split by children and comments joins, inner whitespace kept.
  const XmlDocument split("<a> x <b/> <!-- c --> y&amp; </a>");
  EXPECT_EQ(split.root().text(), "x   y&");
  const XmlDocument blank("<a>\n  <b/>\n</a>");
  EXPECT_EQ(blank.root().text(), "");
}

}  // namespace
}  // namespace vodx::manifest
