#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/xml_node.h"
#include "xml/xml_parser.h"
#include "xml/xml_schema.h"
#include "xml/xml_writer.h"

namespace mobivine::xml {
namespace {

TEST(XmlParser, SimpleElement) {
  Document doc = Parse("<root/>");
  ASSERT_TRUE(doc.root);
  EXPECT_EQ(doc.root->name(), "root");
  EXPECT_TRUE(doc.root->children().empty());
}

TEST(XmlParser, DeclarationParsed) {
  Document doc = Parse("<?xml version=\"1.1\" encoding=\"ascii\"?><r/>");
  EXPECT_EQ(doc.version, "1.1");
  EXPECT_EQ(doc.encoding, "ascii");
}

TEST(XmlParser, AttributesBothQuoteStyles) {
  Document doc = Parse(R"(<m name="addProximityAlert" lang='java'/>)");
  EXPECT_EQ(doc.root->GetAttributeOr("name", ""), "addProximityAlert");
  EXPECT_EQ(doc.root->GetAttributeOr("lang", ""), "java");
  EXPECT_FALSE(doc.root->HasAttribute("missing"));
}

TEST(XmlParser, NestedElementsAndText) {
  Document doc = Parse("<a><b>hello</b><b>world</b></a>");
  std::vector<std::string> texts;
  for (const Node* child : doc.root->Children("b")) {
    texts.push_back(child->InnerText());
  }
  EXPECT_EQ(texts, (std::vector<std::string>{"hello", "world"}));
}

TEST(XmlParser, EntitiesDecoded) {
  Document doc = Parse("<a x=\"&lt;&amp;&gt;\">&quot;q&apos; &#65;&#x42;</a>");
  EXPECT_EQ(doc.root->GetAttributeOr("x", ""), "<&>");
  EXPECT_EQ(doc.root->InnerText(), "\"q' AB");
}

TEST(XmlParser, CDataPreserved) {
  Document doc = Parse("<a><![CDATA[if (x < 2 && y) {}]]></a>");
  EXPECT_EQ(doc.root->InnerText(), "if (x < 2 && y) {}");
}

TEST(XmlParser, CommentsIgnored) {
  Document doc = Parse("<!-- top --><a><!-- in -->text</a><!-- after -->");
  EXPECT_EQ(doc.root->InnerText(), "text");
}

TEST(XmlParser, MismatchedTagThrows) {
  EXPECT_THROW(Parse("<a><b></a></b>"), ParseError);
}

TEST(XmlParser, UnterminatedThrows) {
  EXPECT_THROW(Parse("<a>"), ParseError);
  EXPECT_THROW(Parse("<a attr=\"x>"), ParseError);
  EXPECT_THROW(Parse("<a><!-- never closed"), ParseError);
}

TEST(XmlParser, DuplicateAttributeThrows) {
  EXPECT_THROW(Parse("<a x=\"1\" x=\"2\"/>"), ParseError);
}

TEST(XmlParser, ContentAfterRootThrows) {
  EXPECT_THROW(Parse("<a/><b/>"), ParseError);
}

TEST(XmlParser, UnknownEntityThrows) {
  EXPECT_THROW(Parse("<a>&nbsp;</a>"), ParseError);
}

TEST(XmlParser, ErrorCarriesLocation) {
  try {
    (void)Parse("<a>\n  <b></c>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 2);
    EXPECT_GT(error.column(), 1);
  }
}

TEST(XmlParser, DoctypeRejected) {
  EXPECT_THROW(Parse("<a><!DOCTYPE html></a>"), ParseError);
}

// ---------------------------------------------------------------------------
// Writer round trips
// ---------------------------------------------------------------------------

TEST(XmlWriter, EscapesSpecials) {
  Document built;
  Node* node = built.NewElement("a");
  built.SetAttribute(*node, "x", "<\"&'>");
  built.AppendChild(*node, built.NewText("a<b&c"));
  const std::string written = WriteNode(*node);
  Document reparsed = Parse(written);
  EXPECT_EQ(reparsed.root->GetAttributeOr("x", ""), "<\"&'>");
  EXPECT_EQ(reparsed.root->InnerText(), "a<b&c");
}

TEST(XmlWriter, RoundTripStructurallyEqual) {
  const char* source = R"(<proxy name="Location" category="Location">
    <method name="getLocation"><returns dimension="location"/></method>
    <method name="addProximityAlert">
      <parameter name="latitude" dimension="degrees">
        <description>lat &amp; more</description>
      </parameter>
      <callback name="listener"/>
    </method>
  </proxy>)";
  Document original = Parse(source);
  const std::string rewritten = WriteNode(*original.root);
  Document reparsed = Parse(rewritten);
  EXPECT_TRUE(original.root->StructurallyEquals(*reparsed.root))
      << rewritten;
}

TEST(XmlWriter, CloneEqualsOriginal) {
  Document doc = Parse("<a x=\"1\"><b>t</b><!--c--></a>");
  Document other;
  const Node* clone = other.Clone(*doc.root);
  EXPECT_TRUE(doc.root->StructurallyEquals(*clone));
  // The clone's document owns copies of every string.
  const std::string written = WriteNode(*clone, {.indent = 0});
  doc = Document();
  EXPECT_EQ(WriteNode(*clone, {.indent = 0}), written);
}

TEST(XmlNode, ChildTextHelpers) {
  Document doc = Parse("<a><name> trimmed </name></a>");
  EXPECT_EQ(doc.root->ChildTextOr("name", ""), "trimmed");
  EXPECT_EQ(doc.root->ChildTextOr("missing", "fallback"), "fallback");
  EXPECT_FALSE(doc.root->ChildText("missing").has_value());
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

Schema TinySchema() {
  Schema schema("tiny", "root");
  schema.Rule("root", {.required_attributes = {"name"},
                       .optional_attributes = {"opt"},
                       .children = {{"item", {1, 2}}}});
  schema.Rule("item", {.required_attributes = {},
                       .optional_attributes = {"id"},
                       .text = TextPolicy::kRequired});
  return schema;
}

TEST(XmlSchema, ValidDocumentPasses) {
  Document doc = Parse("<root name=\"x\"><item>v</item></root>");
  EXPECT_TRUE(TinySchema().Validate(*doc.root).empty());
}

TEST(XmlSchema, WrongRootReported) {
  Document doc = Parse("<other/>");
  auto violations = TinySchema().Validate(*doc.root);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].message.find("expected root"), std::string::npos);
}

TEST(XmlSchema, MissingRequiredAttribute) {
  Document doc = Parse("<root><item>v</item></root>");
  auto violations = TinySchema().Validate(*doc.root);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].message.find("name"), std::string::npos);
}

TEST(XmlSchema, UnexpectedAttributeAndChild) {
  Document doc =
      Parse("<root name=\"x\" bogus=\"1\"><item>v</item><junk/></root>");
  auto violations = TinySchema().Validate(*doc.root);
  EXPECT_EQ(violations.size(), 2u) << FormatViolations(violations);
}

TEST(XmlSchema, CardinalityBounds) {
  Document none = Parse("<root name=\"x\"/>");
  EXPECT_FALSE(TinySchema().Validate(*none.root).empty());
  Document too_many = Parse(
      "<root name=\"x\"><item>a</item><item>b</item><item>c</item></root>");
  EXPECT_FALSE(TinySchema().Validate(*too_many.root).empty());
}

TEST(XmlSchema, TextPolicyEnforced) {
  Document no_text = Parse("<root name=\"x\"><item/></root>");
  auto violations = TinySchema().Validate(*no_text.root);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].message.find("text content required"),
            std::string::npos);

  Schema forbid("f", "r");
  forbid.Rule("r", {.text = TextPolicy::kForbidden});
  Document with_text = Parse("<r>bad</r>");
  EXPECT_FALSE(forbid.Validate(*with_text.root).empty());
}

TEST(XmlSchema, PathsPointAtViolation) {
  Document doc = Parse("<root name=\"x\"><item/><item>ok</item></root>");
  auto violations = TinySchema().Validate(*doc.root);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path, "/root/item[1]");
}

}  // namespace
}  // namespace mobivine::xml
