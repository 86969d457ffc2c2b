// Pins for the XML parser: the exact tree it builds for every shipped
// descriptor document and the exact ParseError (message, line, column) it
// raises for a corpus of malformed inputs. Any change to the parser must
// leave both unchanged. Also a seeded mutation sweep: hostile variants of
// the shipped documents must either parse or throw ParseError.
//
// Regenerate the golden dump after an intended format change by running
// XmlPin.ShippedDocumentDump with MOBIVINE_UPDATE_GOLDEN=1 set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"
#include "xml/xml_parser.h"

namespace mobivine::xml {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Every shipped descriptor document, as (path relative to the descriptor
// directory, contents), sorted by relative path.
std::vector<std::pair<std::string, std::string>> ShippedDocuments() {
  std::vector<std::pair<std::string, std::string>> docs;
  const fs::path root(MOBIVINE_DESCRIPTOR_DIR);
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".xml") {
      continue;
    }
    docs.emplace_back(fs::relative(entry.path(), root).generic_string(),
                      ReadAll(entry.path()));
  }
  std::sort(docs.begin(), docs.end());
  return docs;
}

void AppendQuoted(std::string& out, std::string_view text) {
  out += '"';
  for (unsigned char c : text) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\x%02x", c);
          out += hex;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

// One line per node, indented by depth: element name plus attributes in
// source order; text (whitespace-only runs included), comment and CDATA
// nodes with their exact content.
void DumpNode(const Node& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  switch (node.type()) {
    case NodeType::kElement:
      out += "element ";
      out += std::string_view(node.name());
      for (const auto& attr : node.attributes()) {
        out += ' ';
        out += std::string_view(attr.name);
        out += '=';
        AppendQuoted(out, attr.value);
      }
      out += '\n';
      for (const auto& child : node.children()) {
        DumpNode(*child, depth + 1, out);
      }
      return;
    case NodeType::kText:
      out += "text ";
      break;
    case NodeType::kComment:
      out += "comment ";
      break;
    case NodeType::kCData:
      out += "cdata ";
      break;
  }
  AppendQuoted(out, node.text());
  out += '\n';
}

std::string DumpShippedDocuments() {
  std::string out;
  for (const auto& [path, source] : ShippedDocuments()) {
    const Document doc = Parse(source);
    out += "== " + path + " version=";
    AppendQuoted(out, doc.version);
    out += " encoding=";
    AppendQuoted(out, doc.encoding);
    out += '\n';
    DumpNode(*doc.root, 0, out);
  }
  return out;
}

TEST(XmlPin, ShippedDocumentCount) {
  EXPECT_EQ(ShippedDocuments().size(), 45u);
}

TEST(XmlPin, ShippedDocumentDump) {
  const std::string golden_path =
      std::string(MOBIVINE_GOLDEN_DIR) + "/shipped_descriptors.dump";
  const std::string actual = DumpShippedDocuments();
  if (std::getenv("MOBIVINE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(golden_path, std::ios::binary) << actual;
  }
  const std::string expected = ReadAll(golden_path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << golden_path;
  if (actual == expected) return;
  // Point at the first differing line rather than printing 30 KB.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      FAIL() << "dump differs from " << golden_path << " at line " << line
             << "\n  golden: " << (more_want ? want_line : "<end>")
             << "\n  actual: " << (more_got ? got_line : "<end>");
    }
  }
  FAIL() << "dump differs from " << golden_path;
}

struct ErrorCase {
  const char* input;
  int line;
  int column;
  const char* message;  // ParseError::what()
};

// Positions are 1-based and count bytes; an entity error inside text is
// reported where the text run ends (the next '<').
const ErrorCase kErrorCases[] = {
    {"<a><b></a></b>", 1, 10,
     "XML parse error at 1:10: mismatched end tag: expected </b>, got </a>"},
    {"<a>\n  <b></c>\n</a>", 2, 9,
     "XML parse error at 2:9: mismatched end tag: expected </b>, got </c>"},
    {"<a>\xc3\xa9\xc3\xa9</b>", 1, 11,
     "XML parse error at 1:11: mismatched end tag: expected </a>, got </b>"},
    {"<a>\r\n<b></c></a>", 2, 7,
     "XML parse error at 2:7: mismatched end tag: expected </b>, got </c>"},
    {"<a><!-- never closed", 1, 21,
     "XML parse error at 1:21: unterminated comment"},
    {"<!-- top", 1, 9, "XML parse error at 1:9: unterminated comment"},
    {"<a><![CDATA[ x < y", 1, 19,
     "XML parse error at 1:19: unterminated CDATA section"},
    {"<a attr=\"x>", 1, 12,
     "XML parse error at 1:12: unterminated attribute value"},
    {"<a attr=\"x", 1, 11,
     "XML parse error at 1:11: unterminated attribute value"},
    {"<a x=\"1\" x=\"2\"/>", 1, 11,
     "XML parse error at 1:11: duplicate attribute 'x' on <a>"},
    {"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<proxy name=\"X\">\n"
     "  <method name=\"m\">\n"
     "    <parameter name=\"p\" dimension=\"d\" name=\"q\"/>\n"
     "  </method>\n</proxy>\n",
     4, 43,
     "XML parse error at 4:43: duplicate attribute 'name' on <parameter>"},
    {"<a\n  x='1'\n  y=\"a<b\"/>", 3, 7,
     "XML parse error at 3:7: '<' not allowed in attribute value"},
    {"<a>&nbsp;</a>", 1, 10, "XML parse error at 1:10: unknown entity '&nbsp;'"},
    {"<a>x &lt; y\n &copy; z</a>", 2, 10,
     "XML parse error at 2:10: unknown entity '&copy;'"},
    {"<a v=\"&bogus;\"/>", 1, 15,
     "XML parse error at 1:15: unknown entity '&bogus;'"},
    {"<a>&#128;</a>", 1, 10,
     "XML parse error at 1:10: unsupported character reference '&#128;'"},
    {"<a>&#xE9;</a>", 1, 10,
     "XML parse error at 1:10: unsupported character reference '&#xE9;'"},
    {"<a>&#0;</a>", 1, 8,
     "XML parse error at 1:8: unsupported character reference '&#0;'"},
    {"<a>&#x;</a>", 1, 8,
     "XML parse error at 1:8: unsupported character reference '&#x;'"},
    {"<a>&amp</a>", 1, 8, "XML parse error at 1:8: unterminated entity"},
    {"<a>&bad;", 1, 9, "XML parse error at 1:9: missing end tag </a>"},
    {"<a><!DOCTYPE html></a>", 1, 4,
     "XML parse error at 1:4: DTDs and processing instructions are not "
     "supported"},
    {"<a>&#65;&#x42;&unknown;<!DOCTYPE x></a>", 1, 24,
     "XML parse error at 1:24: DTDs and processing instructions are not "
     "supported"},
    {"<!DOCTYPE a><a/>", 1, 2, "XML parse error at 1:2: expected a name"},
    {"<a><?pi x?></a>", 1, 4,
     "XML parse error at 1:4: DTDs and processing instructions are not "
     "supported"},
    {"<?xml version=\"1.0\"?><?pi?><a/>", 1, 23,
     "XML parse error at 1:23: expected a name"},
    {"<?xml version=\"1.0\"", 1, 20, "XML parse error at 1:20: expected '?>'"},
    {"<a/><b/>", 1, 5, "XML parse error at 1:5: content after root element"},
    {"<a/>\ntext", 2, 1, "XML parse error at 2:1: content after root element"},
    {"", 1, 1, "XML parse error at 1:1: document has no root element"},
    {"   \n\t ", 2, 3, "XML parse error at 2:3: document has no root element"},
    {"<!-- only a comment -->", 1, 24,
     "XML parse error at 1:24: document has no root element"},
    {"text<a/>", 1, 1, "XML parse error at 1:1: expected root element"},
    {"<a", 1, 3, "XML parse error at 1:3: unterminated start tag <a>"},
    {"<a x", 1, 5, "XML parse error at 1:5: expected '='"},
    {"<a x=1/>", 1, 6,
     "XML parse error at 1:6: expected a quoted attribute value"},
    {"<a =\"1\"/>", 1, 4, "XML parse error at 1:4: expected a name"},
    {"<a / >", 1, 4, "XML parse error at 1:4: expected a name"},
    {"<1a/>", 1, 2, "XML parse error at 1:2: expected a name"},
    {"<a></1a>", 1, 6, "XML parse error at 1:6: expected a name"},
    {"<a></a", 1, 7, "XML parse error at 1:7: expected '>'"},
    {"<a>", 1, 4, "XML parse error at 1:4: missing end tag </a>"},
    {"<a><b>text", 1, 11, "XML parse error at 1:11: missing end tag </b>"},
};

TEST(XmlPin, ParseErrors) {
  for (const ErrorCase& error_case : kErrorCases) {
    SCOPED_TRACE(error_case.input);
    try {
      (void)Parse(error_case.input);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& error) {
      EXPECT_EQ(error.line(), error_case.line);
      EXPECT_EQ(error.column(), error_case.column);
      EXPECT_STREQ(error.what(), error_case.message);
    }
  }
}

// 10,000 seeded byte flips, truncations and splices of the shipped
// documents. Each must parse or throw ParseError: no other exception, no
// crash (the ASan/UBSan presets run this too) and no hang.
TEST(XmlMutation, HostileInputParsesOrThrowsParseError) {
  const auto docs = ShippedDocuments();
  ASSERT_FALSE(docs.empty());
  sim::Rng rng(0x786d6c6d75746174ULL);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  // Bytes that steer the parser into its branches.
  static constexpr char kInteresting[] = "<>/!?-[]&#;=\"' \n\tax0";
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    std::string input = docs[pick(docs.size())].second;
    switch (i % 4) {
      case 0: {  // flip a few bytes
        const std::size_t flips = 1 + pick(4);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = pick(input.size());
          input[at] = rng.Bernoulli(0.5)
                          ? kInteresting[pick(sizeof kInteresting - 1)]
                          : static_cast<char>(pick(256));
        }
        break;
      }
      case 1:  // truncate
        input.resize(pick(input.size() + 1));
        break;
      case 2: {  // splice a prefix of one document onto a suffix of another
        const std::string& other = docs[pick(docs.size())].second;
        input = input.substr(0, pick(input.size() + 1)) +
                other.substr(pick(other.size() + 1));
        break;
      }
      default: {  // duplicate or delete a slice
        const std::size_t at = pick(input.size());
        const std::size_t len = 1 + pick(std::min<std::size_t>(
                                        64, input.size() - at));
        if (rng.Bernoulli(0.5)) {
          input.insert(at, input.substr(at, len));
        } else {
          input.erase(at, len);
        }
        break;
      }
    }
    try {
      (void)Parse(input);
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const std::exception& error) {
      FAIL() << "mutation " << i << " threw a non-ParseError: "
             << error.what();
    }
  }
  EXPECT_EQ(parsed + rejected, 10000);
  // The sweep exercises both outcomes.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace mobivine::xml
