#include "xml/xml_parser.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "support/small_vector.h"
#include "support/strings.h"

namespace mobivine::xml {

namespace {

// Character classes of the "C" locale, as the parser has always used them:
// isspace (space, \t, \n, \v, \f, \r) and ASCII letters and digits.
enum CharClass : std::uint8_t {
  kSpace = 1,
  kNameStart = 2,  // letter, '_' or ':'
  kNameChar = 4,   // name start, digit, '-' or '.'
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) table[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    if (letter || c == '_' || c == ':') table[c] |= kNameStart | kNameChar;
    if ((c >= '0' && c <= '9') || c == '-' || c == '.') table[c] |= kNameChar;
  }
  return table;
}();

bool Is(char c, CharClass cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// Arena bytes a parse of `input` can need at most: the source copy, the
/// decoded copy of every run with entities (never longer than the run),
/// and one node per '<' plus one text node before each '<' and at the
/// end, with an attribute per '='. Reserving this up front gives every
/// Document exactly one chunk.
std::size_t ArenaBound(std::string_view input, std::size_t node_bytes) {
  const auto count = [input](char c) {
    return static_cast<std::size_t>(std::count(input.begin(), input.end(), c));
  };
  constexpr std::size_t kPad = alignof(std::max_align_t);
  return 2 * input.size() + (2 * count('<') + 1) * (node_bytes + kPad) +
         count('=') * sizeof(Attribute) + kPad;
}

}  // namespace

/// Scans one document held in its Document's arena. Every failure site
/// reports the same message at the same byte offset as the original
/// character-at-a-time parser; the line and column are computed from the
/// offset only when a ParseError is thrown.
class Parser {
 public:
  static Document Run(std::string_view input) {
    Document doc;
    doc.arena_.Reserve(ArenaBound(input, sizeof(Node)));
    Parser(doc, doc.arena_.CopyString(input)).ParseDocument();
    return doc;
  }

 private:
  /// `source` is the document's own copy of the input.
  Parser(Document& doc, std::string_view source) : doc_(doc), in_(source) {}

  void ParseDocument() {
    SkipProlog();
    SkipMisc();
    if (AtEnd()) Fail("document has no root element");
    if (Peek() != '<') Fail("expected root element");
    doc_.root = ParseElement();
    SkipMisc();
    if (!AtEnd()) Fail("content after root element");
  }

  [[noreturn]] void Fail(const std::string& message) const {
    const std::string_view before = in_.substr(0, pos_);
    const std::size_t newline = before.rfind('\n');
    const int line =
        1 + static_cast<int>(std::count(before.begin(), before.end(), '\n'));
    const std::size_t line_start =
        newline == std::string_view::npos ? 0 : newline + 1;
    throw ParseError(message, line, static_cast<int>(pos_ - line_start) + 1);
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool PeekIs(std::string_view s) const {
    return in_.substr(pos_).starts_with(s);
  }

  void Expect(char c) {
    if (AtEnd() || Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void ExpectLiteral(std::string_view s) {
    if (!PeekIs(s)) Fail("expected '" + std::string(s) + "'");
    pos_ += s.size();
  }

  void SkipWhitespace() {
    while (!AtEnd() && Is(Peek(), kSpace)) ++pos_;
  }

  /// Skip whitespace and comments between top-level constructs.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (!PeekIs("<!--")) return;
      SkipComment();
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    if (!PeekIs("<?xml")) return;
    pos_ += 5;
    while (!AtEnd() && !PeekIs("?>")) {
      SkipWhitespace();
      if (PeekIs("?>")) break;
      const std::string_view name = ParseName();
      SkipWhitespace();
      Expect('=');
      SkipWhitespace();
      const std::string_view value = ParseQuotedValue();
      if (name == "version") doc_.version = value;
      if (name == "encoding") doc_.encoding = value;
    }
    ExpectLiteral("?>");
  }

  void SkipComment() {
    pos_ += 4;  // "<!--", checked by the caller
    const std::size_t end = in_.find("-->", pos_);
    if (end == std::string_view::npos) {
      pos_ = in_.size();
      Fail("unterminated comment");
    }
    pos_ = end + 3;
  }

  std::string_view ParseName() {
    if (AtEnd() || !Is(Peek(), kNameStart)) Fail("expected a name");
    const std::size_t start = pos_++;
    while (!AtEnd() && Is(Peek(), kNameChar)) ++pos_;
    return in_.substr(start, pos_ - start);
  }

  std::string_view ParseQuotedValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      Fail("expected a quoted attribute value");
    }
    const char quote = in_[pos_++];
    const std::size_t start = pos_;
    std::size_t close = in_.find(quote, start);
    const std::size_t scan_end =
        close == std::string_view::npos ? in_.size() : close;
    const void* lt = std::memchr(in_.data() + start, '<', scan_end - start);
    if (lt != nullptr) {
      pos_ = static_cast<const char*>(lt) - in_.data();
      Fail("'<' not allowed in attribute value");
    }
    if (close == std::string_view::npos) {
      pos_ = in_.size();
      Fail("unterminated attribute value");
    }
    pos_ = close + 1;
    return Decode(in_.substr(start, close - start));
  }

  /// `raw` itself when it has no '&'; otherwise its decoded text, written
  /// into the arena. Errors are reported at the current position.
  std::string_view Decode(std::string_view raw) {
    std::size_t amp = raw.find('&');
    if (amp == std::string_view::npos) return raw;
    // Every entity is longer than the character it stands for.
    char* const out = static_cast<char*>(doc_.arena_.Allocate(raw.size(), 1));
    std::size_t length = 0;
    std::size_t i = 0;
    while (amp != std::string_view::npos) {
      std::memcpy(out + length, raw.data() + i, amp - i);
      length += amp - i;
      const std::size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) Fail("unterminated entity");
      out[length++] = DecodeEntity(raw.substr(amp + 1, semi - amp - 1));
      i = semi + 1;
      amp = raw.find('&', i);
    }
    std::memcpy(out + length, raw.data() + i, raw.size() - i);
    length += raw.size() - i;
    return {out, length};
  }

  char DecodeEntity(std::string_view entity) {
    if (entity == "lt") return '<';
    if (entity == "gt") return '>';
    if (entity == "amp") return '&';
    if (entity == "quot") return '"';
    if (entity == "apos") return '\'';
    if (entity.empty() || entity[0] != '#') {
      Fail("unknown entity '&" + std::string(entity) + ";'");
    }
    long long code = 0;
    bool ok;
    if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
      ok = entity.size() > 2;
      for (std::size_t k = 2; ok && k < entity.size(); ++k) {
        const char c = entity[k];
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          ok = false;
          break;
        }
        // Past 127 the reference is rejected anyway; stop growing so a
        // long digit run cannot overflow.
        if (code <= 127) code = code * 16 + digit;
      }
    } else {
      ok = support::ParseInt(entity.substr(1), code);
    }
    if (!ok || code <= 0 || code > 127) {
      Fail("unsupported character reference '&" + std::string(entity) +
           ";'");
    }
    return static_cast<char>(code);
  }

  /// Add the text run [start, pos_) to `element`, if it is not empty.
  void FlushText(Node& element, std::size_t start) {
    if (start == pos_) return;
    const std::string_view text = Decode(in_.substr(start, pos_ - start));
    doc_.AppendChild(element, doc_.NewNode(NodeType::kText, text));
  }

  Node* ParseElement() {
    ++pos_;  // '<', checked by the caller
    const std::string_view name = ParseName();
    Node* element = doc_.NewNode(NodeType::kElement, name);

    // Attributes, collected here and then copied into the arena at their
    // final size.
    attributes_.clear();
    while (true) {
      SkipWhitespace();
      if (AtEnd()) Fail("unterminated start tag <" + std::string(name) + ">");
      if (Peek() == '>' || PeekIs("/>")) break;
      const std::string_view attr = ParseName();
      for (const Attribute& seen : attributes_) {
        if (seen.name == attr) {
          Fail("duplicate attribute '" + std::string(attr) + "' on <" +
               std::string(name) + ">");
        }
      }
      SkipWhitespace();
      Expect('=');
      SkipWhitespace();
      attributes_.push_back({attr, ParseQuotedValue()});
    }
    if (!attributes_.empty()) {
      const auto count = static_cast<std::uint32_t>(attributes_.size());
      auto* stored = static_cast<Attribute*>(doc_.arena_.Allocate(
          count * sizeof(Attribute), alignof(Attribute)));
      std::copy(attributes_.begin(), attributes_.end(), stored);
      element->attributes_ = stored;
      element->attribute_count_ = count;
    }

    if (PeekIs("/>")) {
      pos_ += 2;
      return element;
    }
    ++pos_;  // '>'

    // Content until the matching end tag: text runs up to each '<'.
    while (true) {
      const std::size_t text_start = pos_;
      const std::size_t lt = in_.find('<', pos_);
      if (lt == std::string_view::npos) {
        pos_ = in_.size();
        Fail("missing end tag </" + std::string(name) + ">");
      }
      pos_ = lt;
      if (PeekIs("</")) {
        FlushText(*element, text_start);
        pos_ += 2;
        const std::string_view end_name = ParseName();
        if (end_name != name) {
          Fail("mismatched end tag: expected </" + std::string(name) +
               ">, got </" + std::string(end_name) + ">");
        }
        SkipWhitespace();
        Expect('>');
        return element;
      }
      if (PeekIs("<!--")) {
        FlushText(*element, text_start);
        SkipComment();
        continue;
      }
      if (PeekIs("<![CDATA[")) {
        FlushText(*element, text_start);
        pos_ += 9;
        const std::size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          pos_ = in_.size();
          Fail("unterminated CDATA section");
        }
        doc_.AppendChild(*element, doc_.NewNode(NodeType::kCData,
                                                in_.substr(pos_, end - pos_)));
        pos_ = end + 3;
        continue;
      }
      if (PeekIs("<!") || PeekIs("<?")) {
        Fail("DTDs and processing instructions are not supported");
      }
      FlushText(*element, text_start);
      doc_.AppendChild(*element, ParseElement());
    }
  }

  Document& doc_;
  const std::string_view in_;
  std::size_t pos_ = 0;
  support::SmallVector<Attribute, 8> attributes_;  // current start tag
};

ParseError::ParseError(std::string message, int line, int column)
    : std::runtime_error("XML parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

Document Parse(std::string_view input) { return Parser::Run(input); }

}  // namespace mobivine::xml
