// Parser for the XML subset used by MobiVine descriptors.
//
// Supported: XML declaration, elements with attributes (single- or
// double-quoted), nested elements, text content, comments, CDATA sections,
// the five predefined entities and numeric character references (&#NN; and
// &#xNN;, ASCII range). Not supported (rejected with a ParseError): DTDs,
// processing instructions other than the declaration, and mismatched tags.
//
// The parsed Document copies the input into its arena; names, values and
// text are views into that copy, except runs with entities, which are
// decoded into the arena next to it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "xml/xml_node.h"

namespace mobivine::xml {

/// Thrown on malformed input; carries 1-based line/column of the failure
/// (columns count bytes).
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Parse a complete document. Throws ParseError on malformed input.
[[nodiscard]] Document Parse(std::string_view input);

}  // namespace mobivine::xml
