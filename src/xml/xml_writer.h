// Serializer for the XML DOM. Output re-parses to a structurally equal
// tree (the round-trip property is tested in tests/xml_test.cpp).
#pragma once

#include <string>

#include "xml/xml_node.h"

namespace mobivine::xml {

struct WriteOptions {
  /// Spaces per nesting level; 0 writes everything on one line.
  int indent = 2;
  /// Emit the <?xml ...?> declaration.
  bool declaration = true;
};

/// Serialize a node subtree.
[[nodiscard]] std::string WriteNode(const Node& node,
                                    const WriteOptions& options = {});

/// Serialize a whole document.
[[nodiscard]] std::string WriteDocument(const Document& doc,
                                        const WriteOptions& options = {});

}  // namespace mobivine::xml
