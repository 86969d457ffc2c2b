#include "xml/xml_writer.h"

namespace mobivine::xml {

namespace {

void WriteIndent(std::string& out, int depth, int indent) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(depth * indent), ' ');
}

bool HasElementChildren(const Node& node) {
  for (const Node* child : node.children()) {
    if (child->type() == NodeType::kElement ||
        child->type() == NodeType::kComment) {
      return true;
    }
  }
  return false;
}

/// Escape text content (&, <, >) or an attribute value (also " and ').
void AppendEscaped(std::string& out, std::string_view text, bool attribute) {
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += attribute ? "&quot;" : "\"";
        break;
      case '\'':
        out += attribute ? "&apos;" : "'";
        break;
      default:
        out += c;
    }
  }
}

void WriteNodeImpl(std::string& out, const Node& node, int depth,
                   const WriteOptions& options) {
  switch (node.type()) {
    case NodeType::kText:
      AppendEscaped(out, node.text(), /*attribute=*/false);
      return;
    case NodeType::kComment:
      out += "<!--";
      out += node.text();
      out += "-->";
      return;
    case NodeType::kCData:
      out += "<![CDATA[";
      out += node.text();
      out += "]]>";
      return;
    case NodeType::kElement:
      break;
  }

  out += '<';
  out += node.name();
  for (const Attribute& attr : node.attributes()) {
    out += ' ';
    out += attr.name;
    out += "=\"";
    AppendEscaped(out, attr.value, /*attribute=*/true);
    out += '"';
  }
  if (node.children().empty()) {
    out += "/>";
    return;
  }
  out += '>';

  const bool block = HasElementChildren(node);
  for (const Node* child : node.children()) {
    if (block && child->type() != NodeType::kText) {
      WriteIndent(out, depth + 1, options.indent);
    }
    WriteNodeImpl(out, *child, depth + 1, options);
  }
  if (block) WriteIndent(out, depth, options.indent);
  out += "</";
  out += node.name();
  out += '>';
}

}  // namespace

std::string WriteNode(const Node& node, const WriteOptions& options) {
  std::string out;
  WriteNodeImpl(out, node, 0, options);
  return out;
}

std::string WriteDocument(const Document& doc, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"";
    out += doc.version;
    out += "\" encoding=\"";
    out += doc.encoding;
    out += "\"?>";
    if (options.indent > 0) out += '\n';
  }
  if (doc.root) WriteNodeImpl(out, *doc.root, 0, options);
  if (options.indent > 0) out += '\n';
  return out;
}

}  // namespace mobivine::xml
