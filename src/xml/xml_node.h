// A small XML document object model.
//
// Supports the XML subset MobiVine's proxy descriptors need: elements,
// attributes, text content, comments and CDATA. Namespaces are treated as
// plain prefixes (descriptor schemas do not use them).
//
// A Document owns one bump arena (support::Arena) that holds everything
// the tree refers to: the copy of the source a parsed document was read
// from, every Node, every attribute array, and the text of any run that
// had entities to decode. Names, values and text are string_views into
// that arena, so no Node or view outlives its Document, and nothing in
// the tree is freed before the whole Document is. Children form an
// intrusive list (first child, next sibling), so building a tree never
// allocates a container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "support/arena.h"

namespace mobivine::xml {

enum class NodeType : std::uint8_t { kElement, kText, kComment, kCData };

struct Attribute {
  std::string_view name;
  std::string_view value;
};

class Node;

/// Forward range over a node's children: every child, or only the child
/// elements (optionally only those with one name). Iterating yields
/// `const Node*`.
class NodeRange {
 public:
  enum class Filter : std::uint8_t { kAll, kElements, kNamed };

  class Iterator {
   public:
    using value_type = const Node*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iterator() = default;
    const Node* operator*() const { return node_; }
    Iterator& operator++();
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return node_ == other.node_;
    }

   private:
    friend class NodeRange;
    Iterator(const Node* node, Filter filter, std::string_view name)
        : node_(node), name_(name), filter_(filter) {}
    void SkipUnmatched();

    const Node* node_ = nullptr;
    std::string_view name_;
    Filter filter_ = Filter::kAll;
  };

  NodeRange(const Node* first, Filter filter, std::string_view name = {})
      : first_(first), name_(name), filter_(filter) {}

  Iterator begin() const;
  Iterator end() const { return {}; }
  [[nodiscard]] bool empty() const { return begin() == end(); }

 private:
  const Node* first_;
  std::string_view name_;
  Filter filter_;
};

/// One node of an XML tree. Element nodes have a name, attributes and
/// children; text/comment/CDATA nodes only carry `text`. Nodes live in a
/// Document's arena and are created and linked only through it.
class Node {
 public:
  NodeType type() const { return type_; }
  /// Element name; empty for other node types.
  std::string_view name() const {
    return type_ == NodeType::kElement ? value_ : std::string_view();
  }
  /// Content of a text, comment or CDATA node; empty for elements.
  std::string_view text() const {
    return type_ == NodeType::kElement ? std::string_view() : value_;
  }

  // --- attributes (element nodes only) ---------------------------------
  std::span<const Attribute> attributes() const {
    return {attributes_, attribute_count_};
  }
  /// Views into the owning Document; nothing is copied.
  [[nodiscard]] std::optional<std::string_view> GetAttribute(
      std::string_view name) const;
  [[nodiscard]] std::string_view GetAttributeOr(
      std::string_view name, std::string_view fallback) const;
  [[nodiscard]] bool HasAttribute(std::string_view name) const;

  // --- children ---------------------------------------------------------
  /// Every child, in document order.
  NodeRange children() const {
    return {first_child_, NodeRange::Filter::kAll};
  }
  /// Child elements with the given name (empty name = all elements).
  [[nodiscard]] NodeRange Children(std::string_view name = {}) const {
    return {first_child_, name.empty() ? NodeRange::Filter::kElements
                                       : NodeRange::Filter::kNamed,
            name};
  }
  /// First child element with the given name, or nullptr.
  [[nodiscard]] const Node* FirstChild(std::string_view name) const;

  /// Concatenated text of all direct text/CDATA children, whitespace-trimmed.
  [[nodiscard]] std::string InnerText() const;
  /// Whether InnerText() is non-empty, answered without building it.
  [[nodiscard]] bool HasInnerText() const;

  /// Text of child element `name`, if present (trimmed).
  [[nodiscard]] std::optional<std::string> ChildText(
      std::string_view name) const;
  [[nodiscard]] std::string ChildTextOr(std::string_view name,
                                        std::string_view fallback) const;

  /// Deep structural equality (attribute order significant, comments
  /// ignored). Used by round-trip tests.
  [[nodiscard]] bool StructurallyEquals(const Node& other) const;

 private:
  friend class Document;
  friend class NodeRange::Iterator;
  friend class Parser;

  Node(NodeType type, std::string_view value) : type_(type), value_(value) {}

  NodeType type_;
  std::uint32_t attribute_count_ = 0;
  std::string_view value_;  // element name, or node text
  Attribute* attributes_ = nullptr;
  Node* first_child_ = nullptr;
  Node* last_child_ = nullptr;
  Node* next_sibling_ = nullptr;
};

/// A document: optional XML declaration plus one root element, and the
/// arena that owns both (see the file comment). Move-only; moving keeps
/// every Node and view valid.
class Document {
 public:
  Document() = default;
  Document(Document&& other) noexcept { *this = std::move(other); }
  Document& operator=(Document&& other) noexcept;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// The root element; null in a document that is still being built.
  Node* root = nullptr;
  std::string_view version = "1.0";
  std::string_view encoding = "UTF-8";

  // --- building: every string passed in is copied into the arena -------
  Node* NewElement(std::string_view name);
  Node* NewText(std::string_view text);
  /// Set (or replace) an attribute of `element`.
  void SetAttribute(Node& element, std::string_view name,
                    std::string_view value);
  /// Link `child`, a node of this Document not yet in the tree, as the
  /// last child of `parent`.
  Node& AppendChild(Node& parent, Node* child);
  /// Append `<name>text</name>` (no text node when `text` is empty) and
  /// return the new element.
  Node& AppendElement(Node& parent, std::string_view name,
                      std::string_view text = {});
  /// Deep copy of `node`, which may belong to another Document.
  Node* Clone(const Node& node);

 private:
  friend class Parser;

  /// A node whose `value` already lives in this document's arena.
  Node* NewNode(NodeType type, std::string_view value);

  support::Arena arena_;
};

}  // namespace mobivine::xml
