#include "xml/xml_node.h"

#include <algorithm>
#include <new>

#include "support/strings.h"

namespace mobivine::xml {

namespace {

bool IsTextLike(const Node& node) {
  return node.type() == NodeType::kText || node.type() == NodeType::kCData;
}

bool IsBlank(std::string_view text) { return support::Trim(text).empty(); }

}  // namespace

// ---------------------------------------------------------------------------
// NodeRange
// ---------------------------------------------------------------------------

void NodeRange::Iterator::SkipUnmatched() {
  while (node_ != nullptr && filter_ != Filter::kAll &&
         (node_->type() != NodeType::kElement ||
          (filter_ == Filter::kNamed && node_->value_ != name_))) {
    node_ = node_->next_sibling_;
  }
}

NodeRange::Iterator& NodeRange::Iterator::operator++() {
  node_ = node_->next_sibling_;
  SkipUnmatched();
  return *this;
}

NodeRange::Iterator NodeRange::begin() const {
  Iterator it(first_, filter_, name_);
  it.SkipUnmatched();
  return it;
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

std::optional<std::string_view> Node::GetAttribute(
    std::string_view name) const {
  for (const Attribute& attr : attributes()) {
    if (attr.name == name) return attr.value;
  }
  return std::nullopt;
}

std::string_view Node::GetAttributeOr(std::string_view name,
                                      std::string_view fallback) const {
  return GetAttribute(name).value_or(fallback);
}

bool Node::HasAttribute(std::string_view name) const {
  return GetAttribute(name).has_value();
}

const Node* Node::FirstChild(std::string_view name) const {
  return *Children(name).begin();
}

std::string Node::InnerText() const {
  // Most elements have one text child; its trimmed view is copied once.
  std::string_view single;
  std::string joined;
  int pieces = 0;
  for (const Node* child : children()) {
    if (!IsTextLike(*child)) continue;
    if (++pieces == 1) {
      single = child->value_;
      continue;
    }
    if (pieces == 2) joined = single;
    joined += child->value_;
  }
  return std::string(support::Trim(pieces > 1 ? joined : single));
}

bool Node::HasInnerText() const {
  // The concatenation trims to empty exactly when every piece is blank.
  for (const Node* child : children()) {
    if (IsTextLike(*child) && !IsBlank(child->value_)) return true;
  }
  return false;
}

std::optional<std::string> Node::ChildText(std::string_view name) const {
  const Node* child = FirstChild(name);
  if (!child) return std::nullopt;
  return child->InnerText();
}

std::string Node::ChildTextOr(std::string_view name,
                              std::string_view fallback) const {
  const Node* child = FirstChild(name);
  return child ? child->InnerText() : std::string(fallback);
}

bool Node::StructurallyEquals(const Node& other) const {
  if (type_ != other.type_) return false;
  if (type_ == NodeType::kText) {
    // Meaningful text compares trimmed: indentation differences between a
    // pretty-printed source and its serialization are not structural.
    return support::Trim(value_) == support::Trim(other.value_);
  }
  if (type_ != NodeType::kElement) return value_ == other.value_;
  if (value_ != other.value_) return false;
  if (!std::equal(attributes().begin(), attributes().end(),
                  other.attributes().begin(), other.attributes().end(),
                  [](const Attribute& a, const Attribute& b) {
                    return a.name == b.name && a.value == b.value;
                  })) {
    return false;
  }
  // Compare children, skipping comments and whitespace-only text on both
  // sides (pretty-printing must not affect structural identity).
  auto significant = [](const Node* node) {
    while (node != nullptr &&
           (node->type_ == NodeType::kComment ||
            (node->type_ == NodeType::kText && IsBlank(node->value_)))) {
      node = node->next_sibling_;
    }
    return node;
  };
  const Node* mine = significant(first_child_);
  const Node* theirs = significant(other.first_child_);
  while (mine != nullptr && theirs != nullptr) {
    if (!mine->StructurallyEquals(*theirs)) return false;
    mine = significant(mine->next_sibling_);
    theirs = significant(theirs->next_sibling_);
  }
  return mine == nullptr && theirs == nullptr;
}

// ---------------------------------------------------------------------------
// Document
// ---------------------------------------------------------------------------

Document& Document::operator=(Document&& other) noexcept {
  if (this != &other) {
    arena_ = std::move(other.arena_);
    root = std::exchange(other.root, nullptr);
    version = std::exchange(other.version, "1.0");
    encoding = std::exchange(other.encoding, "UTF-8");
  }
  return *this;
}

Node* Document::NewNode(NodeType type, std::string_view value) {
  return ::new (arena_.Allocate(sizeof(Node), alignof(Node)))
      Node(type, value);
}

Node* Document::NewElement(std::string_view name) {
  return NewNode(NodeType::kElement, arena_.CopyString(name));
}

Node* Document::NewText(std::string_view text) {
  return NewNode(NodeType::kText, arena_.CopyString(text));
}

void Document::SetAttribute(Node& element, std::string_view name,
                            std::string_view value) {
  for (Attribute& attr :
       std::span(element.attributes_, element.attribute_count_)) {
    if (attr.name == name) {
      attr.value = arena_.CopyString(value);
      return;
    }
  }
  // Attributes are few: copy them into an array one longer. The old array
  // stays behind in the arena.
  const std::uint32_t count = element.attribute_count_;
  auto* grown = static_cast<Attribute*>(
      arena_.Allocate((count + 1) * sizeof(Attribute), alignof(Attribute)));
  std::copy_n(element.attributes_, count, grown);
  grown[count] = {arena_.CopyString(name), arena_.CopyString(value)};
  element.attributes_ = grown;
  element.attribute_count_ = count + 1;
}

Node& Document::AppendChild(Node& parent, Node* child) {
  if (parent.last_child_ == nullptr) {
    parent.first_child_ = child;
  } else {
    parent.last_child_->next_sibling_ = child;
  }
  parent.last_child_ = child;
  return *child;
}

Node& Document::AppendElement(Node& parent, std::string_view name,
                              std::string_view text) {
  Node& element = AppendChild(parent, NewElement(name));
  if (!text.empty()) AppendChild(element, NewText(text));
  return element;
}

Node* Document::Clone(const Node& node) {
  Node* copy = NewNode(node.type_, arena_.CopyString(node.value_));
  for (const Attribute& attr : node.attributes()) {
    SetAttribute(*copy, attr.name, attr.value);
  }
  for (const Node* child : node.children()) AppendChild(*copy, Clone(*child));
  return copy;
}

}  // namespace mobivine::xml
