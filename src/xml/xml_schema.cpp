#include "xml/xml_schema.h"

#include "support/small_vector.h"

namespace mobivine::xml {

/// One step of an element's location, linked to its parent's. The
/// location string is only assembled when a violation is recorded.
struct Schema::PathFrame {
  const PathFrame* parent;
  std::string_view name;
  int index;  // 1-based among same-named siblings; 0 prints no index

  std::string ToString() const {
    std::string out = parent ? parent->ToString() : std::string();
    out += '/';
    out += name;
    if (index > 0) out += "[" + std::to_string(index) + "]";
    return out;
  }
};

namespace {

/// Occurrences of one child element name under the element being checked.
struct ChildCount {
  std::string_view name;
  int count;
};

}  // namespace

Schema& Schema::Rule(std::string element, ElementRule rule) {
  rules_[std::move(element)] = std::move(rule);
  return *this;
}

std::vector<Violation> Schema::Validate(const Node& root) const {
  std::vector<Violation> out;
  if (root.type() != NodeType::kElement) {
    out.push_back({"/", "root node is not an element"});
    return out;
  }
  const std::string name(root.name());
  if (name != root_element_) {
    out.push_back({"/" + name, "expected root element <" + root_element_ +
                                   ">, found <" + name + ">"});
    return out;
  }
  ValidateElement(root, PathFrame{nullptr, root.name(), 0}, out);
  return out;
}

void Schema::ValidateElement(const Node& element, const PathFrame& path,
                             std::vector<Violation>& out) const {
  auto it = rules_.find(element.name());
  if (it == rules_.end()) {
    // No rule: nothing to check here, but still descend into children that
    // do have rules so nested violations are not masked.
    for (const Node* child : element.Children()) {
      if (rules_.contains(child->name())) {
        ValidateElement(*child, PathFrame{&path, child->name(), 0}, out);
      }
    }
    return;
  }
  const ElementRule& rule = it->second;
  auto report = [&](std::string message) {
    out.push_back({path.ToString(), std::move(message)});
  };

  // Attributes.
  for (const auto& required : rule.required_attributes) {
    if (!element.HasAttribute(required)) {
      report("missing required attribute '" + required + "'");
    }
  }
  for (const Attribute& attr : element.attributes()) {
    bool known = false;
    for (const auto& name : rule.required_attributes) {
      if (name == attr.name) known = true;
    }
    for (const auto& name : rule.optional_attributes) {
      if (name == attr.name) known = true;
    }
    if (!known) {
      report("unexpected attribute '" + std::string(attr.name) + "'");
    }
  }

  // Text content.
  if (rule.text != TextPolicy::kAllowed) {
    const bool has_text = element.HasInnerText();
    if (rule.text == TextPolicy::kForbidden && has_text) {
      report("text content not allowed");
    }
    if (rule.text == TextPolicy::kRequired && !has_text) {
      report("text content required");
    }
  }

  // Children: count occurrences per name (the count so far is also the
  // child's index in its path), check bounds and unknown names.
  support::SmallVector<ChildCount, 8> counts;
  auto count_of = [&counts](std::string_view name) -> int* {
    for (ChildCount& entry : counts) {
      if (entry.name == name) return &entry.count;
    }
    return nullptr;
  };
  for (const Node* child : element.Children()) {
    int* count = count_of(child->name());
    if (count == nullptr) {
      count = &counts.emplace_back(ChildCount{child->name(), 0}).count;
    }
    const PathFrame child_path{&path, child->name(), ++*count};
    if (!rule.children.contains(child->name())) {
      if (!rule.open_content) {
        report("unexpected child element <" + std::string(child->name()) +
               ">");
      }
      // Descend anyway if the child has a rule of its own.
      if (!rules_.contains(child->name())) continue;
    }
    ValidateElement(*child, child_path, out);
  }
  for (const auto& [name, occurs] : rule.children) {
    const int* found = count_of(name);
    const int count = found ? *found : 0;
    if (count < occurs.min) {
      report("element <" + name + "> occurs " + std::to_string(count) +
             " time(s), minimum " + std::to_string(occurs.min));
    }
    if (occurs.max >= 0 && count > occurs.max) {
      report("element <" + name + "> occurs " + std::to_string(count) +
             " time(s), maximum " + std::to_string(occurs.max));
    }
  }
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::string out;
  for (const auto& violation : violations) {
    out += violation.path;
    out += ": ";
    out += violation.message;
    out += '\n';
  }
  return out;
}

}  // namespace mobivine::xml
