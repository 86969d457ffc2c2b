// Structural schema validation for descriptor documents.
//
// The paper defines five XML Schemas for M-Proxy descriptors (semantic
// plane; Java and JavaScript syntactic planes; Java and JavaScript binding
// planes). This module provides the validation machinery: a Schema is a set
// of per-element rules (required/optional attributes, child cardinalities,
// whether text content is allowed), and Validate() walks a DOM tree and
// reports every violation with an XPath-like location. A valid document
// is checked without touching the heap: locations are built, and child
// counts spill out of their inline table, only when needed.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "xml/xml_node.h"

namespace mobivine::xml {

/// Cardinality bounds for a child element; max < 0 means unbounded.
struct Occurs {
  int min = 0;
  int max = -1;
};
inline constexpr int kUnbounded = -1;

enum class TextPolicy {
  kForbidden,  ///< element may not contain non-whitespace text
  kAllowed,    ///< text is optional
  kRequired,   ///< element must contain non-whitespace text
};

/// Rule for one element name.
struct ElementRule {
  std::vector<std::string> required_attributes;
  std::vector<std::string> optional_attributes;
  /// Allowed child element name -> cardinality. Children not listed are
  /// violations unless `open_content` is set.
  std::map<std::string, Occurs, std::less<>> children;
  TextPolicy text = TextPolicy::kForbidden;
  /// Accept child elements that are not listed (they are skipped, not
  /// descended into unless they have their own rule).
  bool open_content = false;
};

/// One schema violation, with an XPath-like location such as
/// "/proxy/parameter[2]/name".
struct Violation {
  std::string path;
  std::string message;
};

class Schema {
 public:
  Schema(std::string name, std::string root_element)
      : name_(std::move(name)), root_element_(std::move(root_element)) {}

  const std::string& name() const { return name_; }
  const std::string& root_element() const { return root_element_; }

  /// Register (or replace) the rule for an element name.
  Schema& Rule(std::string element, ElementRule rule);

  /// Validate `root` against this schema. Returns all violations found
  /// (empty = valid).
  [[nodiscard]] std::vector<Violation> Validate(const Node& root) const;

 private:
  struct PathFrame;
  void ValidateElement(const Node& element, const PathFrame& path,
                       std::vector<Violation>& out) const;

  std::string name_;
  std::string root_element_;
  std::map<std::string, ElementRule, std::less<>> rules_;
};

/// Render violations as a single human-readable report.
[[nodiscard]] std::string FormatViolations(
    const std::vector<Violation>& violations);

}  // namespace mobivine::xml
