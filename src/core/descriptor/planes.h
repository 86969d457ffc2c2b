// Data model for the three planes of an M-Proxy descriptor (paper §3.1).
//
//  * Semantic plane  — platform-neutral interface structure: method names,
//    parameter names/dimensions/allowed values, return dimension.
//  * Syntactic plane — per-language concrete types for the same methods.
//  * Binding plane   — per-platform implementation module, property list
//    and native exception set.
//
// Instances are parsed from XML documents validated against the five
// schemas in core/descriptor/schemas.h, and can be serialized back; a
// round-trip preserves structure (tested).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/name_index.h"
#include "xml/xml_node.h"

namespace mobivine::core {

// ---------------------------------------------------------------------------
// Semantic plane
// ---------------------------------------------------------------------------

struct ParameterSpec {
  std::string name;
  /// Unit / meaning, e.g. "degrees", "meters", "milliseconds", "text".
  std::string dimension;
  std::string description;
  std::vector<std::string> allowed_values;  // empty = unconstrained
};

struct MethodSpec {
  std::string name;
  std::vector<ParameterSpec> parameters;
  /// Name of the callback parameter, empty if none. Callbacks are listed
  /// separately because every plane refines them differently (object vs
  /// function vs polled).
  std::string callback_name;
  std::string return_dimension;  // "void", "location", "identifier", ...
  std::string description;
};

struct SemanticPlane {
  std::string interface_name;  // "Location", "Sms", "Call", "Http"
  std::string category;        // drawer category (usually == interface_name)
  std::string description;
  std::vector<MethodSpec> methods;
  /// Built at DescriptorStore::Finalize() time; `methods` must not change
  /// afterwards. Find falls back to a linear scan while unbuilt.
  support::NameIndex method_index;

  void BuildIndex();
  [[nodiscard]] const MethodSpec* FindMethod(std::string_view name) const;
  [[nodiscard]] const MethodSpec* FindMethodLinear(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Syntactic plane
// ---------------------------------------------------------------------------

struct MethodSyntax {
  std::string method;  // must exist in the semantic plane
  /// One concrete type per semantic parameter, in order.
  std::vector<std::string> parameter_types;
  std::string return_type;
  /// Callback realization for this language: a type (Java listener object)
  /// or "function" (JavaScript), plus the callback method name invoked.
  std::string callback_type;
  std::string callback_method;
};

struct SyntacticPlane {
  std::string proxy;     // semantic interface_name this refines
  std::string language;  // "java" | "javascript"
  std::vector<MethodSyntax> methods;
  support::NameIndex method_index;  // see SemanticPlane::method_index

  void BuildIndex();
  [[nodiscard]] const MethodSyntax* FindMethod(std::string_view name) const;
  [[nodiscard]] const MethodSyntax* FindMethodLinear(
      std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Binding plane
// ---------------------------------------------------------------------------

struct PropertySpec {
  std::string name;
  std::string description;
  /// "string" | "int" | "double" | "bool" | "handle" (opaque native value)
  std::string type;
  std::string default_value;  // empty = no default
  std::vector<std::string> allowed_values;
  bool required = false;
};

struct ExceptionSpec {
  /// Native exception type, e.g. "javax.microedition.location.LocationException".
  std::string native_type;
  /// Unified ErrorCode name it maps to (core::ToString(ErrorCode)).
  std::string mapped_code;
};

struct BindingPlane {
  std::string proxy;     // semantic interface_name this implements
  std::string platform;  // "android" | "s60" | "webview"
  std::string language;  // which syntactic plane it binds ("java"/"javascript")
  std::string implementation_class;
  /// Implementation artifacts the plugin embeds (jar names, JS files).
  std::vector<std::string> artifacts;
  std::vector<ExceptionSpec> exceptions;
  std::vector<PropertySpec> properties;
  support::NameIndex property_index;  // see SemanticPlane::method_index

  void BuildIndex();
  [[nodiscard]] const PropertySpec* FindProperty(std::string_view name) const;
  [[nodiscard]] const PropertySpec* FindPropertyLinear(
      std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Lookup fast paths. Inline so the five-deep resolution chain
// (store -> descriptor -> binding -> property/method/syntax) compiles to
// index probes without call overhead; the *Linear fallbacks live in
// planes.cpp and serve both pre-Finalize planes and the regression tests.
// ---------------------------------------------------------------------------

inline const MethodSpec* SemanticPlane::FindMethod(
    std::string_view name) const {
  if (method_index.built()) {
    const std::uint32_t slot = method_index.Lookup(name);
    return slot == support::NameIndex::npos ? nullptr : &methods[slot];
  }
  return FindMethodLinear(name);
}

inline const MethodSyntax* SyntacticPlane::FindMethod(
    std::string_view name) const {
  if (method_index.built()) {
    const std::uint32_t slot = method_index.Lookup(name);
    return slot == support::NameIndex::npos ? nullptr : &methods[slot];
  }
  return FindMethodLinear(name);
}

inline const PropertySpec* BindingPlane::FindProperty(
    std::string_view name) const {
  if (property_index.built()) {
    const std::uint32_t slot = property_index.Lookup(name);
    return slot == support::NameIndex::npos ? nullptr : &properties[slot];
  }
  return FindPropertyLinear(name);
}

// ---------------------------------------------------------------------------
// XML conversion (formats documented in descriptors/README and checked by
// the schemas)
// ---------------------------------------------------------------------------

[[nodiscard]] SemanticPlane ParseSemantic(const xml::Node& root);
[[nodiscard]] SyntacticPlane ParseSyntactic(const xml::Node& root);
[[nodiscard]] BindingPlane ParseBinding(const xml::Node& root);

/// Each returns a Document whose root is the plane's element.
[[nodiscard]] xml::Document ToXml(const SemanticPlane& plane);
[[nodiscard]] xml::Document ToXml(const SyntacticPlane& plane);
[[nodiscard]] xml::Document ToXml(const BindingPlane& plane);

}  // namespace mobivine::core
