#include "core/descriptor/planes.h"

#include <stdexcept>

namespace mobivine::core {

// ---------------------------------------------------------------------------
// Lookups
//
// The indexed fast paths are inline in planes.h; here live the index
// builders and the linear fallbacks for planes used standalone before
// finalization. The *Linear variants stay public so the regression suite
// can assert index/scan agreement.
// ---------------------------------------------------------------------------

void SemanticPlane::BuildIndex() {
  method_index.Clear();
  for (const auto& method : methods) method_index.Add(method.name);
  method_index.Freeze();
}

const MethodSpec* SemanticPlane::FindMethodLinear(std::string_view name) const {
  for (const auto& method : methods) {
    if (method.name == name) return &method;
  }
  return nullptr;
}

void SyntacticPlane::BuildIndex() {
  method_index.Clear();
  for (const auto& method : methods) method_index.Add(method.method);
  method_index.Freeze();
}

const MethodSyntax* SyntacticPlane::FindMethodLinear(
    std::string_view name) const {
  for (const auto& method : methods) {
    if (method.method == name) return &method;
  }
  return nullptr;
}

void BindingPlane::BuildIndex() {
  property_index.Clear();
  for (const auto& property : properties) property_index.Add(property.name);
  property_index.Freeze();
}

const PropertySpec* BindingPlane::FindPropertyLinear(
    std::string_view name) const {
  for (const auto& property : properties) {
    if (property.name == name) return &property;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {
std::vector<std::string> ParseAllowedValues(const xml::Node& parent) {
  std::vector<std::string> out;
  for (const xml::Node* child : parent.Children("allowedValue")) {
    out.push_back(child->InnerText());
  }
  return out;
}
}  // namespace

SemanticPlane ParseSemantic(const xml::Node& root) {
  if (root.name() != "proxy") {
    throw std::invalid_argument("semantic plane root must be <proxy>");
  }
  SemanticPlane plane;
  plane.interface_name = root.GetAttributeOr("name", "");
  plane.category = root.GetAttributeOr("category", plane.interface_name);
  plane.description = root.ChildTextOr("description", "");
  for (const xml::Node* method_node : root.Children("method")) {
    MethodSpec method;
    method.name = method_node->GetAttributeOr("name", "");
    method.description = method_node->ChildTextOr("description", "");
    for (const xml::Node* param_node : method_node->Children("parameter")) {
      ParameterSpec param;
      param.name = param_node->GetAttributeOr("name", "");
      param.dimension = param_node->GetAttributeOr("dimension", "");
      param.description = param_node->ChildTextOr("description", "");
      param.allowed_values = ParseAllowedValues(*param_node);
      method.parameters.push_back(std::move(param));
    }
    if (const xml::Node* callback = method_node->FirstChild("callback")) {
      method.callback_name = callback->GetAttributeOr("name", "");
    }
    if (const xml::Node* returns = method_node->FirstChild("returns")) {
      method.return_dimension = returns->GetAttributeOr("dimension", "void");
    } else {
      method.return_dimension = "void";
    }
    plane.methods.push_back(std::move(method));
  }
  return plane;
}

SyntacticPlane ParseSyntactic(const xml::Node& root) {
  if (root.name() != "syntax") {
    throw std::invalid_argument("syntactic plane root must be <syntax>");
  }
  SyntacticPlane plane;
  plane.proxy = root.GetAttributeOr("proxy", "");
  plane.language = root.GetAttributeOr("language", "");
  for (const xml::Node* method_node : root.Children("method")) {
    MethodSyntax method;
    method.method = method_node->GetAttributeOr("name", "");
    method.return_type = method_node->GetAttributeOr("returnType", "void");
    for (const xml::Node* param_node : method_node->Children("param")) {
      method.parameter_types.emplace_back(
          param_node->GetAttributeOr("type", ""));
    }
    if (const xml::Node* callback = method_node->FirstChild("callback")) {
      method.callback_type = callback->GetAttributeOr("type", "");
      method.callback_method = callback->GetAttributeOr("method", "");
    }
    plane.methods.push_back(std::move(method));
  }
  return plane;
}

BindingPlane ParseBinding(const xml::Node& root) {
  if (root.name() != "binding") {
    throw std::invalid_argument("binding plane root must be <binding>");
  }
  BindingPlane plane;
  plane.proxy = root.GetAttributeOr("proxy", "");
  plane.platform = root.GetAttributeOr("platform", "");
  plane.language = root.GetAttributeOr("language", "");
  if (const xml::Node* impl = root.FirstChild("implementation")) {
    plane.implementation_class = impl->GetAttributeOr("class", "");
  }
  for (const xml::Node* artifact : root.Children("artifact")) {
    plane.artifacts.push_back(artifact->InnerText());
  }
  for (const xml::Node* exception : root.Children("exception")) {
    ExceptionSpec spec;
    spec.native_type = exception->GetAttributeOr("native", "");
    spec.mapped_code = exception->GetAttributeOr("code", "unknown");
    plane.exceptions.push_back(std::move(spec));
  }
  for (const xml::Node* property : root.Children("property")) {
    PropertySpec spec;
    spec.name = property->GetAttributeOr("name", "");
    spec.type = property->GetAttributeOr("type", "string");
    spec.default_value = property->GetAttributeOr("default", "");
    spec.required = property->GetAttributeOr("required", "false") == "true";
    spec.description = property->ChildTextOr("description", "");
    spec.allowed_values = ParseAllowedValues(*property);
    plane.properties.push_back(std::move(spec));
  }
  return plane;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {
void AppendAllowedValues(xml::Document& doc, xml::Node& parent,
                         const std::vector<std::string>& values) {
  for (const std::string& value : values) {
    doc.AppendElement(parent, "allowedValue", value);
  }
}

xml::Node& NewRoot(xml::Document& doc, std::string_view name) {
  doc.root = doc.NewElement(name);
  return *doc.root;
}
}  // namespace

xml::Document ToXml(const SemanticPlane& plane) {
  xml::Document doc;
  xml::Node& root = NewRoot(doc, "proxy");
  doc.SetAttribute(root, "name", plane.interface_name);
  doc.SetAttribute(root, "category", plane.category);
  if (!plane.description.empty()) {
    doc.AppendElement(root, "description", plane.description);
  }
  for (const MethodSpec& method : plane.methods) {
    xml::Node& method_node = doc.AppendElement(root, "method");
    doc.SetAttribute(method_node, "name", method.name);
    if (!method.description.empty()) {
      doc.AppendElement(method_node, "description", method.description);
    }
    for (const ParameterSpec& param : method.parameters) {
      xml::Node& param_node = doc.AppendElement(method_node, "parameter");
      doc.SetAttribute(param_node, "name", param.name);
      doc.SetAttribute(param_node, "dimension", param.dimension);
      if (!param.description.empty()) {
        doc.AppendElement(param_node, "description", param.description);
      }
      AppendAllowedValues(doc, param_node, param.allowed_values);
    }
    if (!method.callback_name.empty()) {
      xml::Node& callback = doc.AppendElement(method_node, "callback");
      doc.SetAttribute(callback, "name", method.callback_name);
    }
    xml::Node& returns = doc.AppendElement(method_node, "returns");
    doc.SetAttribute(returns, "dimension", method.return_dimension);
  }
  return doc;
}

xml::Document ToXml(const SyntacticPlane& plane) {
  xml::Document doc;
  xml::Node& root = NewRoot(doc, "syntax");
  doc.SetAttribute(root, "proxy", plane.proxy);
  doc.SetAttribute(root, "language", plane.language);
  for (const MethodSyntax& method : plane.methods) {
    xml::Node& method_node = doc.AppendElement(root, "method");
    doc.SetAttribute(method_node, "name", method.method);
    doc.SetAttribute(method_node, "returnType", method.return_type);
    for (const std::string& type : method.parameter_types) {
      xml::Node& param = doc.AppendElement(method_node, "param");
      doc.SetAttribute(param, "type", type);
    }
    if (!method.callback_type.empty() || !method.callback_method.empty()) {
      xml::Node& callback = doc.AppendElement(method_node, "callback");
      doc.SetAttribute(callback, "type", method.callback_type);
      doc.SetAttribute(callback, "method", method.callback_method);
    }
  }
  return doc;
}

xml::Document ToXml(const BindingPlane& plane) {
  xml::Document doc;
  xml::Node& root = NewRoot(doc, "binding");
  doc.SetAttribute(root, "proxy", plane.proxy);
  doc.SetAttribute(root, "platform", plane.platform);
  doc.SetAttribute(root, "language", plane.language);
  if (!plane.implementation_class.empty()) {
    xml::Node& impl = doc.AppendElement(root, "implementation");
    doc.SetAttribute(impl, "class", plane.implementation_class);
  }
  for (const std::string& artifact : plane.artifacts) {
    doc.AppendElement(root, "artifact", artifact);
  }
  for (const ExceptionSpec& exception : plane.exceptions) {
    xml::Node& node = doc.AppendElement(root, "exception");
    doc.SetAttribute(node, "native", exception.native_type);
    doc.SetAttribute(node, "code", exception.mapped_code);
  }
  for (const PropertySpec& property : plane.properties) {
    xml::Node& node = doc.AppendElement(root, "property");
    doc.SetAttribute(node, "name", property.name);
    doc.SetAttribute(node, "type", property.type);
    if (!property.default_value.empty()) {
      doc.SetAttribute(node, "default", property.default_value);
    }
    if (property.required) doc.SetAttribute(node, "required", "true");
    if (!property.description.empty()) {
      doc.AppendElement(node, "description", property.description);
    }
    AppendAllowedValues(doc, node, property.allowed_values);
  }
  return doc;
}

}  // namespace mobivine::core
