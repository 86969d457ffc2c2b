#include "core/descriptor/schemas.h"

namespace mobivine::core {

namespace {

xml::Schema BuildSemantic() {
  xml::Schema schema("semantic", "proxy");
  schema.Rule("proxy", {.required_attributes = {"name"},
                        .optional_attributes = {"category"},
                        .children = {{"description", {0, 1}},
                                     {"method", {1, xml::kUnbounded}}}});
  schema.Rule("method", {.required_attributes = {"name"},
                         .optional_attributes = {},
                         .children = {{"description", {0, 1}},
                                      {"parameter", {0, xml::kUnbounded}},
                                      {"callback", {0, 1}},
                                      {"returns", {0, 1}}}});
  schema.Rule("parameter", {.required_attributes = {"name", "dimension"},
                            .optional_attributes = {},
                            .children = {{"description", {0, 1}},
                                         {"allowedValue",
                                          {0, xml::kUnbounded}}}});
  schema.Rule("callback", {.required_attributes = {"name"}});
  schema.Rule("returns", {.required_attributes = {"dimension"}});
  schema.Rule("description", {.text = xml::TextPolicy::kAllowed});
  schema.Rule("allowedValue", {.text = xml::TextPolicy::kRequired});
  return schema;
}

xml::Schema BuildSyntactic(const char* name) {
  xml::Schema schema(name, "syntax");
  schema.Rule("syntax", {.required_attributes = {"proxy", "language"},
                         .children = {{"method", {1, xml::kUnbounded}}}});
  schema.Rule("method", {.required_attributes = {"name"},
                         .optional_attributes = {"returnType"},
                         .children = {{"param", {0, xml::kUnbounded}},
                                      {"callback", {0, 1}}}});
  schema.Rule("param", {.required_attributes = {"type"}});
  schema.Rule("callback",
              {.required_attributes = {"type"},
               .optional_attributes = {"method"}});
  return schema;
}

xml::Schema BuildBinding(const char* name) {
  xml::Schema schema(name, "binding");
  schema.Rule("binding",
              {.required_attributes = {"proxy", "platform", "language"},
               .children = {{"implementation", {1, 1}},
                            {"artifact", {0, xml::kUnbounded}},
                            {"exception", {0, xml::kUnbounded}},
                            {"property", {0, xml::kUnbounded}}}});
  schema.Rule("implementation", {.required_attributes = {"class"}});
  schema.Rule("artifact", {.text = xml::TextPolicy::kRequired});
  schema.Rule("exception", {.required_attributes = {"native", "code"}});
  schema.Rule("property", {.required_attributes = {"name", "type"},
                           .optional_attributes = {"default", "required"},
                           .children = {{"description", {0, 1}},
                                        {"allowedValue",
                                         {0, xml::kUnbounded}}}});
  schema.Rule("description", {.text = xml::TextPolicy::kAllowed});
  schema.Rule("allowedValue", {.text = xml::TextPolicy::kRequired});
  return schema;
}

}  // namespace

const xml::Schema& SemanticSchema() {
  static const xml::Schema schema = BuildSemantic();
  return schema;
}

const xml::Schema& SyntacticJavaSchema() {
  static const xml::Schema schema = BuildSyntactic("syntactic-java");
  return schema;
}

const xml::Schema& SyntacticJavaScriptSchema() {
  static const xml::Schema schema = BuildSyntactic("syntactic-javascript");
  return schema;
}

const xml::Schema& BindingJavaSchema() {
  static const xml::Schema schema = BuildBinding("binding-java");
  return schema;
}

const xml::Schema& BindingJavaScriptSchema() {
  static const xml::Schema schema = BuildBinding("binding-javascript");
  return schema;
}

const xml::Schema& SyntacticObjCSchema() {
  static const xml::Schema schema = BuildSyntactic("syntactic-objc");
  return schema;
}

const xml::Schema& BindingObjCSchema() {
  static const xml::Schema schema = BuildBinding("binding-objc");
  return schema;
}

const xml::Schema* SchemaFor(const xml::Node& root) {
  if (root.name() == "proxy") return &SemanticSchema();
  if (root.name() == "syntax") {
    const std::string_view language = root.GetAttributeOr("language", "");
    if (language == "java") return &SyntacticJavaSchema();
    if (language == "javascript") return &SyntacticJavaScriptSchema();
    if (language == "objc") return &SyntacticObjCSchema();
    return nullptr;
  }
  if (root.name() == "binding") {
    const std::string_view language = root.GetAttributeOr("language", "");
    if (language == "java") return &BindingJavaSchema();
    if (language == "javascript") return &BindingJavaScriptSchema();
    if (language == "objc") return &BindingObjCSchema();
    return nullptr;
  }
  return nullptr;
}

}  // namespace mobivine::core
