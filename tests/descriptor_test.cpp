#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "core/descriptor/proxy_descriptor.h"
#include "core/descriptor/schemas.h"
#include "core/errors.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace mobivine::core {
namespace {

// ---------------------------------------------------------------------------
// The shipped descriptor set
// ---------------------------------------------------------------------------

const DescriptorStore& ShippedStore() {
  static const DescriptorStore store =
      DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

TEST(ShippedDescriptors, LoadsAllProxies) {
  const auto& store = ShippedStore();
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.ProxyNames(),
            (std::vector<std::string>{"Calendar", "Call", "Http", "Location",
                                      "Pim", "Sms"}));
}

TEST(ShippedDescriptors, PlatformCoverageMatchesPaper) {
  const auto& store = ShippedStore();
  // Location / Sms / Http / Pim on every platform (incl. the iphone
  // extension); Call has no s60 binding.
  for (const char* name : {"Location", "Sms", "Http", "Pim"}) {
    const ProxyDescriptor* descriptor = store.Find(name);
    ASSERT_NE(descriptor, nullptr) << name;
    EXPECT_TRUE(descriptor->SupportsPlatform("android")) << name;
    EXPECT_TRUE(descriptor->SupportsPlatform("webview")) << name;
    EXPECT_TRUE(descriptor->SupportsPlatform("s60")) << name;
    EXPECT_TRUE(descriptor->SupportsPlatform("iphone")) << name;
  }
  const ProxyDescriptor* call = store.Find("Call");
  ASSERT_NE(call, nullptr);
  EXPECT_TRUE(call->SupportsPlatform("android"));
  EXPECT_TRUE(call->SupportsPlatform("webview"));
  EXPECT_TRUE(call->SupportsPlatform("iphone"));
  EXPECT_FALSE(call->SupportsPlatform("s60"));

  // Calendar mirrors the asymmetry on the other side: everywhere except
  // iPhone OS (no public calendar API in 2009).
  const ProxyDescriptor* calendar = store.Find("Calendar");
  ASSERT_NE(calendar, nullptr);
  EXPECT_TRUE(calendar->SupportsPlatform("android"));
  EXPECT_TRUE(calendar->SupportsPlatform("s60"));
  EXPECT_TRUE(calendar->SupportsPlatform("webview"));
  EXPECT_FALSE(calendar->SupportsPlatform("iphone"));
}

TEST(ShippedDescriptors, IPhoneExtensionUsesObjCPlanes) {
  // The §3.3 extension invariant: the iphone bindings reference the new
  // "objc" syntactic planes; the original java/javascript planes are
  // untouched.
  for (const char* name : {"Location", "Sms", "Http", "Call", "Pim"}) {
    const ProxyDescriptor* descriptor = ShippedStore().Find(name);
    const BindingPlane* binding = descriptor->FindBinding("iphone");
    ASSERT_NE(binding, nullptr) << name;
    EXPECT_EQ(binding->language, "objc") << name;
    EXPECT_NE(descriptor->FindSyntactic("objc"), nullptr) << name;
    EXPECT_NE(descriptor->FindSyntactic("java"), nullptr) << name;
  }
}

TEST(ShippedDescriptors, AllValidate) {
  const auto& store = ShippedStore();
  for (const std::string& name : store.ProxyNames()) {
    EXPECT_TRUE(store.Find(name)->Validate().empty()) << name;
  }
}

TEST(ShippedDescriptors, S60LocationHasCriteriaProperties) {
  const BindingPlane* binding =
      ShippedStore().Find("Location")->FindBinding("s60");
  ASSERT_NE(binding, nullptr);
  for (const char* property :
       {"preferredResponseTime", "horizontalAccuracy", "verticalAccuracy",
        "powerConsumption", "costAllowed"}) {
    EXPECT_NE(binding->FindProperty(property), nullptr) << property;
  }
  const PropertySpec* power = binding->FindProperty("powerConsumption");
  EXPECT_EQ(power->allowed_values.size(), 3u);
}

TEST(ShippedDescriptors, AndroidBindingsRequireContext) {
  for (const char* proxy : {"Location", "Sms"}) {
    const BindingPlane* binding =
        ShippedStore().Find(proxy)->FindBinding("android");
    const PropertySpec* context = binding->FindProperty("context");
    ASSERT_NE(context, nullptr) << proxy;
    EXPECT_TRUE(context->required) << proxy;
    EXPECT_EQ(context->type, "handle") << proxy;
  }
}

TEST(ShippedDescriptors, ExceptionSetsDifferPerPlatform) {
  const ProxyDescriptor* location = ShippedStore().Find("Location");
  auto android_ex = location->FindBinding("android")->exceptions;
  auto s60_ex = location->FindBinding("s60")->exceptions;
  // S60 declares LocationException; Android does not have it.
  auto has = [](const std::vector<ExceptionSpec>& list, const char* type) {
    for (const auto& e : list) {
      if (e.native_type.find(type) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(s60_ex, "LocationException"));
  EXPECT_FALSE(has(android_ex, "LocationException"));
}

// ---------------------------------------------------------------------------
// Round-trip: model -> XML -> model
// ---------------------------------------------------------------------------

TEST(DescriptorRoundTrip, SemanticPlane) {
  const SemanticPlane& original = ShippedStore().Find("Location")->semantic();
  xml::Document serialized = ToXml(original);
  EXPECT_TRUE(SemanticSchema().Validate(*serialized.root).empty());
  SemanticPlane reparsed = ParseSemantic(*serialized.root);
  EXPECT_EQ(reparsed.interface_name, original.interface_name);
  ASSERT_EQ(reparsed.methods.size(), original.methods.size());
  for (size_t i = 0; i < original.methods.size(); ++i) {
    EXPECT_EQ(reparsed.methods[i].name, original.methods[i].name);
    EXPECT_EQ(reparsed.methods[i].parameters.size(),
              original.methods[i].parameters.size());
    EXPECT_EQ(reparsed.methods[i].callback_name,
              original.methods[i].callback_name);
    EXPECT_EQ(reparsed.methods[i].return_dimension,
              original.methods[i].return_dimension);
  }
}

TEST(DescriptorRoundTrip, BindingPlane) {
  const BindingPlane* original =
      ShippedStore().Find("Location")->FindBinding("s60");
  xml::Document serialized = ToXml(*original);
  EXPECT_TRUE(BindingJavaSchema().Validate(*serialized.root).empty())
      << xml::WriteNode(*serialized.root);
  BindingPlane reparsed = ParseBinding(*serialized.root);
  EXPECT_EQ(reparsed.platform, "s60");
  EXPECT_EQ(reparsed.implementation_class, original->implementation_class);
  EXPECT_EQ(reparsed.exceptions.size(), original->exceptions.size());
  EXPECT_EQ(reparsed.properties.size(), original->properties.size());
}

TEST(DescriptorRoundTrip, SyntacticPlane) {
  const SyntacticPlane* original =
      ShippedStore().Find("Sms")->FindSyntactic("javascript");
  ASSERT_NE(original, nullptr);
  xml::Document serialized = ToXml(*original);
  EXPECT_TRUE(SyntacticJavaScriptSchema().Validate(*serialized.root).empty());
  SyntacticPlane reparsed = ParseSyntactic(*serialized.root);
  EXPECT_EQ(reparsed.language, "javascript");
  ASSERT_EQ(reparsed.methods.size(), original->methods.size());
  EXPECT_EQ(reparsed.methods[0].parameter_types,
            original->methods[0].parameter_types);
}

// ---------------------------------------------------------------------------
// Validation failures
// ---------------------------------------------------------------------------

DescriptorStore StoreFromDocs(const std::vector<std::string>& docs) {
  DescriptorStore store;
  for (size_t i = 0; i < docs.size(); ++i) {
    xml::Document doc = xml::Parse(docs[i]);
    store.AddDocument(*doc.root, "doc" + std::to_string(i));
  }
  store.Finalize();
  return store;
}

TEST(DescriptorValidation, OrphanPlaneRejected) {
  EXPECT_THROW(StoreFromDocs({R"(<binding proxy="Ghost" platform="android"
      language="java"><implementation class="X"/></binding>)"}),
               std::runtime_error);
}

TEST(DescriptorValidation, SchemaViolationRejected) {
  // method without name attribute.
  EXPECT_THROW(StoreFromDocs({R"(<proxy name="P"><method/></proxy>)"}),
               std::runtime_error);
}

TEST(DescriptorValidation, ParameterCountMismatchRejected) {
  EXPECT_THROW(StoreFromDocs({
                   R"(<proxy name="P"><method name="m">
          <parameter name="a" dimension="x"/>
          <parameter name="b" dimension="y"/>
        </method></proxy>)",
                   R"(<syntax proxy="P" language="java">
          <method name="m"><param type="double"/></method></syntax>)",
               }),
               std::runtime_error);
}

TEST(DescriptorValidation, UnknownErrorCodeRejected) {
  EXPECT_THROW(
      StoreFromDocs({
          R"(<proxy name="P"><method name="m"/></proxy>)",
          R"(<syntax proxy="P" language="java"><method name="m"/></syntax>)",
          R"(<binding proxy="P" platform="android" language="java">
          <implementation class="X"/>
          <exception native="Weird" code="not-a-code"/></binding>)",
      }),
      std::runtime_error);
}

TEST(DescriptorValidation, EveryErrorCodeNameIsAcceptedInBindings) {
  const std::string semantic = R"(<proxy name="P"><method name="m"/></proxy>)";
  const std::string syntax =
      R"(<syntax proxy="P" language="java"><method name="m"/></syntax>)";
  auto binding = [](std::string_view code) {
    return R"(<binding proxy="P" platform="android" language="java">
        <implementation class="X"/>
        <exception native="N" code=")" +
           std::string(code) + R"("/></binding>)";
  };
  for (int i = 0; i <= static_cast<int>(ErrorCode::kUnknown); ++i) {
    const char* name = ToString(static_cast<ErrorCode>(i));
    EXPECT_NO_THROW(StoreFromDocs({semantic, syntax, binding(name)})) << name;
  }
  try {
    (void)StoreFromDocs({semantic, syntax, binding("not-a-code")});
    FAIL() << "expected the unknown code to be rejected";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("maps to unknown code 'not-a-code'"),
              std::string::npos)
        << error.what();
  }
}

TEST(DescriptorValidation, BindingWithoutSyntacticPlaneRejected) {
  EXPECT_THROW(StoreFromDocs({
                   R"(<proxy name="P"><method name="m"/></proxy>)",
                   R"(<binding proxy="P" platform="android" language="java">
          <implementation class="X"/></binding>)",
               }),
               std::runtime_error);
}

TEST(DescriptorValidation, DefaultOutsideAllowedValuesRejected) {
  EXPECT_THROW(
      StoreFromDocs({
          R"(<proxy name="P"><method name="m"/></proxy>)",
          R"(<syntax proxy="P" language="java"><method name="m"/></syntax>)",
          R"(<binding proxy="P" platform="android" language="java">
          <implementation class="X"/>
          <property name="mode" type="string" default="zzz">
            <allowedValue>a</allowedValue><allowedValue>b</allowedValue>
          </property></binding>)",
      }),
      std::runtime_error);
}

TEST(DescriptorValidation, PlanesArrivingBeforeSemanticAreAttached) {
  // Binding first, then syntax, then semantic: still assembles.
  DescriptorStore store = StoreFromDocs({
      R"(<binding proxy="P" platform="android" language="java">
        <implementation class="X"/></binding>)",
      R"(<syntax proxy="P" language="java"><method name="m"/></syntax>)",
      R"(<proxy name="P"><method name="m"/></proxy>)",
  });
  const ProxyDescriptor* descriptor = store.Find("P");
  ASSERT_NE(descriptor, nullptr);
  EXPECT_TRUE(descriptor->SupportsPlatform("android"));
  EXPECT_NE(descriptor->FindSyntactic("java"), nullptr);
}

TEST(Schemas, SchemaForDispatch) {
  xml::Document semantic = xml::Parse("<proxy name=\"X\"/>");
  EXPECT_EQ(SchemaFor(*semantic.root), &SemanticSchema());
  xml::Document java = xml::Parse("<syntax proxy=\"X\" language=\"java\"/>");
  EXPECT_EQ(SchemaFor(*java.root), &SyntacticJavaSchema());
  xml::Document js =
      xml::Parse("<syntax proxy=\"X\" language=\"javascript\"/>");
  EXPECT_EQ(SchemaFor(*js.root), &SyntacticJavaScriptSchema());
  xml::Document binding = xml::Parse(
      "<binding proxy=\"X\" platform=\"s60\" language=\"java\"/>");
  EXPECT_EQ(SchemaFor(*binding.root), &BindingJavaSchema());
  xml::Document unknown = xml::Parse("<wat/>");
  EXPECT_EQ(SchemaFor(*unknown.root), nullptr);
}

// ---------------------------------------------------------------------------
// LoadDirectory: layout and error reporting
// ---------------------------------------------------------------------------

/// A fresh directory under the system temp dir, removed on destruction.
class TempDescriptorDir {
 public:
  TempDescriptorDir() {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("mobivine-descriptors-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDescriptorDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  void Write(const std::string& relative, const std::string& contents) const {
    const std::filesystem::path file = path_ / relative;
    std::filesystem::create_directories(file.parent_path());
    std::ofstream(file, std::ios::binary) << contents;
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

constexpr const char* kSemanticP =
    R"(<proxy name="P"><method name="m"/></proxy>)";
constexpr const char* kSyntaxP =
    R"(<syntax proxy="P" language="java"><method name="m"/></syntax>)";
constexpr const char* kBindingP =
    R"(<binding proxy="P" platform="android" language="java">
  <implementation class="X"/></binding>)";

std::string LoadError(const std::string& directory) {
  try {
    (void)DescriptorStore::LoadDirectory(directory);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(DescriptorDirectory, MissingDirectoryThrows) {
  TempDescriptorDir dir;
  const std::string missing = dir.path() + "/absent";
  EXPECT_EQ(LoadError(missing),
            "descriptor directory does not exist: " + missing);
}

TEST(DescriptorDirectory, LoadsTopLevelAndProxyDirectoryDocuments) {
  TempDescriptorDir dir;
  dir.Write("semantic.xml", kSemanticP);
  dir.Write("p/syntactic-java.xml", kSyntaxP);
  dir.Write("p/binding-android.xml", kBindingP);
  const DescriptorStore store = DescriptorStore::LoadDirectory(dir.path());
  ASSERT_NE(store.Find("P"), nullptr);
  EXPECT_TRUE(store.Find("P")->SupportsPlatform("android"));
}

TEST(DescriptorDirectory, IgnoresFilesThatAreNotXml) {
  TempDescriptorDir dir;
  dir.Write("p/semantic.xml", kSemanticP);
  dir.Write("p/syntactic-java.xml", kSyntaxP);
  dir.Write("p/binding-android.xml", kBindingP);
  dir.Write("README.md", "<not xml");
  dir.Write("p/binding-android.xml.bak", "<not xml");
  dir.Write("p/.xml", "<not xml");
  EXPECT_EQ(DescriptorStore::LoadDirectory(dir.path()).size(), 1u);
}

TEST(DescriptorDirectory, IgnoresDirectoriesNestedDeeperThanOneLevel) {
  TempDescriptorDir dir;
  dir.Write("p/semantic.xml", kSemanticP);
  dir.Write("p/syntactic-java.xml", kSyntaxP);
  dir.Write("p/binding-android.xml", kBindingP);
  dir.Write("p/old/semantic.xml", "<proxy name=\"P\"><broken></proxy>");
  dir.Write("p/old/deeper/binding.xml", "not even xml");
  EXPECT_EQ(DescriptorStore::LoadDirectory(dir.path()).size(), 1u);
}

TEST(DescriptorDirectory, MalformedDocumentErrorNamesFileLineAndColumn) {
  TempDescriptorDir dir;
  dir.Write("p/semantic.xml",
            "<proxy name=\"P\">\n  <method name=\"m\">\n</proxy>\n");
  EXPECT_EQ(LoadError(dir.path()),
            dir.path() +
                "/p/semantic.xml: XML parse error at 3:8: mismatched end "
                "tag: expected </method>, got </proxy>");
}

TEST(DescriptorDirectory, OrphanPlaneIsReported) {
  TempDescriptorDir dir;
  dir.Write("p/semantic.xml", kSemanticP);
  dir.Write("p/syntactic-java.xml", kSyntaxP);
  dir.Write("ghost/binding-android.xml",
            R"(<binding proxy="Ghost" platform="android" language="java">
  <implementation class="X"/></binding>)");
  EXPECT_EQ(LoadError(dir.path()),
            "descriptor planes reference proxies with no semantic plane: "
            "'Ghost'");
}

TEST(DescriptorDirectory, LoadOrderComparesPathsComponentByComponent) {
  // Documents load in path order, compared per component: "a/..." before
  // "a-b/..." (a plain string compare would put '-' before '/'), and
  // both before the top-level "a.xml". The second copy of the semantic
  // plane in that order is the one reported as the duplicate, whatever
  // order the files were created in.
  TempDescriptorDir dir;
  dir.Write("a.xml", kSemanticP);
  dir.Write("a-b/semantic.xml", kSemanticP);
  dir.Write("a/semantic.xml", kSemanticP);
  EXPECT_EQ(LoadError(dir.path()),
            dir.path() + "/a-b/semantic.xml: duplicate semantic plane for 'P'");

  TempDescriptorDir two;
  two.Write("a.xml", kSemanticP);
  two.Write("a/semantic.xml", kSemanticP);
  EXPECT_EQ(LoadError(two.path()),
            two.path() + "/a.xml: duplicate semantic plane for 'P'");
}

}  // namespace
}  // namespace mobivine::core
