// The cross-layer vocabularies (gateway/request.h, core/errors.h) and the
// two start-up checks built on them.
//
// What must hold:
//  * every op and platform name round-trips through ToString and the
//    script-side parsers, and unknown names are refused;
//  * Gateway construction refuses a descriptor set whose semantic plane
//    has drifted from the op table (a missing method, a different
//    parameter count) with a typed ProxyError naming the row;
//  * Gateway construction refuses fault rules that can never fire: an
//    unknown platform tag, an op that is not a fault key, an error= name
//    that is not an ErrorCode;
//  * each op's fault key is the name its bindings really pass to
//    AdmitDispatch, on every platform.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unistd.h>

#include "android/android_platform.h"
#include "core/descriptor/proxy_descriptor.h"
#include "core/http_proxy.h"
#include "core/location_proxy.h"
#include "core/registry.h"
#include "core/sms_proxy.h"
#include "gateway/failover.h"
#include "gateway/gateway.h"
#include "gateway/script.h"
#include "iphone/iphone_platform.h"
#include "s60/s60_platform.h"
#include "support/fault.h"

namespace mobivine {
namespace {

using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Op;
using gateway::Platform;

TEST(OpTable, NamesRoundTripThroughTheParsers) {
  for (std::size_t i = 0; i < gateway::kOpCount; ++i) {
    const auto op = static_cast<Op>(i);
    EXPECT_EQ(gateway::ParseOpName(gateway::ToString(op)), op);
  }
  for (std::size_t i = 0; i < gateway::kPlatformCount; ++i) {
    const auto platform = static_cast<Platform>(i);
    EXPECT_EQ(gateway::ParsePlatformName(gateway::ToString(platform)),
              platform);
  }
  EXPECT_STREQ(gateway::ToString(static_cast<Op>(gateway::kOpCount)), "?");
  EXPECT_STREQ(
      gateway::ToString(static_cast<Platform>(gateway::kPlatformCount)), "?");
  EXPECT_THROW((void)gateway::ParseOpName("sendTextMessage"),
               core::ProxyError);
  EXPECT_THROW((void)gateway::ParsePlatformName("palmos"), core::ProxyError);
}

// ---------------------------------------------------------------------------
// Start-up check: the op table against the loaded semantic plane
// ---------------------------------------------------------------------------

/// A copy of the shipped descriptors under the system temp dir, each file
/// passed through `edit(relative path, contents)`; removed on destruction.
class EditedDescriptors {
 public:
  explicit EditedDescriptors(
      const std::function<std::string(const std::string&, std::string)>&
          edit) {
    namespace fs = std::filesystem;
    static int counter = 0;
    root_ = fs::temp_directory_path() /
            ("mobivine-optable-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    const fs::path source = MOBIVINE_DESCRIPTOR_DIR;
    for (const auto& entry : fs::recursive_directory_iterator(source)) {
      if (!entry.is_regular_file()) continue;
      const std::string relative =
          fs::relative(entry.path(), source).generic_string();
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream contents;
      contents << in.rdbuf();
      fs::create_directories((root_ / relative).parent_path());
      std::ofstream(root_ / relative, std::ios::binary)
          << edit(relative, contents.str());
    }
    store_ = core::DescriptorStore::LoadDirectory(root_.string());
  }
  ~EditedDescriptors() {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  const core::DescriptorStore& store() const { return store_; }

 private:
  std::filesystem::path root_;
  core::DescriptorStore store_;
};

/// Apply `change` to the `<method name="segmentCount">...</method>` block
/// of every Sms document (the semantic plane and its syntactic
/// refinements, which must agree for the store to load at all).
std::function<std::string(const std::string&, std::string)> EditSegmentCount(
    std::function<std::string(const std::string& file, std::string block)>
        change) {
  return [change](const std::string& file, std::string text) {
    if (file.rfind("sms/", 0) != 0) return text;
    const std::size_t begin = text.find("<method name=\"segmentCount\"");
    if (begin == std::string::npos) return text;
    const std::string close = "</method>";
    const std::size_t end = text.find(close, begin) + close.size();
    return text.substr(0, begin) +
           change(file, text.substr(begin, end - begin)) + text.substr(end);
  };
}

/// Construct a one-shard gateway over `store`; the ProxyError it throws,
/// or a failed expectation when it does not.
std::string ConstructionError(const core::DescriptorStore& store) {
  GatewayConfig config;
  config.shards = 1;
  config.store = &store;
  try {
    Gateway gateway(config);
  } catch (const core::ProxyError& error) {
    EXPECT_EQ(error.code(), core::ErrorCode::kUnsupported);
    return error.what();
  }
  ADD_FAILURE() << "Gateway construction accepted drifted descriptors";
  return std::string();
}

TEST(OpTable, ShippedDescriptorsPassTheStartupCheck) {
  const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  GatewayConfig config;
  config.shards = 1;
  config.store = &store;
  EXPECT_NO_THROW({ Gateway gateway(config); });
}

TEST(OpTable, StartupRefusesAMissingSemanticMethod) {
  const EditedDescriptors descriptors(EditSegmentCount(
      [](const std::string&, const std::string&) { return std::string(); }));
  ASSERT_EQ(descriptors.store().Find("Sms")->semantic().FindMethod(
                "segmentCount"),
            nullptr);
  const std::string error = ConstructionError(descriptors.store());
  EXPECT_NE(error.find("op table row segmentCount (Sms.segmentCount)"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("no such semantic-plane method"), std::string::npos)
      << error;
}

TEST(OpTable, StartupRefusesAParameterCountMismatch) {
  const EditedDescriptors descriptors(EditSegmentCount(
      [](const std::string& file, std::string block) {
        const std::string extra =
            file == "sms/semantic.xml"
                ? "<parameter name=\"encoding\" dimension=\"text\"/>"
                : "<param type=\"string\"/>";
        return block.insert(block.find("</method>"), extra);
      }));
  ASSERT_EQ(descriptors.store()
                .Find("Sms")
                ->semantic()
                .FindMethod("segmentCount")
                ->parameters.size(),
            2u);
  const std::string error = ConstructionError(descriptors.store());
  EXPECT_NE(error.find("op table row segmentCount (Sms.segmentCount)"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("the table says 1 parameters, the semantic plane "
                       "declares 2"),
            std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// Start-up check: fault rules that can never fire
// ---------------------------------------------------------------------------

std::string PlanError(const char* text) {
  const auto plan = support::FaultPlan::Parse(text);
  EXPECT_TRUE(plan.has_value()) << text;
  GatewayConfig config;
  config.shards = 1;
  config.failover.fault_plan = *plan;
  try {
    Gateway gateway(config);
  } catch (const core::ProxyError& error) {
    EXPECT_EQ(error.code(), core::ErrorCode::kIllegalArgument);
    EXPECT_FALSE(gateway::FaultPlanProblem(*plan).empty());
    return error.what();
  }
  return std::string();
}

TEST(OpTable, GatewayRefusesFaultRulesThatCanNeverFire) {
  // The op name a script says is not the key the binding dispatches on.
  EXPECT_NE(PlanError("android:sendSms:error=timeout")
                .find("'sendSms' is not a fault key (getLocation, "
                      "sendTextMessage,"),
            std::string::npos);
  EXPECT_NE(PlanError("andriod:*:hang").find("unknown platform 'andriod'"),
            std::string::npos);
  // Would silently inject kUnknown (not retryable) instead of a timeout.
  EXPECT_NE(PlanError("*:*:error=timout").find("unknown error code 'timout'"),
            std::string::npos);
  // The refusal names the offending rule, not just the first.
  EXPECT_NE(PlanError("s60:*:hang;iphone:httpGet:error=network;*:get:hang")
                .find("fault rule 3 (*:get)"),
            std::string::npos);
}

TEST(OpTable, GatewayAcceptsEveryFaultKeyPlatformAndErrorName) {
  for (const char* text : {
           "s60:*:error=timeout:p=0.1",
           "*:*:latency=1000:wall",
           ":*:hang",
           "android:sendTextMessage:error=unknown",
           "iphone:segmentCount:error=all-backends-failed",
           "seed=7;android:getLocation:error=security;s60:httpGet:hang;"
           "iphone:httpPost:latency=5",
       }) {
    EXPECT_EQ(PlanError(text), "") << text;
  }
}

// ---------------------------------------------------------------------------
// The fault-key column against the bindings' AdmitDispatch literals
// ---------------------------------------------------------------------------

/// One binding world per platform, with the proxy family an op needs.
struct BindingWorld {
  device::MobileDevice device{device::DeviceConfig{}};
  android::AndroidPlatform android{device};
  s60::S60Platform s60{device};
  iphone::IPhonePlatform iphone{device};
  core::ProxyRegistry registry;

  template <typename Binding>
  std::unique_ptr<core::MProxy> Create(gateway::ProxyFamily family,
                                       Binding& binding) {
    switch (family) {
      case gateway::ProxyFamily::kLocation:
        return registry.CreateLocationProxy(binding);
      case gateway::ProxyFamily::kSms:
        return registry.CreateSmsProxy(binding);
      case gateway::ProxyFamily::kHttp:
        return registry.CreateHttpProxy(binding);
    }
    return nullptr;
  }

  std::unique_ptr<core::MProxy> Create(gateway::ProxyFamily family,
                                       Platform platform) {
    switch (platform) {
      case Platform::kAndroid:
        return Create(family, android);
      case Platform::kS60:
        return Create(family, s60);
      case Platform::kIphone:
        return Create(family, iphone);
    }
    return nullptr;
  }
};

/// Invoke `op`'s semantic method on `proxy` (of the op's family).
void Invoke(core::MProxy& proxy, Op op) {
  const std::string url = "http://gw.example/ping";
  switch (op) {
    case Op::kGetLocation:
      static_cast<core::LocationProxy&>(proxy).getLocation();
      return;
    case Op::kSendSms:
      static_cast<core::SmsProxy&>(proxy).sendTextMessage("+15550123", "hi",
                                                          nullptr);
      return;
    case Op::kHttpGet:
      static_cast<core::HttpProxy&>(proxy).get(url);
      return;
    case Op::kHttpPost:
      static_cast<core::HttpProxy&>(proxy).post(url, "body", "text/plain");
      return;
    case Op::kSegmentCount:
      static_cast<core::SmsProxy&>(proxy).segmentCount("hi");
      return;
  }
}

TEST(OpTable, FaultKeyIsWhatEveryBindingDispatchesOn) {
  BindingWorld world;
  for (std::size_t p = 0; p < gateway::kPlatformCount; ++p) {
    const auto platform = static_cast<Platform>(p);
    for (std::size_t o = 0; o < gateway::kOpCount; ++o) {
      const auto op = static_cast<Op>(o);
      const gateway::OpInfo& info = gateway::kOps[o];
      const std::string rule = std::string(gateway::ToString(platform)) +
                               ":" + info.fault_key + ":error=network:p=1";
      SCOPED_TRACE(rule);
      gateway::FailoverConfig config;
      config.fault_plan = *support::FaultPlan::Parse(rule);
      gateway::ShardStats stats;
      gateway::FailoverEngine engine(config, stats, 0);
      auto proxy = world.Create(info.family, platform);
      ASSERT_NE(proxy, nullptr);
      proxy->installFaultGate(&engine, gateway::ToString(platform));
      try {
        Invoke(*proxy, op);
        ADD_FAILURE() << "the rule did not fire";
      } catch (const core::ProxyError& error) {
        EXPECT_EQ(error.code(), core::ErrorCode::kNetwork);
        EXPECT_EQ(error.native_type(), "fault.error");
      }
      EXPECT_EQ(engine.injector().fired(), 1u);
    }
  }
}

}  // namespace
}  // namespace mobivine
