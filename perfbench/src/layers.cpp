// Offline per-layer measurements: each public call timed from outside,
// on the workload's own inputs, with no queue or socket in the way.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "android/android_platform.h"
#include "bench.h"
#include "core/proxy.h"
#include "core/registry.h"
#include "device/mobile_device.h"
#include "gateway/gateway.h"
#include "gateway/script.h"
#include "iphone/iphone_platform.h"
#include "minijs/parser.h"
#include "s60/s60_platform.h"
#include "samples.h"
#include "sim/geo_track.h"
#include "wire/protocol.h"

namespace perfbench {

namespace {

using namespace mobivine;
using gateway::Op;
using gateway::Platform;

/// A single-threaded MobiVine world shaped like one gateway shard's: the
/// same device fixtures, permissions and registry-built proxies.
class World {
 public:
  explicit World(const core::DescriptorStore& store) : registry_(&store) {
    device_ = std::make_unique<device::MobileDevice>();
    device_->gps().set_track(sim::GeoTrack::Stationary(28.5245, 77.1855, 210.0));
    device_->modem().RegisterSubscriber(gateway::kGatewaySmsPeer);
    device_->network().RegisterHost(
        gateway::kGatewayHttpHost, [](const device::HttpRequest& request) {
          return device::HttpResponse::Ok(request.body.empty() ? "pong"
                                                               : request.body);
        });
    android_ = std::make_unique<android::AndroidPlatform>(*device_);
    android_->grantPermission(android::permissions::kFineLocation);
    android_->grantPermission(android::permissions::kSendSms);
    android_->grantPermission(android::permissions::kInternet);
    s60_ = std::make_unique<s60::S60Platform>(*device_);
    s60_->grantPermission(s60::permissions::kLocation);
    s60_->grantPermission(s60::permissions::kSmsSend);
    s60_->grantPermission(s60::permissions::kHttp);
    iphone_ = std::make_unique<iphone::IPhonePlatform>(*device_);

    location_[0] = registry_.CreateLocationProxy(*android_);
    location_[0]->setProperty("context", &android_->application_context());
    location_[1] = registry_.CreateLocationProxy(*s60_);
    location_[2] = registry_.CreateLocationProxy(*iphone_);
    sms_[0] = registry_.CreateSmsProxy(*android_);
    sms_[0]->setProperty("context", &android_->application_context());
    sms_[1] = registry_.CreateSmsProxy(*s60_);
    sms_[2] = registry_.CreateSmsProxy(*iphone_);
    http_[0] = registry_.CreateHttpProxy(*android_);
    http_[1] = registry_.CreateHttpProxy(*s60_);
    http_[2] = registry_.CreateHttpProxy(*iphone_);
  }

  core::MProxy& ProxyFor(Platform platform, Op op) {
    const auto i = static_cast<std::size_t>(platform);
    switch (op) {
      case Op::kGetLocation: return *location_[i];
      case Op::kSendSms:
      case Op::kSegmentCount: return *sms_[i];
      default: return *http_[i];
    }
  }

  /// One invocation as a shard serves it: request properties under
  /// save/restore, the op, then the device's follow-up events.
  std::string Invoke(Platform platform, Op op, const std::string& target,
                     const std::string& payload, const std::string& content_type,
                     const wire::WireRequest* with_properties = nullptr) {
    core::MProxy& proxy = ProxyFor(platform, op);
    std::optional<core::ScopedPropertyRestore> restore;
    if (with_properties != nullptr && !with_properties->properties.empty()) {
      restore.emplace(proxy);
      for (const auto& [name, value] : with_properties->properties) {
        proxy.setProperty(name, value);
      }
    }
    std::string out;
    switch (op) {
      case Op::kGetLocation: {
        const core::Location l =
            static_cast<core::LocationProxy&>(proxy).getLocation();
        out = std::to_string(l.latitude) + "," + std::to_string(l.longitude);
        break;
      }
      case Op::kSendSms:
        out = std::to_string(static_cast<core::SmsProxy&>(proxy).sendTextMessage(
            target, payload, nullptr));
        break;
      case Op::kHttpGet:
        out = static_cast<core::HttpProxy&>(proxy).get(target).body;
        break;
      case Op::kHttpPost:
        out = static_cast<core::HttpProxy&>(proxy)
                  .post(target, payload,
                        content_type.empty() ? "text/plain" : content_type)
                  .body;
        break;
      case Op::kSegmentCount:
        out = std::to_string(
            static_cast<core::SmsProxy&>(proxy).segmentCount(payload));
        break;
    }
    device_->RunAll();
    return out;
  }

  device::MobileDevice& device() { return *device_; }

 private:
  core::ProxyRegistry registry_;
  std::unique_ptr<device::MobileDevice> device_;
  std::unique_ptr<android::AndroidPlatform> android_;
  std::unique_ptr<s60::S60Platform> s60_;
  std::unique_ptr<iphone::IPhonePlatform> iphone_;
  std::array<std::unique_ptr<core::LocationProxy>, 3> location_;
  std::array<std::unique_ptr<core::SmsProxy>, 3> sms_;
  std::array<std::unique_ptr<core::HttpProxy>, 3> http_;
};

double MedianNs(std::vector<std::uint64_t>& ns) {
  return PercentileOf(ns, 0.5).value;
}

/// Per-frame codec cost: whole passes over the frames, median pass.
template <typename EncodeFn, typename DecodeFn>
void TimeCodec(std::size_t frames, EncodeFn encode, DecodeFn decode,
               OfflineLayers& out, SpanLog* log) {
  std::vector<std::vector<std::uint8_t>> buffers(frames);
  std::vector<double> enc, dec;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < frames; ++i) {
      buffers[i].clear();
      encode(i, buffers[i]);
    }
    const std::int64_t t1 = NowNs();
    for (std::size_t i = 0; i < frames; ++i) decode(buffers[i]);
    const std::int64_t t2 = NowNs();
    if (log != nullptr) {
      log->Record(Layer::kEncode, pass, t0, t1, static_cast<std::uint32_t>(frames));
      log->Record(Layer::kDecode, pass, t1, t2, static_cast<std::uint32_t>(frames));
    }
    enc.push_back(static_cast<double>(t1 - t0) / static_cast<double>(frames));
    dec.push_back(static_cast<double>(t2 - t1) / static_cast<double>(frames));
  }
  out.encode_ns = Median(enc);
  out.decode_ns = Median(dec);
}

}  // namespace

OfflineLayers MeasureOffline(const WorkloadSpec& spec, const Inputs& inputs,
                             const core::DescriptorStore& store, SpanLog* log) {
  OfflineLayers out;
  constexpr std::size_t kFrames = 4096;

  // ---- wire codec over the workload's own frames ----
  if (spec.kind == Kind::kScript) {
    TimeCodec(
        kFrames,
        [&](std::size_t i, std::vector<std::uint8_t>& buf) {
          wire::EncodeScript(inputs.scripts[i].script, i + 1, buf);
        },
        [](const std::vector<std::uint8_t>& buf) {
          wire::FrameView frame;
          std::size_t consumed = 0;
          std::string error;
          wire::WireScriptRequest script;
          if (wire::DecodeFrame(buf.data(), buf.size(), &frame, &consumed,
                                &error) == wire::DecodeStatus::kOk) {
            (void)wire::DecodeScript(frame.payload, frame.payload_size, &script,
                                     &error);
          }
        },
        out, log);
  } else {
    wire::WireRequestView view;
    TimeCodec(
        kFrames,
        [&](std::size_t i, std::vector<std::uint8_t>& buf) {
          wire::EncodeRequest(inputs.mixed[i].request, i + 1, buf);
        },
        [&view](const std::vector<std::uint8_t>& buf) {
          wire::FrameView frame;
          std::size_t consumed = 0;
          std::string error;
          if (wire::DecodeFrame(buf.data(), buf.size(), &frame, &consumed,
                                &error) == wire::DecodeStatus::kOk) {
            (void)wire::DecodeRequestView(frame.payload, frame.payload_size,
                                          &view, &error);
          }
        },
        out, log);
  }

  // ---- core: direct proxy calls on a standalone world ----
  World world(store);
  std::array<std::vector<std::uint64_t>, 5> per_op;
  std::array<std::uint64_t, 5> op_count{};
  for (std::size_t i = 0; i < kFrames; ++i) {
    const wire::WireRequest& r = inputs.mixed[i].request;
    const std::int64_t t0 = NowNs();
    (void)world.Invoke(r.platform, r.op, r.target, r.payload, r.content_type, &r);
    const std::int64_t t1 = NowNs();
    if (log != nullptr) log->Record(Layer::kCoreCall, i, t0, t1);
    per_op[static_cast<std::size_t>(r.op)].push_back(
        static_cast<std::uint64_t>(t1 - t0));
    ++op_count[static_cast<std::size_t>(r.op)];
  }
  std::array<double, 5> op_us{};
  for (std::size_t op = 0; op < 5; ++op) op_us[op] = MedianNs(per_op[op]) / 1000.0;
  out.get_location_us = op_us[static_cast<std::size_t>(Op::kGetLocation)];
  out.send_sms_us = op_us[static_cast<std::size_t>(Op::kSendSms)];
  out.http_get_us = op_us[static_cast<std::size_t>(Op::kHttpGet)];
  out.http_post_us = op_us[static_cast<std::size_t>(Op::kHttpPost)];
  out.segment_count_us = op_us[static_cast<std::size_t>(Op::kSegmentCount)];
  double weighted = 0;
  for (std::size_t op = 0; op < 5; ++op) {
    weighted += op_us[op] * static_cast<double>(op_count[op]);
  }
  out.core_service_us = weighted / static_cast<double>(kFrames);

  core::MProxy& s60_location = world.ProxyFor(Platform::kS60, Op::kGetLocation);
  std::vector<std::uint64_t> set_ns;
  for (long long v = 0; v < 2000; ++v) {
    const std::int64_t t0 = NowNs();
    s60_location.setProperty("horizontalAccuracy", 25 + v % 64);
    set_ns.push_back(static_cast<std::uint64_t>(NowNs() - t0));
  }
  s60_location.setProperty("horizontalAccuracy", 0LL);
  out.set_property_ns = MedianNs(set_ns);

  // ---- minijs parser over the source pool ----
  std::vector<std::uint64_t> parse_ns;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::string& source = inputs.scripts[i].script.source;
    const std::int64_t t0 = NowNs();
    (void)minijs::ParseProgram(source);
    const std::int64_t t1 = NowNs();
    if (log != nullptr) log->Record(Layer::kParse, i, t0, t1);
    parse_ns.push_back(static_cast<std::uint64_t>(t1 - t0));
  }
  out.parse_us = MedianNs(parse_ns) / 1000.0;

  // ---- ScriptEngine::Execute with a warm cache ----
  gateway::ScriptHostOps ops;
  ops.invoke = [&world](Platform platform, Op op, const std::string& target,
                        const std::string& payload,
                        const std::string& content_type) {
    return world.Invoke(platform, op, target, payload, content_type);
  };
  ops.set_property = [](Platform, Op, const std::string&, const std::string&) {
    throw core::ProxyError(core::ErrorCode::kUnsupported, "not in this world");
  };
  ops.get_property = [](Platform, Op, const std::string&) { return std::string(); };
  ops.charge_steps = [&world](std::uint64_t steps) {
    world.device().scheduler().AdvanceBy(
        sim::SimTime::Micros(static_cast<std::int64_t>(steps * 30)));
  };
  ops.virtual_now_us = [&world] {
    return static_cast<std::uint64_t>(world.device().scheduler().now().micros());
  };
  gateway::ScriptLimits limits;
  limits.max_virtual_us = kScriptVirtualBudgetUs;
  gateway::ScriptEngine engine(std::move(ops), limits);
  std::vector<std::uint64_t> engine_ns;
  constexpr std::size_t kScripts = 512;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kScripts; ++i) {
      const ScriptInput& input = inputs.scripts[i];
      if (input.minted) continue;  // warm-cache cost only
      gateway::ScriptRequest request;
      request.client_id = input.script.client_id;
      request.source = input.script.source;
      request.args = input.script.args;
      const std::int64_t t0 = NowNs();
      (void)engine.Execute(request);
      const std::int64_t t1 = NowNs();
      if (pass == 1) {
        if (log != nullptr) log->Record(Layer::kScriptEngine, i, t0, t1);
        engine_ns.push_back(static_cast<std::uint64_t>(t1 - t0));
      }
    }
  }
  out.engine_us = MedianNs(engine_ns) / 1000.0;
  if (spec.kind == Kind::kScript) out.core_service_us = out.engine_us;
  return out;
}

}  // namespace perfbench
