// A3 — ablation: real-time microbenchmarks of the de-fragmentation
// machinery itself (the paper's proxy overhead, measured in host
// nanoseconds rather than calibrated virtual time):
//   * MiniJS: script statements, script->host crossings, function calls
//   * property bag set/lookup, with descriptor validation, and
//     setProperty through a real proxy
//   * the simulated scheduler and the WebView notification table
//   * native exception -> ProxyError mapping
//
//   ./build/bench/bench_a3_bridge
#include <benchmark/benchmark.h>

#include "android/exceptions.h"
#include "core/descriptor/proxy_descriptor.h"
#include "core/errors.h"
#include "core/property.h"
#include "core/registry.h"
#include "device/mobile_device.h"
#include "minijs/interpreter.h"
#include "s60/s60_platform.h"
#include "sim/scheduler.h"
#include "webview/notification_table.h"

using namespace mobivine;

namespace {

void BM_MiniJsArithmeticStatement(benchmark::State& state) {
  minijs::Interpreter interp;
  interp.Run("var x = 0;");
  interp.Run("function tick() { x = x + 1; return x; }");
  minijs::Value tick = interp.GetGlobal("tick");
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Call(tick, minijs::Value::Undefined(), {}));
  }
  state.counters["steps/call"] = benchmark::Counter(
      static_cast<double>(interp.steps()) / state.iterations());
}
BENCHMARK(BM_MiniJsArithmeticStatement);

void BM_MiniJsHostCrossing(benchmark::State& state) {
  minijs::Interpreter interp;
  interp.SetGlobal("native",
                   minijs::MakeHostFunction(
                       "native", [](minijs::Interpreter&, const minijs::Value&,
                                    std::vector<minijs::Value>& args) {
                         return minijs::Value::Number(
                             args.empty() ? 0 : args[0].ToNumber() + 1);
                       }));
  interp.Run("function cross(v) { return native(v); }");
  minijs::Value cross = interp.GetGlobal("cross");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interp.Call(cross, minijs::Value::Undefined(),
                    {minijs::Value::Number(1)}));
  }
}
BENCHMARK(BM_MiniJsHostCrossing);

void BM_MiniJsObjectConstruction(benchmark::State& state) {
  minijs::Interpreter interp;
  interp.Run(R"(
    function Proxy() {
      this.setProperty = function(k, v) { return v; };
      this.invoke = function(a, b) { return a + b; };
    }
    function make() { var p = new Proxy(); return p.invoke(1, 2); }
  )");
  minijs::Value make = interp.GetGlobal("make");
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Call(make, minijs::Value::Undefined(), {}));
  }
}
BENCHMARK(BM_MiniJsObjectConstruction);

void BM_PropertyBagSetGet(benchmark::State& state) {
  core::PropertyBag bag;
  for (auto _ : state) {
    bag.Set("preferredResponseTime", 100LL);
    benchmark::DoNotOptimize(bag.Get<long long>("preferredResponseTime"));
  }
}
BENCHMARK(BM_PropertyBagSetGet);

void BM_PropertyValidationAgainstDescriptor(benchmark::State& state) {
  core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  const core::BindingPlane* binding =
      store.Find("Location")->FindBinding("s60");
  for (auto _ : state) {
    const core::PropertySpec* spec = binding->FindProperty("powerConsumption");
    bool allowed = false;
    for (const auto& value : spec->allowed_values) {
      if (value == "medium") allowed = true;
    }
    benchmark::DoNotOptimize(allowed);
  }
}
BENCHMARK(BM_PropertyValidationAgainstDescriptor);

// setProperty through a real proxy (the S60 Location binding, six
// declared properties): descriptor validation of the name and allowed
// values plus the bag store, alternating an int and a constrained string.
void BM_SetPropertyThroughProxy(benchmark::State& state) {
  const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  device::MobileDevice device(device::DeviceConfig{});
  s60::S60Platform platform(device);
  core::ProxyRegistry registry(&store);
  auto proxy = registry.CreateLocationProxy(platform);
  const std::string vertical = "verticalAccuracy";
  const std::string power = "powerConsumption";
  const std::string low = "low";
  const std::string high = "high";
  long long i = 0;
  for (auto _ : state) {
    proxy->setProperty(vertical, i & 1023);
    proxy->setProperty(power, (i & 1) != 0 ? low : high);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SetPropertyThroughProxy);

// The event-loop pattern of every polling binding: schedule a batch of
// 64, cancel every other event, run the rest.
void BM_SchedulerChurn(benchmark::State& state) {
  sim::Scheduler scheduler;
  sim::EventId ids[64];
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      ids[i] = scheduler.ScheduleAfter(sim::SimTime::Micros(i & 7),
                                       [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; i += 2) scheduler.Cancel(ids[i]);
    scheduler.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerChurn);

// The Figure 6 polling path: post a burst of eight callback
// notifications, then drain them from the JS side.
void BM_NotificationDrain(benchmark::State& state) {
  webview::NotificationTable table;
  const std::int64_t channel = table.NewChannel();
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      table.Post(channel,
                 minijs::Value::String("notification-payload-0123456789"));
    }
    benchmark::DoNotOptimize(table.Drain(channel).size());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_NotificationDrain);

void BM_ExceptionMapping(benchmark::State& state) {
  for (auto _ : state) {
    core::ErrorCode code = core::ErrorCode::kUnknown;
    try {
      try {
        throw android::SecurityException("no permission");
      } catch (...) {
        core::RethrowAsProxyError("android");
      }
    } catch (const core::ProxyError& error) {
      code = error.code();
    }
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_ExceptionMapping);

void BM_UniformErrorCodeFromWebView(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FromWebViewErrorCode(101));
  }
}
BENCHMARK(BM_UniformErrorCodeFromWebView);

}  // namespace

BENCHMARK_MAIN();
