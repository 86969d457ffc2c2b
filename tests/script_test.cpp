// M-Script: server-side composite invocations over a kScript frame.
//
// What must hold:
//  * the kScript codec round-trips bit-exactly and rejects empty
//    sources, oversized arg counts and trailing bytes with typed
//    kBadBody (never a crash) — plus a decoder-level mutation sweep;
//  * a composite script (getLocation -> httpPost -> sendSms-on-failure)
//    executes inside the owning shard against the real proxies and
//    returns one aggregated result;
//  * the sandbox budgets all surface as TYPED statuses, never process
//    faults: step-limit exhaustion mid-script (kScriptError, not
//    catchable in-script), virtual-time exhaustion driven by a `:wall`
//    fault rule (kDeadlineExceeded), oversized results (kScriptError),
//    hostile programs (infinite loop, deep recursion, huge string
//    building) — and the budget kills are counted in
//    gateway.script.budget_kills;
//  * script property writes never leak into later traffic on the shard;
//  * over real sockets a kScript frame answers with an ordinary
//    kResponse carrying kOk / kScriptError, and the frame-mutation
//    fuzzer covers kScript at the socket level without killing the
//    server (wire_test.cpp covers the shared fuzz harness).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/script.h"
#include "minijs/interpreter.h"
#include "support/fault.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace mobivine {
namespace {

using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::ScriptRequest;
using gateway::ScriptResponse;

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

GatewayConfig BaseConfig(int shards = 1) {
  GatewayConfig config;
  config.shards = shards;
  config.store = &Store();
  return config;
}

ScriptRequest MakeScript(std::string source, std::uint64_t client_id = 7) {
  ScriptRequest request;
  request.client_id = client_id;
  request.source = std::move(source);
  return request;
}

/// The first client id the gateway routes to `shard`.
std::uint64_t ClientOnShard(const Gateway& gateway, std::uint32_t shard) {
  std::uint64_t id = 1;
  while (gateway.ShardFor(id) != shard) ++id;
  return id;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(ScriptCodec, RoundTripsAllFields) {
  wire::WireScriptRequest script;
  script.request_id = 42;
  script.client_id = 9001;
  script.timeout_micros = 1'000'000;
  script.step_budget = 5'000;
  script.virtual_us_budget = 250'000;
  script.max_result_bytes = 4096;
  script.source = "mobile.invoke('android', 'httpGet', args.url);";
  script.args.emplace_back("url", "http://gw.example/ping");
  script.args.emplace_back("note", std::string(300, 'x'));

  std::vector<std::uint8_t> frame;
  EncodeScript(script, frame);

  wire::FrameView view;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &view, &consumed,
                              &error),
            wire::DecodeStatus::kOk)
      << error;
  EXPECT_EQ(view.type, wire::FrameType::kScript);
  EXPECT_EQ(consumed, frame.size());

  wire::WireScriptRequest decoded;
  ASSERT_EQ(wire::DecodeScript(view.payload, view.payload_size, &decoded,
                               &error),
            wire::BodyStatus::kOk)
      << error;
  EXPECT_EQ(decoded.request_id, script.request_id);
  EXPECT_EQ(decoded.client_id, script.client_id);
  EXPECT_EQ(decoded.timeout_micros, script.timeout_micros);
  EXPECT_EQ(decoded.step_budget, script.step_budget);
  EXPECT_EQ(decoded.virtual_us_budget, script.virtual_us_budget);
  EXPECT_EQ(decoded.max_result_bytes, script.max_result_bytes);
  EXPECT_EQ(decoded.source, script.source);
  EXPECT_EQ(decoded.args, script.args);
}

TEST(ScriptCodec, IdStampingOverloadMatchesClientContract) {
  wire::WireScriptRequest script;
  script.request_id = 999;  // must be ignored by the stamping overload
  script.client_id = 3;
  script.source = "1 + 1";
  std::vector<std::uint8_t> frame;
  EncodeScript(script, /*request_id=*/77, frame);

  wire::FrameView view;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &view, &consumed,
                              &error),
            wire::DecodeStatus::kOk);
  wire::WireScriptRequest decoded;
  ASSERT_EQ(wire::DecodeScript(view.payload, view.payload_size, &decoded,
                               &error),
            wire::BodyStatus::kOk);
  EXPECT_EQ(decoded.request_id, 77u);
}

TEST(ScriptCodec, RejectsEmptySource) {
  wire::WireScriptRequest script;
  script.request_id = 1;
  script.source = "";
  std::vector<std::uint8_t> frame;
  EncodeScript(script, frame);
  wire::FrameView view;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &view, &consumed,
                              &error),
            wire::DecodeStatus::kOk);
  wire::WireScriptRequest decoded;
  EXPECT_EQ(wire::DecodeScript(view.payload, view.payload_size, &decoded,
                               &error),
            wire::BodyStatus::kBadBody);
  EXPECT_EQ(decoded.request_id, 1u);  // recovered for the typed response
}

TEST(ScriptCodec, DecoderSurvivesMutationSweep) {
  // Every single-byte mutation of a valid payload must produce a typed
  // decode result — kOk, kBadBody or kBadId — never a crash or an
  // overread (the suite runs under ASan in CI).
  wire::WireScriptRequest script;
  script.request_id = 11;
  script.client_id = 22;
  script.step_budget = 100;
  script.source = "mobile.invoke('android', 'getLocation')";
  script.args.emplace_back("k", "v");
  std::vector<std::uint8_t> frame;
  EncodeScript(script, frame);
  wire::FrameView view;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &view, &consumed,
                              &error),
            wire::DecodeStatus::kOk);
  std::vector<std::uint8_t> payload(view.payload,
                                    view.payload + view.payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
      std::vector<std::uint8_t> mutated = payload;
      mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ delta);
      wire::WireScriptRequest out;
      std::string why;
      (void)wire::DecodeScript(mutated.data(), mutated.size(), &out, &why);
    }
    // Truncations at every length, too.
    wire::WireScriptRequest out;
    std::string why;
    (void)wire::DecodeScript(payload.data(), i, &out, &why);
  }
}

// ---------------------------------------------------------------------------
// Gateway execution plane
// ---------------------------------------------------------------------------

TEST(ScriptGateway, CompositeAggregatesDependentInvocations) {
  Gateway gateway(BaseConfig());
  // The canonical composite: read a sensor, post the reading, fall back
  // to SMS if the post fails — three dependent round trips as requests,
  // one as a script.
  ScriptResponse response = gateway.CallScript(MakeScript(R"JS(
    var loc = mobile.invoke('android', 'getLocation');
    var posted;
    try {
      posted = mobile.invoke('android', 'httpPost',
                             'http://gw.example/track', loc, 'text/plain');
    } catch (e) {
      posted = 'sms:' + mobile.invoke('android', 'sendSms', '+15550123', loc);
    }
    'loc=' + loc + ';post=' + posted;
  )JS"));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_FALSE(response.script_error);
  // The in-sim HTTP host echoes POST bodies, so the result embeds the
  // "lat,lon" reading twice (GPS fix noise keeps the fraction fuzzy).
  EXPECT_NE(response.result.find("loc=28."), std::string::npos)
      << response.result;
  EXPECT_NE(response.result.find("post=28."), std::string::npos)
      << response.result;
  EXPECT_EQ(response.invocations, 2u);
  EXPECT_GT(response.steps, 0u);

  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.scripts, 1u);
  EXPECT_EQ(totals.accepted, 1u);
  EXPECT_EQ(totals.ok, 1u);
  EXPECT_EQ(totals.script_errors, 0u);
  EXPECT_EQ(totals.script_budget_kills, 0u);
  EXPECT_EQ(totals.script_invocations, 2u);
  EXPECT_GT(totals.script_steps, 0u);
}

TEST(ScriptGateway, ArgsAreExposedAndHostErrorsAreCatchable) {
  Gateway gateway(BaseConfig());
  ScriptRequest request = MakeScript(R"JS(
    var out = '';
    try {
      mobile.invoke(args.platform, 'httpGet', args.url);
    } catch (e) {
      out = e.name + ':' + e.message;
    }
    out;
  )JS");
  request.args.emplace_back("platform", "android");
  request.args.emplace_back("url", "http://nowhere.invalid/x");
  ScriptResponse response = gateway.CallScript(std::move(request));
  ASSERT_TRUE(response.ok) << response.message;
  // The unknown host surfaces as a catchable ProxyError object.
  EXPECT_NE(response.result.find("ProxyError:"), std::string::npos)
      << response.result;
}

TEST(ScriptGateway, UncaughtThrowMapsToScriptError) {
  Gateway gateway(BaseConfig());
  ScriptResponse response =
      gateway.CallScript(MakeScript("throw 'boom from script';"));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_FALSE(response.budget_kill);
  EXPECT_NE(response.message.find("boom from script"), std::string::npos);
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_errors, 1u);
  EXPECT_EQ(totals.failed, 1u);
}

TEST(ScriptGateway, ParseErrorMapsToScriptError) {
  Gateway gateway(BaseConfig());
  ScriptResponse response = gateway.CallScript(MakeScript("var = ;;;("));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_FALSE(response.message.empty());
}

TEST(ScriptGateway, UnknownPlatformOrOpIsATypedScriptThrow) {
  Gateway gateway(BaseConfig());
  ScriptResponse response = gateway.CallScript(
      MakeScript("mobile.invoke('palmos', 'getLocation');"));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_NE(response.message.find("unknown platform"), std::string::npos)
      << response.message;
}

// A caught ProxyError's `e.code` is the code's name, as its message spells
// it and docs/scripting.md promises, not the enumerator's number.
TEST(ScriptGateway, CaughtProxyErrorCodeIsTheCodeName) {
  Gateway gateway(BaseConfig());
  ScriptResponse response = gateway.CallScript(MakeScript(R"JS(
    var out = 'not thrown';
    try {
      mobile.invoke('palmos', 'getLocation');
    } catch (e) {
      out = (e.code === 'illegal-argument') + ':' + e.code;
    }
    out;
  )JS"));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.result, "true:illegal-argument");
}

TEST(ScriptGateway, PropertyWritesAreScopedToTheScript) {
  GatewayConfig config = BaseConfig();
  Gateway gateway(config);
  // The script sets a real descriptor-validated property, reads it back,
  // then the shard must restore the pre-script value for later traffic.
  ScriptResponse first = gateway.CallScript(MakeScript(R"JS(
    mobile.setProperty('s60', 'getLocation', 'powerConsumption', 'low');
    mobile.getProperty('s60', 'getLocation', 'powerConsumption');
  )JS"));
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.result, "low");

  ScriptResponse second = gateway.CallScript(MakeScript(
      "mobile.getProperty('s60', 'getLocation', 'powerConsumption');"));
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_NE(second.result, "low") << "property leaked across scripts";
}

// ---------------------------------------------------------------------------
// Sandbox budgets: every kill is a typed status, never a process fault
// ---------------------------------------------------------------------------

TEST(ScriptSandbox, StepBudgetKillsInfiniteLoop) {
  Gateway gateway(BaseConfig());
  ScriptRequest request = MakeScript("while (true) { var x = 1; }");
  request.step_budget = 10'000;
  ScriptResponse response = gateway.CallScript(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_TRUE(response.budget_kill);
  EXPECT_NE(response.message.find("step limit exceeded"), std::string::npos)
      << response.message;
  EXPECT_GT(response.steps, 10'000u);
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_budget_kills, 1u);
}

TEST(ScriptSandbox, StepBudgetKillIsNotCatchableInScript) {
  Gateway gateway(BaseConfig());
  // A hostile script wraps the burn loop in try/catch; the kill must
  // still surface (only ThrowSignal is catchable in-script, and the
  // step-limit ScriptError deliberately is not one).
  ScriptRequest request = MakeScript(R"JS(
    var out = 'survived';
    try { while (true) { out = out + ''; } } catch (e) { out = 'caught'; }
    out;
  )JS");
  request.step_budget = 5'000;
  ScriptResponse response = gateway.CallScript(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_TRUE(response.budget_kill);
}

TEST(ScriptSandbox, WallFaultBurnsVirtualTimeBudget) {
  GatewayConfig config = BaseConfig();
  // A `:wall` latency rule stalls the worker for real AND advances the
  // shard's virtual clock — exactly how a slow backend burns a script's
  // time budget. 50ms of injected latency against a 20ms budget.
  auto plan = support::FaultPlan::Parse("android:httpGet:latency=50000:wall");
  ASSERT_TRUE(plan.has_value());
  config.failover.fault_plan = *plan;
  Gateway gateway(config);

  ScriptRequest request = MakeScript(R"JS(
    mobile.invoke('android', 'httpGet', 'http://gw.example/ping');
    var i = 0;
    while (i < 10000) { i = i + 1; }
    'done';
  )JS");
  request.virtual_us_budget = 20'000;
  ScriptResponse response = gateway.CallScript(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.script_error);  // time budget is a deadline outcome
  EXPECT_TRUE(response.budget_kill);
  EXPECT_EQ(response.error, core::ErrorCode::kDeadlineExceeded);
  EXPECT_NE(response.message.find("virtual-time budget exceeded"),
            std::string::npos)
      << response.message;
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.timed_out, 1u);
  EXPECT_EQ(totals.script_budget_kills, 1u);
}

TEST(ScriptSandbox, OversizedResultIsRejected) {
  Gateway gateway(BaseConfig());
  ScriptRequest request = MakeScript(R"JS(
    var s = 'xxxxxxxxxxxxxxxx';
    var i = 0;
    while (i < 8) { s = s + s; i = i + 1; }
    s;
  )JS");  // 16 bytes << 8 = 4 KiB
  request.max_result_bytes = 1024;
  ScriptResponse response = gateway.CallScript(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.script_error);
  EXPECT_TRUE(response.budget_kill);
  EXPECT_NE(response.message.find("result over cap"), std::string::npos)
      << response.message;
}

TEST(ScriptSandbox, HostileCorpusAllDieTyped) {
  GatewayConfig config = BaseConfig();
  config.script.max_steps = 50'000;
  config.script.max_result_bytes = 64u << 10;
  Gateway gateway(config);
  const char* corpus[] = {
      // Infinite loop.
      "while (true) {}",
      // Deep recursion — would smash the C++ stack without the
      // interpreter's call-depth ceiling.
      "function f() { return f(); } f();",
      // Unbounded string doubling: reaches gigabytes within ~30 loop
      // iterations unless allocation burns the step budget — this is
      // the memory-exhaustion probe, not the result-cap one.
      "var s = 'x'; while (true) { s = s + s; }",
      // Throwing a huge value: the message is a display string of a
      // capped-size build, delivered typed.
      "var s = 'y'; var i = 0; while (i < 10) { s = s + s; i = i + 1; }"
      " throw s;",
      // Control flow with nowhere to go: a stray break, continue or
      // return must be a typed SyntaxError, not a control-flow signal
      // that escapes the engine and aborts the shard's process.
      "break;",
      "continue;",
      "return 1;",
      "function f() { continue; } while (true) { f(); }",
  };
  for (const char* source : corpus) {
    ScriptResponse response = gateway.CallScript(MakeScript(source));
    EXPECT_FALSE(response.ok) << source;
    // Typed outcome, process alive: either a script error or a budget
    // status — never a crash (ASan/TSan runs make "never" checkable).
    EXPECT_TRUE(response.script_error ||
                response.error == core::ErrorCode::kDeadlineExceeded)
        << source << ": " << response.message;
  }
  // Runaways made only of jumps and calls: each pays a step per statement
  // like any other loop, so each dies typed on the step budget.
  for (const char* source :
       {"for (;;) { continue; }",
        "function g() { return 1; } while (true) { g(); }"}) {
    ScriptResponse response = gateway.CallScript(MakeScript(source));
    EXPECT_FALSE(response.ok) << source;
    EXPECT_TRUE(response.script_error && response.budget_kill)
        << source << ": " << response.message;
    EXPECT_NE(response.message.find("step limit exceeded"), std::string::npos)
        << source << ": " << response.message;
  }
  // The gateway still serves normal scripts afterwards.
  ScriptResponse after = gateway.CallScript(MakeScript("'alive';"));
  ASSERT_TRUE(after.ok) << after.message;
  EXPECT_EQ(after.result, "alive");
}

TEST(ScriptSandbox, BudgetsAreClampedToOperatorCeilings) {
  GatewayConfig config = BaseConfig();
  config.script.max_steps = 1'000;
  Gateway gateway(config);
  // The client asks for a bigger sandbox than the operator allows; the
  // clamp means the loop still dies at the server's ceiling.
  ScriptRequest request = MakeScript("while (true) {}");
  request.step_budget = 100'000'000;
  ScriptResponse response = gateway.CallScript(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.budget_kill);
  EXPECT_LT(response.steps, 5'000u);
}

TEST(ScriptGateway, ShedWhenStoppingIsTypedOverload) {
  auto gateway = std::make_unique<Gateway>(BaseConfig());
  gateway->Stop();
  ScriptResponse response = gateway->CallScript(MakeScript("'x'"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, core::ErrorCode::kOverloaded);
  EXPECT_EQ(response.message, "gateway is stopping");
}

// ---------------------------------------------------------------------------
// Over real sockets
// ---------------------------------------------------------------------------

TEST(ScriptWire, RoundTripOverSockets) {
  Gateway gateway(BaseConfig(2));
  wire::WireServer server(gateway);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  wire::WireClient client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;

  wire::WireScriptRequest script;
  script.client_id = 5;
  script.source = "mobile.invoke('android', 'httpGet', args.url);";
  script.args.emplace_back("url", "http://gw.example/ping");
  wire::WireResponse response;
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kOk) << response.body;
  EXPECT_EQ(response.body, "pong");

  // Script failure: typed kScriptError with the thrown display string.
  script.source = "throw 'socket boom';";
  script.args.clear();
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kScriptError);
  EXPECT_NE(response.body.find("socket boom"), std::string::npos);

  // Budget kill over the wire: still a frame, still typed.
  script.source = "while (true) {}";
  script.step_budget = 2'000;
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kScriptError);
  EXPECT_NE(response.body.find("step limit exceeded"), std::string::npos);

  const wire::WireStatsSnapshot wire_stats = server.Stats();
  EXPECT_EQ(wire_stats.scripts_dispatched, 3u);
  EXPECT_EQ(wire_stats.requests_dispatched, 0u);

  client.Close();
  server.Stop();
  gateway.Stop();
}

TEST(ScriptWire, MalformedScriptBodyGetsTypedResponse) {
  Gateway gateway(BaseConfig());
  wire::WireServer server(gateway);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  wire::WireClient client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;

  // Empty source is well-framed but violates the body rule: the server
  // must answer kMalformedRequest in-band and keep the connection.
  wire::WireScriptRequest script;
  script.client_id = 1;
  script.source = "";
  wire::WireResponse response;
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kMalformedRequest);

  // Connection still alive for a healthy script.
  script.source = "'still here';";
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kOk);
  EXPECT_EQ(response.body, "still here");

  client.Close();
  server.Stop();
  gateway.Stop();
}

TEST(ScriptWire, PipelinedScriptsAllComplete) {
  Gateway gateway(BaseConfig(2));
  wire::WireServer server(gateway);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  wire::WireClient client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;

  constexpr int kScripts = 32;
  std::atomic<int> completed{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < kScripts; ++i) {
    wire::WireScriptRequest script;
    script.client_id = static_cast<std::uint64_t>(i);
    script.source = "1 + " + std::to_string(i) + ";";
    ASSERT_TRUE(client.SubmitScript(
        script, [&completed, &ok](const wire::WireResponse& response) {
          if (response.status == wire::WireStatus::kOk) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load(std::memory_order_relaxed) < kScripts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), kScripts);
  EXPECT_EQ(ok.load(), kScripts);

  client.Close();
  server.Stop();
  gateway.Stop();
}

// ---------------------------------------------------------------------------
// Interpreter seams the engine depends on
// ---------------------------------------------------------------------------

TEST(ScriptInterpreter, StepObserverDeliversAllSteps) {
  minijs::Interpreter interp;
  std::uint64_t observed = 0;
  interp.set_step_observer(
      [&observed](std::uint64_t delta) { observed += delta; },
      /*interval=*/64);
  (void)interp.Run("var i = 0; while (i < 1000) { i = i + 1; }");
  interp.FlushStepObserver();
  EXPECT_EQ(observed, interp.steps());
}

TEST(ScriptInterpreter, ObserverThrowIsNotCatchableInScript) {
  minijs::Interpreter interp;
  struct Kill {};
  int fires = 0;
  interp.set_step_observer(
      [&fires](std::uint64_t) {
        if (++fires >= 3) throw Kill{};
      },
      /*interval=*/32);
  EXPECT_THROW(
      (void)interp.Run("try { while (true) {} } catch (e) { 'swallowed'; }"),
      Kill);
}

TEST(ScriptInterpreter, CallDepthCeilingIsCatchableRangeError) {
  minijs::Interpreter interp;
  const minijs::Value value = interp.Run(
      "function f() { try { return f(); } catch (e) { return e.name; } }"
      " f();");
  EXPECT_EQ(value.ToDisplayString(), "RangeError");
}

// ---------------------------------------------------------------------------
// Parse cache
// ---------------------------------------------------------------------------
//
// Admission is on the second sighting: a source's first run leaves only
// its hash in the doorkeeper, its second parse enters the LRU, and its
// third run is the first hit.

/// Run `source` on `client_id`'s shard; true when it reused a resident
/// parse.
bool RunHits(Gateway& gateway, const std::string& source,
             std::uint64_t client_id = 7) {
  const ScriptResponse response =
      gateway.CallScript(MakeScript(source, client_id));
  EXPECT_TRUE(response.ok) << source << ": " << response.message;
  return response.cache_hit;
}

TEST(ScriptCache, ThirdExecutionOfSameSourceIsAHit) {
  Gateway gateway(BaseConfig());
  const char* source = "'cached ' + (1 + 2);";
  const ScriptResponse first = gateway.CallScript(MakeScript(source));
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_FALSE(first.cache_hit);
  const ScriptResponse second = gateway.CallScript(MakeScript(source));
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result, first.result);
  const ScriptResponse third = gateway.CallScript(MakeScript(source));
  ASSERT_TRUE(third.ok) << third.message;
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result, first.result);
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 1u);
  EXPECT_EQ(totals.script_cache_misses, 2u);
  EXPECT_EQ(totals.script_cache_hits + totals.script_cache_misses,
            totals.scripts);
}

TEST(ScriptCache, SecondRunAdmitsThirdRunHits) {
  gateway::ParseCache cache(4);
  const std::string source = "'admit ' + 1;";
  const auto first = cache.Get(source);
  EXPECT_FALSE(first.hit);
  // The first parse is not held by the cache: the caller's reference is
  // its only one, so it is freed when the run ends.
  EXPECT_EQ(first.program.use_count(), 1);
  const auto second = cache.Get(source);
  EXPECT_FALSE(second.hit);
  // The second parse is admitted: the LRU holds it beside the caller.
  EXPECT_NE(second.program, first.program);
  EXPECT_EQ(second.program.use_count(), 2);
  const auto third = cache.Get(source);
  EXPECT_TRUE(third.hit);
  EXPECT_EQ(third.program, second.program);
}

TEST(ScriptCache, CachedProgramGetsFreshArgsAndBudgets) {
  Gateway gateway(BaseConfig());
  // Same source, different args: the parse is reused, the sandbox state
  // must not be. A cache that reused the interpreter (or captured an
  // earlier run's args) would echo "one" or "two" again.
  auto with_arg = [](const char* value) {
    ScriptRequest request = MakeScript("'v=' + args.x;");
    request.args.emplace_back("x", value);
    return request;
  };
  const ScriptResponse first = gateway.CallScript(with_arg("one"));
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.result, "v=one");
  const ScriptResponse second = gateway.CallScript(with_arg("two"));
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result, "v=two");
  const ScriptResponse third = gateway.CallScript(with_arg("three"));
  ASSERT_TRUE(third.ok) << third.message;
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result, "v=three");

  // Budgets are per-execution too: the same (now cached) looping source
  // must run under a generous step budget and die under a tight one.
  const char* loop = "var i = 0; while (i < 2000) { i = i + 1; } 'done';";
  for (int run = 0; run < 2; ++run) {
    ScriptRequest generous = MakeScript(loop);
    const ScriptResponse ran = gateway.CallScript(std::move(generous));
    ASSERT_TRUE(ran.ok) << ran.message;
  }
  ScriptRequest tight = MakeScript(loop);
  tight.step_budget = 100;
  const ScriptResponse killed = gateway.CallScript(std::move(tight));
  EXPECT_FALSE(killed.ok);
  EXPECT_TRUE(killed.cache_hit);
  EXPECT_TRUE(killed.budget_kill);
}

TEST(ScriptCache, LruEvictsTheColdestProgram) {
  GatewayConfig config = BaseConfig();
  config.script.parse_cache_entries = 2;
  Gateway gateway(config);
  EXPECT_FALSE(RunHits(gateway, "'a';"));
  EXPECT_FALSE(RunHits(gateway, "'a';"));  // admitted
  EXPECT_TRUE(RunHits(gateway, "'a';"));
  EXPECT_FALSE(RunHits(gateway, "'b';"));
  EXPECT_FALSE(RunHits(gateway, "'b';"));
  // The cache is full: a third program is admitted only once it has run
  // more often than the LRU victim, 'a' (three runs), and then evicts it.
  for (int run = 0; run < 4; ++run) EXPECT_FALSE(RunHits(gateway, "'c';"));
  EXPECT_FALSE(RunHits(gateway, "'a';"));
  // 'c' stayed resident through the re-parse of 'a' ('b', which ran
  // least, was evicted).
  EXPECT_TRUE(RunHits(gateway, "'c';"));
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 2u);
  EXPECT_EQ(totals.script_cache_misses, 9u);
}

TEST(ScriptCache, EvictedProgramIsReadmittedOnNextRun) {
  GatewayConfig config = BaseConfig();
  config.script.parse_cache_entries = 2;
  Gateway gateway(config);
  for (const char* source : {"'a';", "'b';"}) {
    EXPECT_FALSE(RunHits(gateway, source));
    EXPECT_FALSE(RunHits(gateway, source));  // admitted
  }
  // 'c' outruns the victim 'a' on its third run and evicts it.
  for (int run = 0; run < 3; ++run) EXPECT_FALSE(RunHits(gateway, "'c';"));
  // 'a''s hash stayed in the doorkeeper: its next run is re-admitted at
  // once (evicting 'b', which ran less), and the run after that hits.
  EXPECT_FALSE(RunHits(gateway, "'a';"));
  EXPECT_TRUE(RunHits(gateway, "'a';"));
  EXPECT_TRUE(RunHits(gateway, "'c';"));
  // 'b' kept its hash and its two runs in the doorkeeper, but the victim
  // is now 'a' (four runs): 'b''s third and fourth runs do not outrun
  // it, so both miss and 'a' stays resident.
  EXPECT_FALSE(RunHits(gateway, "'b';"));
  EXPECT_FALSE(RunHits(gateway, "'b';"));
  EXPECT_TRUE(RunHits(gateway, "'a';"));
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 3u);
  EXPECT_EQ(totals.script_cache_misses, 10u);
}

TEST(ScriptCache, FloodOfUniqueSourcesKeepsHotProgramsResident) {
  GatewayConfig config = BaseConfig();
  config.script.parse_cache_entries = 2;
  Gateway gateway(config);
  for (const char* hot : {"'a';", "'b';"}) {
    EXPECT_FALSE(RunHits(gateway, hot));
    EXPECT_FALSE(RunHits(gateway, hot));  // admitted
  }
  // One-shot sources only cycle the doorkeeper: none is admitted, so
  // none can evict a resident Program.
  constexpr int kUnique = 1000;
  for (int i = 0; i < kUnique; ++i) {
    EXPECT_FALSE(RunHits(gateway, "'once " + std::to_string(i) + "';"));
  }
  EXPECT_TRUE(RunHits(gateway, "'a';"));
  EXPECT_TRUE(RunHits(gateway, "'b';"));
  // Sources sent twice each pass the doorkeeper, but a full cache admits
  // a newcomer only when it has run more often than the victim would
  // have: none of them evicts a hot program.
  for (int i = 0; i < kUnique; ++i) {
    const std::string twice = "'twice " + std::to_string(i) + "';";
    EXPECT_FALSE(RunHits(gateway, twice));
    EXPECT_FALSE(RunHits(gateway, twice));
  }
  EXPECT_TRUE(RunHits(gateway, "'a';"));
  EXPECT_TRUE(RunHits(gateway, "'b';"));
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 4u);
  EXPECT_EQ(totals.script_cache_misses, 4u + 3 * kUnique);
}

TEST(ScriptCache, ShardsShareOneCache) {
  Gateway gateway(BaseConfig(2));
  const char* source = "'shared ' + (2 * 3);";
  const ScriptResponse first =
      gateway.CallScript(MakeScript(source, ClientOnShard(gateway, 0)));
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.shard, 0u);
  EXPECT_FALSE(first.cache_hit);
  // Client ids, not sources, pick the shard. The doorkeeper is the
  // gateway's: shard 1's run is the second sighting and admits its parse.
  const ScriptResponse second =
      gateway.CallScript(MakeScript(source, ClientOnShard(gateway, 1)));
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_EQ(second.shard, 1u);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result, first.result);
  // Shard 0 reuses the Program shard 1 parsed, and so does shard 1.
  const ScriptResponse third =
      gateway.CallScript(MakeScript(source, ClientOnShard(gateway, 0)));
  ASSERT_TRUE(third.ok) << third.message;
  EXPECT_EQ(third.shard, 0u);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result, first.result);
  EXPECT_TRUE(RunHits(gateway, source, ClientOnShard(gateway, 1)));
  const auto stats = gateway.Stats();
  EXPECT_EQ(stats.shards[0].script_cache_misses, 1u);
  EXPECT_EQ(stats.shards[0].script_cache_hits, 1u);
  EXPECT_EQ(stats.shards[1].script_cache_misses, 1u);
  EXPECT_EQ(stats.shards[1].script_cache_hits, 1u);
}

/// Run `source` on every client at once, one thread each; returns the
/// responses in client order.
std::vector<ScriptResponse> RunAtOnce(Gateway& gateway,
                                      const std::string& source,
                                      const std::vector<std::uint64_t>& clients) {
  std::atomic<std::size_t> ready{0};
  std::vector<ScriptResponse> responses(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < clients.size()) std::this_thread::yield();
      responses[i] = gateway.CallScript(MakeScript(source, clients[i]));
    });
  }
  for (std::thread& thread : threads) thread.join();
  return responses;
}

TEST(ScriptCache, ConcurrentFirstRunsOnFourShardsShareOneProgram) {
  constexpr std::uint32_t kShards = 4;
  constexpr int kRounds = 16;
  Gateway gateway(BaseConfig(kShards));
  std::vector<std::uint64_t> clients;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    clients.push_back(ClientOnShard(gateway, shard));
  }
  for (int round = 0; round < kRounds; ++round) {
    // Every shard parses the same fresh source at once. The first parse
    // to finish leaves the hash in the doorkeeper, the next admits its
    // Program, and any later one keeps the resident Program instead of
    // corrupting the LRU. A run can only hit after two parses finished,
    // so at least the first two runs miss.
    const std::string source = "'round ' + " + std::to_string(round) + ";";
    const std::string expected = "round " + std::to_string(round);
    std::uint32_t misses = 0;
    for (const ScriptResponse& response : RunAtOnce(gateway, source, clients)) {
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.result, expected);
      if (!response.cache_hit) ++misses;
    }
    EXPECT_GE(misses, 2u) << "round " << round;
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      EXPECT_TRUE(RunHits(gateway, source, clients[shard]))
          << "round " << round << " shard " << shard;
    }
  }
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.scripts, 2u * kShards * kRounds);
  EXPECT_EQ(totals.script_cache_hits + totals.script_cache_misses,
            totals.scripts);
  EXPECT_GE(totals.script_cache_hits, std::uint64_t{kShards} * kRounds);
}

TEST(ScriptCache, ConcurrentSecondSightingsOnFourShardsAdmitOneProgram) {
  constexpr std::uint32_t kShards = 4;
  constexpr int kRounds = 16;
  Gateway gateway(BaseConfig(kShards));
  std::vector<std::uint64_t> clients;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    clients.push_back(ClientOnShard(gateway, shard));
  }
  for (int round = 0; round < kRounds; ++round) {
    // One shard sights the source first; then every shard sees it for
    // the second time at once and races to admit it. Nothing is resident
    // until one of those parses lands, so at least one of them misses.
    const std::string source = "'second ' + " + std::to_string(round) + ";";
    const std::string expected = "second " + std::to_string(round);
    EXPECT_FALSE(RunHits(gateway, source, clients[round % kShards]));
    std::uint32_t misses = 0;
    for (const ScriptResponse& response : RunAtOnce(gateway, source, clients)) {
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.result, expected);
      if (!response.cache_hit) ++misses;
    }
    EXPECT_GE(misses, 1u) << "round " << round;
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      EXPECT_TRUE(RunHits(gateway, source, clients[shard]))
          << "round " << round << " shard " << shard;
    }
  }
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.scripts, (1u + 2u * kShards) * kRounds);
  EXPECT_EQ(totals.script_cache_hits + totals.script_cache_misses,
            totals.scripts);
  EXPECT_GE(totals.script_cache_hits, std::uint64_t{kShards} * kRounds);
}

TEST(ScriptCache, LruOrderHoldsAcrossShards) {
  GatewayConfig config = BaseConfig(2);
  config.script.parse_cache_entries = 2;
  Gateway gateway(config);
  const std::uint64_t left = ClientOnShard(gateway, 0);
  const std::uint64_t right = ClientOnShard(gateway, 1);
  // A second sighting on the other shard admits: the doorkeeper, like
  // the LRU, is the gateway's.
  EXPECT_FALSE(RunHits(gateway, "'a';", left));
  EXPECT_FALSE(RunHits(gateway, "'a';", right));
  EXPECT_TRUE(RunHits(gateway, "'a';", left));
  EXPECT_FALSE(RunHits(gateway, "'b';", right));
  EXPECT_FALSE(RunHits(gateway, "'b';", left));
  // A third program, run from either shard, is admitted once it has run
  // more often than the victim 'a' and evicts it: the bound and the
  // frequencies are the gateway's, not each shard's.
  for (int run = 0; run < 4; ++run) {
    EXPECT_FALSE(RunHits(gateway, "'c';", run % 2 == 0 ? left : right));
  }
  EXPECT_FALSE(RunHits(gateway, "'a';", right));
  // 'c' stayed resident through the re-parse of 'a' ('b' was evicted).
  EXPECT_TRUE(RunHits(gateway, "'c';", right));
  EXPECT_FALSE(RunHits(gateway, "'b';", left));
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 2u);
  EXPECT_EQ(totals.script_cache_misses, 10u);
}

TEST(ScriptCache, ZeroEntriesDisablesCaching) {
  GatewayConfig config = BaseConfig();
  config.script.parse_cache_entries = 0;
  Gateway gateway(config);
  const char* source = "'twice';";
  // Not even the third run hits: nothing is remembered or admitted.
  EXPECT_FALSE(gateway.CallScript(MakeScript(source)).cache_hit);
  EXPECT_FALSE(gateway.CallScript(MakeScript(source)).cache_hit);
  EXPECT_FALSE(gateway.CallScript(MakeScript(source)).cache_hit);
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 0u);
  EXPECT_EQ(totals.script_cache_misses, 3u);
}

TEST(ScriptCache, ParseFailuresAreNeverCached) {
  Gateway gateway(BaseConfig());
  const char* broken = "var (;";
  // A failed parse reaches neither the doorkeeper nor the LRU: every run
  // is a parse (and a miss) — an error cached as a program would replay
  // the stale failure even after an engine fix.
  for (int run = 0; run < 3; ++run) {
    const ScriptResponse response = gateway.CallScript(MakeScript(broken));
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.cache_hit);
  }
  const auto totals = gateway.Stats().totals;
  EXPECT_EQ(totals.script_cache_hits, 0u);
  EXPECT_EQ(totals.script_cache_misses, 3u);
}

// ---------------------------------------------------------------------------
// Teardown: reference cycles a script builds are freed with its sandbox
// ---------------------------------------------------------------------------

TEST(ScriptLeak, CycleFormingScriptsReturnToTheLiveBaseline) {
  Gateway gateway(BaseConfig());
  const char* const shapes[] = {
      // A closure stored on a global object it reads back: the cycle runs
      // through the global scope (and pins `mobile` and `args` with it).
      "var o = {n: 1}; o.f = function() { return o.n; }; o.f();",
      // A closure stored in the function scope it captures.
      "function make() { var self = {}; var g = function() { return self; };"
      " self.g = g; return 1; } make();",
      // An object that holds itself, directly and through an array.
      "var o = {}; o.self = o; o.list = [o]; 1;",
      // An array that contains itself, by push and by index.
      "var a = [1]; a.push(a); a[2] = a; a.length;",
      // Host objects a script ties into knots.
      "args.me = args; mobile.me = mobile; args.m = mobile; 1;",
  };
  for (const char* shape : shapes) {
    ASSERT_TRUE(gateway.CallScript(MakeScript(shape)).ok) << shape;
    const std::int64_t baseline = minijs::LiveHeapCells();
    for (int i = 0; i < 10'000; ++i) {
      const ScriptResponse response = gateway.CallScript(MakeScript(shape));
      ASSERT_TRUE(response.ok) << shape << ": " << response.message;
    }
    EXPECT_EQ(minijs::LiveHeapCells(), baseline) << shape;
  }
}

}  // namespace
}  // namespace mobivine
