// M-Scope: the observability plane's contract.
//
// What must hold:
//  * tracing is off by default and a disabled hook records nothing;
//  * spans export as Chrome trace_event complete events with their tags,
//    instants as "i" events, cross-thread intervals via CompleteEvent;
//  * per-thread buffers survive their thread's join, fill by dropping
//    new events (published slots are immutable), and Reset() discards;
//  * a thread gets a buffer only when it records with tracing on: naming
//    threads and running a gateway + wire server with tracing off leave
//    nothing behind, and a thread's label outlives Reset();
//  * a registered virtual clock attaches virtual-time attribution;
//  * MetricsRegistry snapshots registered sources under their prefix,
//    renders flat JSON, and RAII registrations unregister on destruction;
//  * a traced gateway call yields nested spans from both layers (gateway
//    attempt enclosing core invocation work) on the worker's tid.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "wire/client.h"
#include "wire/server.h"

namespace mobivine {
namespace {

namespace trace = support::trace;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetEnabled(false);
    trace::SetPerThreadCapacity(64 * 1024);
    trace::Reset();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::SetThreadVirtualClock(nullptr, nullptr);
    trace::SetPerThreadCapacity(64 * 1024);
    trace::Reset();
  }

  static std::string Export(trace::ExportStats* stats = nullptr) {
    std::ostringstream out;
    const trace::ExportStats s = trace::ExportChromeTrace(out);
    if (stats != nullptr) *stats = s;
    return out.str();
  }
};

TEST_F(TraceTest, DisabledByDefaultRecordsNothing) {
  EXPECT_FALSE(trace::IsEnabled());
  {
    trace::Span span("should-not-appear");
    span.Tag("k", 1);
  }
  trace::Instant("also-not", "k", 2);
  trace::CompleteEvent("nor-this", std::chrono::steady_clock::now(),
                       std::chrono::steady_clock::now());
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(json.find("should-not-appear"), std::string::npos);
}

TEST_F(TraceTest, SpansExportAsCompleteEventsWithTags) {
  trace::SetEnabled(true);
  {
    trace::Span outer("outer");
    outer.Tag("n", 7);
    outer.Tag("shard", 3);
    { trace::Span inner("inner"); }
  }
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":7"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
  // Spans publish at End(): inner (ending first) precedes outer in the
  // buffer, and both carry a dur field.
  EXPECT_LT(json.find("\"name\":\"inner\""), json.find("\"name\":\"outer\""));
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, InstantEventsExportWithMarker) {
  trace::SetEnabled(true);
  trace::Instant("mark", "value", 41);
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mark\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":41"), std::string::npos);
}

TEST_F(TraceTest, CompleteEventUsesCallerSuppliedBounds) {
  trace::SetEnabled(true);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::milliseconds(2);
  trace::CompleteEvent("queue_wait", start, end, "shard", 1);
  const std::string json = Export();
  // 2 ms -> "dur":2000.0 (µs with one decimal of 100 ns).
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000.0"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":1"), std::string::npos);
}

TEST_F(TraceTest, BuffersSurviveThreadJoinAndCarryDistinctTids) {
  trace::SetEnabled(true);
  std::thread worker([] {
    trace::SetCurrentThreadName("worker-1");
    trace::Span span("on-worker");
  });
  worker.join();
  { trace::Span span("on-main"); }
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_GE(stats.threads, 2u);
  EXPECT_EQ(stats.events, 2u);
  // The joined worker's span still exports, with its thread_name metadata.
  EXPECT_NE(json.find("\"name\":\"on-worker\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"on-main\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
}

TEST_F(TraceTest, FullBufferDropsNewEventsAndCountsThem) {
  trace::SetPerThreadCapacity(16);
  trace::Reset();  // the shrunken capacity applies to fresh buffers
  trace::SetEnabled(true);
  for (int i = 0; i < 40; ++i) trace::Instant("burst");
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 16u);   // published slots kept, never wrapped
  EXPECT_EQ(stats.dropped, 24u);  // the overflow is accounted, not silent
  EXPECT_NE(json.find("\"name\":\"burst\""), std::string::npos);
}

TEST_F(TraceTest, ResetDiscardsRecordedEvents) {
  trace::SetEnabled(true);
  { trace::Span span("before-reset"); }
  trace::Reset();
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(json.find("before-reset"), std::string::npos);
}

TEST_F(TraceTest, ThreadNameSurvivesReset) {
  std::promise<void> named;
  std::promise<void> reset;
  std::thread worker([&] {
    trace::SetCurrentThreadName("worker-reset");
    named.set_value();
    reset.get_future().wait();
    trace::Span span("after-reset");
  });
  named.get_future().wait();
  trace::Reset();
  trace::SetEnabled(true);
  reset.set_value();
  worker.join();
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_NE(json.find("\"name\":\"after-reset\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-reset\""), std::string::npos);
}

TEST_F(TraceTest, NamingAThreadWhileDisabledAllocatesNoBuffer) {
  std::thread worker([] { trace::SetCurrentThreadName("idle-worker"); });
  worker.join();
  trace::ExportStats stats;
  const std::string json = Export(&stats);
  EXPECT_EQ(stats.threads, 0u);
  EXPECT_EQ(json.find("idle-worker"), std::string::npos);
}

std::uint64_t FakeVirtualClock(void* ctx) {
  return *static_cast<std::uint64_t*>(ctx);
}

TEST_F(TraceTest, RegisteredVirtualClockAttachesVirtualTimestamps) {
  trace::SetEnabled(true);
  std::uint64_t virtual_now = 100;
  trace::SetThreadVirtualClock(&FakeVirtualClock, &virtual_now);
  {
    trace::Span span("virt");
    virtual_now = 350;  // the span "costs" 250 virtual microseconds
  }
  trace::SetThreadVirtualClock(nullptr, nullptr);
  { trace::Span span("no-virt"); }
  const std::string json = Export();
  EXPECT_NE(json.find("\"virt_start_us\":100"), std::string::npos);
  EXPECT_NE(json.find("\"virt_dur_us\":250"), std::string::npos);
  // After clearing the clock, spans carry no virtual pair.
  const std::size_t no_virt = json.find("\"name\":\"no-virt\"");
  ASSERT_NE(no_virt, std::string::npos);
  EXPECT_EQ(json.find("virt_start_us", no_virt), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotCollectsPrefixedSortedEntries) {
  support::MetricsRegistry registry;
  auto reg_b = registry.Register("b.", [](support::MetricsSink& sink) {
    sink.Counter("count", 5);
  });
  auto reg_a = registry.Register("a.", [](support::MetricsSink& sink) {
    sink.Gauge("ratio", 0.5);
    sink.Counter("hits", 3);
  });
  EXPECT_EQ(registry.source_count(), 2u);

  const support::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.entries.size(), 3u);
  // Sorted by full name, prefixes applied.
  EXPECT_EQ(snapshot.entries[0].name, "a.hits");
  EXPECT_EQ(snapshot.entries[1].name, "a.ratio");
  EXPECT_EQ(snapshot.entries[2].name, "b.count");

  const auto* hits = snapshot.Find("a.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_TRUE(hits->is_counter);
  EXPECT_EQ(hits->count, 3u);
  const auto* ratio = snapshot.Find("a.ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_FALSE(ratio->is_counter);
  EXPECT_DOUBLE_EQ(ratio->gauge, 0.5);
  EXPECT_EQ(snapshot.Find("missing"), nullptr);
}

TEST(MetricsRegistry, RegistrationUnregistersOnDestruction) {
  support::MetricsRegistry registry;
  {
    auto reg = registry.Register("x.", [](support::MetricsSink& sink) {
      sink.Counter("alive", 1);
    });
    EXPECT_EQ(registry.source_count(), 1u);
    EXPECT_NE(registry.Snapshot().Find("x.alive"), nullptr);
  }
  EXPECT_EQ(registry.source_count(), 0u);
  EXPECT_TRUE(registry.Snapshot().entries.empty());
}

TEST(MetricsRegistry, WriteJsonRendersFlatDump) {
  support::MetricsRegistry registry;
  auto reg = registry.Register("m.", [](support::MetricsSink& sink) {
    sink.Counter("requests", 42);
    sink.Gauge("p99_us", 1234.5);
    sink.Gauge("broken", std::nan(""));
  });
  std::ostringstream out;
  registry.Snapshot().WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"metrics\":{"), 0u);
  EXPECT_NE(json.find("\"m.requests\":42"), std::string::npos);
  EXPECT_NE(json.find("\"m.p99_us\":1234.5"), std::string::npos);
  // Non-finite gauges must not produce invalid JSON.
  EXPECT_NE(json.find("\"m.broken\":null"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Both layers through the gateway
// ---------------------------------------------------------------------------

TEST_F(TraceTest, GatewayCallEmitsSpansFromBothLayers) {
  trace::SetEnabled(true);
  const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  gateway::GatewayConfig config;
  config.shards = 1;
  config.store = &store;
  gateway::Gateway gw(config);

  support::MetricsRegistry metrics;
  const auto registration = gw.RegisterMetrics(metrics);

  gateway::Request request;
  request.client_id = 1;
  request.platform = gateway::Platform::kS60;
  request.op = gateway::Op::kGetLocation;
  request.properties.emplace_back("horizontalAccuracy", 50LL);
  const gateway::Response response = gw.Call(std::move(request));
  ASSERT_TRUE(response.ok) << response.message;

  const support::MetricsSnapshot snapshot = metrics.Snapshot();
  const auto* ok = snapshot.Find("gateway.ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->count, 1u);
  const auto* dispatch = snapshot.Find("gateway.op.dispatch");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GE(dispatch->count, 1u);  // the OverheadMeter plane flows through

  gw.Stop();
  const std::string json = Export();
  // Serving-plane spans...
  EXPECT_NE(json.find("\"name\":\"gateway.submit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gateway.queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gateway.serve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gateway.attempt\""), std::string::npos);
  // ...and core invocation spans underneath, with op attribution.
  EXPECT_NE(json.find("\"name\":\"core.setProperty\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op.dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"virt_cost_us\""), std::string::npos);
  // The worker thread registered both its name and its virtual clock.
  EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"virt_start_us\""), std::string::npos);
}

TEST_F(TraceTest, GatewayCyclesRetainNoBuffersWhenDisabled) {
  const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  for (int cycle = 0; cycle < 3; ++cycle) {
    gateway::GatewayConfig gateway_config;
    gateway_config.shards = 2;
    gateway_config.store = &store;
    gateway::Gateway gw(gateway_config);
    wire::WireServerConfig wire_config;
    wire_config.event_loops = 1;
    wire::WireServer server(gw, wire_config);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    wire::WireClient client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    wire::WireRequest request;
    request.client_id = 1;
    request.platform = gateway::Platform::kAndroid;
    request.op = gateway::Op::kHttpGet;
    request.target =
        std::string("http://") + gateway::kGatewayHttpHost + "/ping";
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(request, &response));
    EXPECT_EQ(response.status, wire::WireStatus::kOk) << response.body;
    client.Close();
    server.Stop();
    gw.Stop();
  }
  // Shard and wire-loop threads all named themselves, but none
  // recorded an event, so none holds a buffer.
  trace::ExportStats stats;
  Export(&stats);
  EXPECT_EQ(stats.threads, 0u);
  EXPECT_EQ(stats.events, 0u);
}

}  // namespace
}  // namespace mobivine
