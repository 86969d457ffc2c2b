// M-Gateway tenancy: the weighted-admission contract from
// gateway/tenant.h.
//
// What must hold:
//  * the TenantTable always contains the built-in default tenant, resolves
//    unknown ids to it, and computes caps as max(1, floor(watermark*w/Σw))
//    with weight 0 a hard zero quota;
//  * a zero-quota tenant is shed with the same typed kOverloaded as a
//    watermark shed, even on an idle gateway, and the shed is counted as
//    quota_shed;
//  * the cap bounds a tenant's *outstanding* (queued + in-service) work
//    exactly — a burst above it is quota-shed deterministically;
//  * because shards serve FIFO under per-tenant outstanding caps, served
//    throughput under full backlog follows the weight ratio;
//  * per-tenant counters reconcile exactly once quiescent, including under
//    concurrent multi-tenant traffic: ok + failed + timed_out + shed ==
//    submitted, and the latency histogram holds exactly the completions;
//  * the shard plane and the tenant plane book the same outcome band for
//    every completion, requests and scripts alike;
//  * every entry point (Submit, borrowed Submit, SubmitScript) sheds the
//    same way for each shed cause: one kOverloaded callback on the
//    submitting thread, the same message, the same booking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/tenant.h"
#include "gateway/traffic.h"
#include "gateway_test_util.h"
#include "support/fault.h"

namespace mobivine {
namespace {

using core::ErrorCode;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Op;
using gateway::Platform;
using gateway::Request;
using gateway::Response;
using gateway::ScriptRequest;
using gateway::ScriptResponse;
using gateway::TenantConfig;
using gateway::TenantSnapshot;
using gateway::TenantTable;
using testing::WorkerBlocker;

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

Request PingRequest(std::uint32_t tenant, std::uint64_t client_id = 1) {
  Request request;
  request.client_id = client_id;
  request.tenant = tenant;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target =
      std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  return request;
}

TenantSnapshot RowFor(const Gateway& gateway, std::uint32_t id) {
  for (const TenantSnapshot& row : gateway.TenantStatsSnapshot()) {
    if (row.id == id) return row;
  }
  ADD_FAILURE() << "no tenant row with id " << id;
  return {};
}

// ---------------------------------------------------------------------------
// TenantTable
// ---------------------------------------------------------------------------

TEST(TenantTable, PrependsDefaultAndResolvesUnknownIdsToIt) {
  TenantTable table({TenantConfig{1, "alpha", 4}});
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.config(0).id, 0u);
  EXPECT_EQ(table.config(0).name, "default");
  EXPECT_EQ(table.config(0).weight, 1u);
  EXPECT_EQ(table.total_weight(), 5u);
  EXPECT_EQ(table.SlotFor(1), 1u);
  EXPECT_EQ(table.SlotFor(0), 0u);
  EXPECT_EQ(table.SlotFor(999), 0u);  // unknown bills the default bucket
}

TEST(TenantTable, ExplicitIdZeroOverridesTheBuiltInDefault) {
  TenantTable table({TenantConfig{0, "house", 3}, TenantConfig{2, "beta", 1}});
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.config(0).name, "house");
  EXPECT_EQ(table.config(0).weight, 3u);
  EXPECT_EQ(table.total_weight(), 4u);
  EXPECT_EQ(table.SlotFor(2), 1u);
}

TEST(TenantTable, DuplicateIdsKeepTheFirstOccurrence) {
  TenantTable table({TenantConfig{5, "first", 2}, TenantConfig{5, "second", 9}});
  ASSERT_EQ(table.size(), 2u);
  const std::size_t slot = table.SlotFor(5);
  EXPECT_EQ(table.config(slot).name, "first");
  EXPECT_EQ(table.config(slot).weight, 2u);
  EXPECT_EQ(table.total_weight(), 3u);  // default 1 + first 2, not 9
}

TEST(TenantTable, QueueCapIsTheWeightedFloorWithAOneSlotMinimum) {
  // default 1 + {4, 2, 1} => Σ8.
  TenantTable table({TenantConfig{1, "a", 4}, TenantConfig{2, "b", 2},
                     TenantConfig{3, "c", 1}});
  EXPECT_EQ(table.QueueCap(table.SlotFor(1), 32), 16u);
  EXPECT_EQ(table.QueueCap(table.SlotFor(2), 32), 8u);
  EXPECT_EQ(table.QueueCap(table.SlotFor(3), 32), 4u);
  EXPECT_EQ(table.QueueCap(0, 32), 4u);
  // floor rounds to zero => the minimum of one slot keeps a starved
  // tenant live...
  TenantTable skewed(
      {TenantConfig{1, "small", 1}, TenantConfig{2, "huge", 100}});
  EXPECT_EQ(skewed.QueueCap(skewed.SlotFor(1), 8), 1u);
  // ...but weight 0 is a hard zero quota, never promoted to one.
  TenantTable banned({TenantConfig{1, "banned", 0}});
  EXPECT_EQ(banned.QueueCap(banned.SlotFor(1), 1024), 0u);
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

TEST(TenantGateway, ZeroQuotaTenantIsShedTypedEvenWhenIdle) {
  GatewayConfig config = BaseConfig(1);
  config.tenants = {TenantConfig{7, "banned", 0}};
  Gateway gateway(config);

  Response observed;
  Request request = PingRequest(/*tenant=*/7);
  request.on_complete = [&observed](const Response& r) { observed = r; };
  EXPECT_FALSE(gateway.Submit(std::move(request)));
  EXPECT_FALSE(observed.ok);
  EXPECT_EQ(observed.error, ErrorCode::kOverloaded);

  // The same gateway still serves everyone else.
  const Response served = gateway.Call(PingRequest(/*tenant=*/0));
  ASSERT_TRUE(served.ok) << served.message;

  const TenantSnapshot banned = RowFor(gateway, 7);
  EXPECT_EQ(banned.submitted, 1u);
  EXPECT_EQ(banned.accepted, 0u);
  EXPECT_EQ(banned.shed, 1u);
  EXPECT_EQ(banned.quota_shed, 1u);
}

TEST(TenantGateway, QuotaCapBoundsOutstandingWorkExactly) {
  // One shard whose every dispatch blocks 20ms of wall clock: a burst
  // submitted inside that window sees no occupancy releases, so the
  // admitted count is exactly the tenant's cap. default 1 + capped 1 =>
  // Σ2; watermark 32 => cap 16.
  GatewayConfig config = BaseConfig(1);
  config.queue_capacity = 64;
  config.shed_watermark = 32;
  config.tenants = {TenantConfig{1, "capped", 1}};
  config.failover.fault_plan = *support::FaultPlan::Parse("*:*:latency=20000:wall");
  Gateway gateway(config);

  constexpr int kBurst = 40;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  int admitted = 0;
  for (int i = 0; i < kBurst; ++i) {
    Request request = PingRequest(/*tenant=*/1, /*client_id=*/i);
    request.on_complete = [&](const Response&) {
      std::lock_guard<std::mutex> lock(mu);
      if (++completed == kBurst) cv.notify_all();
    };
    if (gateway.Submit(std::move(request))) ++admitted;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == kBurst; });
  }

  EXPECT_EQ(admitted, 16);
  const TenantSnapshot row = RowFor(gateway, 1);
  EXPECT_EQ(row.submitted, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(row.accepted, 16u);
  EXPECT_EQ(row.shed, static_cast<std::uint64_t>(kBurst - 16));
  // The queue never reached the watermark (16 < 32), so every shed was a
  // quota shed, not a shard-full shed.
  EXPECT_EQ(row.quota_shed, row.shed);
  EXPECT_EQ(row.ok + row.failed + row.timed_out + row.shed, row.submitted);
}

// ---------------------------------------------------------------------------
// Weighted fairness
// ---------------------------------------------------------------------------

TEST(TenantFairness, ServedThroughputFollowsWeightsUnderBacklog) {
  // One shard, 2ms pinned service, three tenants flooding it with weights
  // 4:2:1. Outstanding caps (16/8/4 of watermark 32, Σ8 with the default)
  // plus FIFO service make served throughput converge to the weights;
  // generous tolerances keep the test honest on a loaded host.
  GatewayConfig config = BaseConfig(1);
  config.queue_capacity = 64;
  config.shed_watermark = 32;
  config.tenants = {TenantConfig{1, "alpha", 4}, TenantConfig{2, "beta", 2},
                    TenantConfig{3, "gamma", 1}};
  config.failover.fault_plan = *support::FaultPlan::Parse("*:*:latency=2000:wall");
  Gateway gateway(config);

  constexpr auto kRunFor = std::chrono::milliseconds(600);
  std::atomic<std::uint64_t> in_flight{0};
  auto flood = [&](std::uint32_t tenant) {
    const auto deadline = std::chrono::steady_clock::now() + kRunFor;
    while (std::chrono::steady_clock::now() < deadline) {
      Request request = PingRequest(tenant, /*client_id=*/tenant);
      in_flight.fetch_add(1, std::memory_order_relaxed);
      request.on_complete = [&in_flight](const Response&) {
        in_flight.fetch_sub(1, std::memory_order_relaxed);
      };
      const bool ok = gateway.Submit(std::move(request));
      // Above the cap every submit sheds instantly; back off so three
      // flooding threads don't spin a 1-CPU host into the ground.
      std::this_thread::sleep_for(std::chrono::microseconds(ok ? 100 : 500));
    }
  };
  std::vector<std::thread> producers;
  for (std::uint32_t tenant : {1u, 2u, 3u}) {
    producers.emplace_back(flood, tenant);
  }
  for (std::thread& t : producers) t.join();
  while (in_flight.load(std::memory_order_relaxed) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const TenantSnapshot alpha = RowFor(gateway, 1);
  const TenantSnapshot beta = RowFor(gateway, 2);
  const TenantSnapshot gamma = RowFor(gateway, 3);
  // Every tenant was pushed past its share...
  EXPECT_GT(alpha.quota_shed, 0u);
  EXPECT_GT(beta.quota_shed, 0u);
  EXPECT_GT(gamma.quota_shed, 0u);
  // ...and enough was served to make the ratios meaningful.
  ASSERT_GT(gamma.ok, 20u);
  const double ab = static_cast<double>(alpha.ok) / static_cast<double>(beta.ok);
  const double bg = static_cast<double>(beta.ok) / static_cast<double>(gamma.ok);
  EXPECT_GT(ab, 1.4);
  EXPECT_LT(ab, 2.9);
  EXPECT_GT(bg, 1.4);
  EXPECT_LT(bg, 2.9);
  // Quiescent reconcile holds for every row.
  for (const TenantSnapshot& row : gateway.TenantStatsSnapshot()) {
    EXPECT_EQ(row.ok + row.failed + row.timed_out + row.shed, row.submitted)
        << "tenant " << row.name;
  }
}

// ---------------------------------------------------------------------------
// Accounting under concurrency
// ---------------------------------------------------------------------------

TEST(TenantGateway, RowsReconcileUnderConcurrentMultiTenantTraffic) {
  GatewayConfig config = BaseConfig(2);
  config.tenants = {TenantConfig{1, "a", 2}, TenantConfig{2, "b", 2},
                    TenantConfig{3, "c", 2}};
  Gateway gateway(config);

  constexpr std::uint64_t kPerProducer = 250;
  std::vector<gateway::TrafficReport> reports(3);
  std::vector<std::thread> drivers;
  for (std::uint32_t tenant : {1u, 2u, 3u}) {
    drivers.emplace_back([&gateway, &reports, tenant] {
      gateway::TrafficConfig traffic;
      traffic.producers = 2;
      traffic.requests_per_producer = kPerProducer;
      traffic.seed = 40 + tenant;
      traffic.tenant = tenant;
      traffic.window = 8;
      reports[tenant - 1] = RunTraffic(gateway, traffic);
    });
  }
  for (std::thread& t : drivers) t.join();

  for (std::uint32_t tenant : {1u, 2u, 3u}) {
    const gateway::TrafficReport& client = reports[tenant - 1];
    const TenantSnapshot row = RowFor(gateway, tenant);
    EXPECT_EQ(row.submitted, 2 * kPerProducer) << "tenant " << tenant;
    // Server-side row matches the client-side view band for band.
    EXPECT_EQ(row.submitted, client.submitted);
    EXPECT_EQ(row.ok, client.ok);
    EXPECT_EQ(row.shed, client.shed);
    EXPECT_EQ(row.failed, client.failed);
    EXPECT_EQ(row.timed_out, client.timed_out);
    EXPECT_EQ(row.ok + row.failed + row.timed_out + row.shed, row.submitted);
    // The latency histogram holds exactly the completions, never sheds.
    EXPECT_EQ(row.latency.total(), row.completed());
  }
  // Nothing leaked into the default bucket.
  EXPECT_EQ(RowFor(gateway, 0).submitted, 0u);
}

// ---------------------------------------------------------------------------
// Shard and tenant planes agree
// ---------------------------------------------------------------------------

TEST(TenantGateway, ShardAndTenantOutcomesAgree) {
  // Every outcome band from every source, on two tenants: served requests
  // and scripts, retry exhaustion (s60 times out transiently), a backend's
  // own non-transient deadline error (android), queue-deadline expiry,
  // script throws, step-budget and virtual-time-budget kills.
  GatewayConfig config = BaseConfig(2);
  config.tenants = {TenantConfig{1, "a", 1}, TenantConfig{2, "b", 1}};
  config.default_retry.max_attempts = 2;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  config.failover.fault_plan = *support::FaultPlan::Parse(
      "seed=1;android:*:error=deadline-exceeded;s60:*:error=timeout");
  Gateway gateway(config);

  const auto platform_request = [](std::uint32_t tenant, Platform platform) {
    Request request = PingRequest(tenant, /*client_id=*/tenant);
    request.platform = platform;
    return request;
  };
  const auto script = [](std::uint32_t tenant, const char* source) {
    ScriptRequest request;
    request.client_id = tenant;
    request.tenant = tenant;
    request.source = source;
    return request;
  };
  for (std::uint32_t tenant : {1u, 2u}) {
    EXPECT_TRUE(gateway.Call(platform_request(tenant, Platform::kIphone)).ok);
    EXPECT_EQ(gateway.Call(platform_request(tenant, Platform::kAndroid)).error,
              ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(gateway.Call(platform_request(tenant, Platform::kS60)).error,
              ErrorCode::kTimeout);
    EXPECT_TRUE(gateway.CallScript(script(tenant, "1 + 1;")).ok);
    EXPECT_TRUE(gateway.CallScript(script(tenant, "throw 'boom';")).script_error);
    EXPECT_EQ(gateway
                  .CallScript(script(
                      tenant, "mobile.invoke('android', 'httpGet', "
                              "'http://gw.example/ping');"))
                  .error,
              ErrorCode::kUnknown);
    ScriptRequest steps = script(tenant, "while (true) {}");
    steps.step_budget = 1'000;
    EXPECT_TRUE(gateway.CallScript(std::move(steps)).budget_kill);
    ScriptRequest slow = script(tenant, "var i = 0; while (i < 1000) { i = i + 1; }");
    slow.virtual_us_budget = 1'000;
    EXPECT_EQ(gateway.CallScript(std::move(slow)).error,
              ErrorCode::kDeadlineExceeded);
  }

  // Queue-deadline expiry: park tenant 1's shard on an android blocker
  // (itself a deadline error), queue a request and a script with a 1us
  // budget behind it, then let the worker go.
  {
    WorkerBlocker blocker;
    blocker.Block(gateway, /*tenant=*/1);
    std::promise<void> request_done;
    std::promise<void> script_done;
    Request expiring = platform_request(1, Platform::kIphone);
    expiring.timeout = std::chrono::microseconds(1);
    expiring.on_complete = [&request_done](const Response&) {
      request_done.set_value();
    };
    ASSERT_TRUE(gateway.Submit(std::move(expiring)));
    ScriptRequest expiring_script = script(1, "1;");
    expiring_script.timeout = std::chrono::microseconds(1);
    expiring_script.on_complete = [&script_done](const ScriptResponse&) {
      script_done.set_value();
    };
    ASSERT_TRUE(gateway.SubmitScript(std::move(expiring_script)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    blocker.Release();
    request_done.get_future().wait();
    script_done.get_future().wait();
  }

  const gateway::ShardSnapshot totals = gateway.Stats().totals;
  TenantSnapshot sum;
  for (const TenantSnapshot& row : gateway.TenantStatsSnapshot()) {
    sum.ok += row.ok;
    sum.failed += row.failed;
    sum.timed_out += row.timed_out;
  }
  EXPECT_EQ(totals.ok, sum.ok);
  EXPECT_EQ(totals.failed, sum.failed);
  EXPECT_EQ(totals.timed_out, sum.timed_out);
  // Per tenant: iphone and "1 + 1;" ok; s60 exhaustion, the throw, the
  // uncaught host error and the step kill failed; android's deadline
  // error and the virtual-time kill timed out (+ the android blocker and
  // the two queue expiries on tenant 1).
  EXPECT_EQ(totals.ok, 4u);
  EXPECT_EQ(totals.failed, 8u);
  EXPECT_EQ(totals.timed_out, 7u);
  EXPECT_EQ(RowFor(gateway, 1).timed_out, 5u);
  EXPECT_EQ(RowFor(gateway, 2).timed_out, 2u);
}

// ---------------------------------------------------------------------------
// Shed parity across entry points
// ---------------------------------------------------------------------------

enum class EntryPoint { kOwned, kBorrowed, kScript };
enum class ShedCause { kStopping, kQueueFull, kQuota };

/// What one shed completion looked like from the caller's side.
struct ShedSeen {
  int calls = 0;
  std::thread::id thread;
  bool ok = true;
  ErrorCode error = ErrorCode::kUnknown;
  std::string message;
  std::uint32_t shard = 0;

  template <typename Result>
  std::function<void(const Result&)> Callback() {
    return [this](const Result& response) {
      ++calls;
      thread = std::this_thread::get_id();
      ok = response.ok;
      error = response.error;
      message = response.message;
      shard = response.shard;
    };
  }
};

bool SubmitVia(Gateway& gateway, EntryPoint entry, std::uint32_t tenant,
               ShedSeen& seen) {
  switch (entry) {
    case EntryPoint::kOwned: {
      Request request = PingRequest(tenant);
      request.on_complete = seen.Callback<Response>();
      return gateway.Submit(std::move(request));
    }
    case EntryPoint::kBorrowed: {
      const std::string target =
          std::string("http://") + gateway::kGatewayHttpHost + "/ping";
      gateway::BorrowedRequest request;
      request.client_id = 1;
      request.tenant = tenant;
      request.op = Op::kHttpGet;
      request.target = target;
      return gateway.Submit(request, seen.Callback<Response>());
    }
    case EntryPoint::kScript: {
      ScriptRequest request;
      request.client_id = 1;
      request.tenant = tenant;
      request.source = "1;";
      request.on_complete = seen.Callback<ScriptResponse>();
      return gateway.SubmitScript(std::move(request));
    }
  }
  return true;
}

class GatewayShedParity
    : public ::testing::TestWithParam<std::tuple<EntryPoint, ShedCause>> {};

TEST_P(GatewayShedParity, SameOverloadedAndBookingOnEveryEntryPoint) {
  const auto [entry, cause] = GetParam();
  // Watermark 1 over a total weight of 3: every positive-weight tenant
  // gets the one-slot minimum cap, "banned" gets none.
  GatewayConfig config = BaseConfig(1);
  config.queue_capacity = 4;
  config.shed_watermark = 1;
  config.tenants = {TenantConfig{1, "blocker", 1}, TenantConfig{2, "filler", 1},
                    TenantConfig{7, "banned", 0}};
  Gateway gateway(config);
  WorkerBlocker blocker;

  std::uint32_t tenant = 0;
  const char* message = "shard queue above shed watermark";
  switch (cause) {
    case ShedCause::kStopping:
      gateway.Stop();
      message = "gateway is stopping";
      break;
    case ShedCause::kQueueFull: {
      // Park the worker on tenant 1, then queue one filler from tenant 2:
      // the queue sits at the watermark, no tenant is over quota.
      blocker.Block(gateway, /*tenant=*/1);
      ASSERT_TRUE(gateway.Submit(PingRequest(/*tenant=*/2)));
      break;
    }
    case ShedCause::kQuota:
      tenant = 7;
      message = "tenant over admission quota";
      break;
  }

  const gateway::ShardSnapshot before = gateway.Stats().totals;
  const TenantSnapshot row_before = RowFor(gateway, tenant);
  ShedSeen seen;
  EXPECT_FALSE(SubmitVia(gateway, entry, tenant, seen));
  const gateway::ShardSnapshot after = gateway.Stats().totals;
  const TenantSnapshot row_after = RowFor(gateway, tenant);
  blocker.Release();

  EXPECT_EQ(seen.calls, 1);
  EXPECT_EQ(seen.thread, std::this_thread::get_id());
  EXPECT_FALSE(seen.ok);
  EXPECT_EQ(seen.error, ErrorCode::kOverloaded);
  EXPECT_EQ(seen.message, message);
  EXPECT_EQ(seen.shard, gateway.ShardFor(1));
  EXPECT_EQ(after.shed - before.shed, 1u);
  EXPECT_EQ(after.accepted, before.accepted);
  EXPECT_EQ(row_after.submitted - row_before.submitted, 1u);
  EXPECT_EQ(row_after.accepted, row_before.accepted);
  EXPECT_EQ(row_after.shed - row_before.shed, 1u);
  EXPECT_EQ(row_after.quota_shed - row_before.quota_shed,
            cause == ShedCause::kQuota ? 1u : 0u);
}

std::string ShedCaseName(
    const ::testing::TestParamInfo<GatewayShedParity::ParamType>& info) {
  static const char* const kEntry[] = {"Owned", "Borrowed", "Script"};
  static const char* const kCause[] = {"Stopping", "QueueFull", "Quota"};
  return std::string(kEntry[static_cast<int>(std::get<0>(info.param))]) +
         kCause[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllEntryPoints, GatewayShedParity,
    ::testing::Combine(::testing::Values(EntryPoint::kOwned,
                                         EntryPoint::kBorrowed,
                                         EntryPoint::kScript),
                       ::testing::Values(ShedCause::kStopping,
                                         ShedCause::kQueueFull,
                                         ShedCause::kQuota)),
    ShedCaseName);

}  // namespace
}  // namespace mobivine
