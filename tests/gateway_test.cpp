// M-Gateway: the serving runtime's contract under load and under failure.
//
// What must hold:
//  * every submitted request completes exactly once — served, shed, or
//    expired — with a uniform typed error, never a platform exception;
//  * admission control sheds above the watermark with kOverloaded and the
//    queues stay bounded;
//  * deadlines fire at dequeue with kDeadlineExceeded;
//  * transient binding failures retry with bounded backoff; exhausting
//    attempts surfaces the underlying typed error, while running out of
//    deadline mid-retry surfaces kDeadlineExceeded and counts timed_out;
//  * request-scoped properties never leak into later requests served on
//    the same shard's proxies;
//  * GatewayStats counters reconcile with what the callbacks observed;
//  * RegisterMetrics exports every counter-table row — totals, per shard
//    and per tenant — and every gateway.* name the M-Scope schema requires.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/controller.h"
#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/traffic.h"
#include "support/fault.h"
#include "support/metrics.h"
#include "wire/server.h"

namespace mobivine {
namespace {

using core::ErrorCode;
using gateway::BorrowedProperty;
using gateway::BorrowedRequest;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::GatewaySnapshot;
using gateway::Op;
using gateway::Platform;
using gateway::Request;
using gateway::Response;
using gateway::TrafficConfig;
using gateway::TrafficReport;

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

GatewayConfig BaseConfig(int shards) {
  GatewayConfig config;
  config.shards = shards;
  config.store = &Store();
  return config;
}

Request HttpGetRequest(std::uint64_t client_id) {
  Request request;
  request.client_id = client_id;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target =
      std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  return request;
}

// ---------------------------------------------------------------------------
// Basic serving
// ---------------------------------------------------------------------------

TEST(Gateway, ServesEveryOpOnEveryPlatform) {
  Gateway gw(BaseConfig(2));
  const Platform platforms[] = {Platform::kAndroid, Platform::kS60,
                                Platform::kIphone};
  for (Platform platform : platforms) {
    {
      Request request;
      request.client_id = 7;
      request.platform = platform;
      request.op = Op::kGetLocation;
      const Response response = gw.Call(std::move(request));
      ASSERT_TRUE(response.ok) << gateway::ToString(platform) << ": "
                               << response.message;
      EXPECT_NE(response.payload.find(','), std::string::npos);
    }
    {
      Request request;
      request.client_id = 7;
      request.platform = platform;
      request.op = Op::kHttpGet;
      request.target =
          std::string("http://") + gateway::kGatewayHttpHost + "/ping";
      const Response response = gw.Call(std::move(request));
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.payload, "pong");
    }
    {
      Request request;
      request.client_id = 7;
      request.platform = platform;
      request.op = Op::kSendSms;
      request.target = gateway::kGatewaySmsPeer;
      request.payload = "hello from the gateway";
      const Response response = gw.Call(std::move(request));
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_GT(std::stoll(response.payload), 0);
    }
    {
      Request request;
      request.client_id = 7;
      request.platform = platform;
      request.op = Op::kSegmentCount;
      request.payload = std::string(200, 'x');  // two GSM segments
      const Response response = gw.Call(std::move(request));
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.payload, "2");
    }
  }
  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.ok, 12u);
  EXPECT_EQ(stats.totals.shed, 0u);
  EXPECT_EQ(stats.totals.failed, 0u);
}

TEST(Gateway, ClientAffinityIsStableAndSpreads) {
  Gateway gw(BaseConfig(4));
  std::set<std::uint32_t> used;
  for (std::uint64_t client = 0; client < 64; ++client) {
    const std::uint32_t shard = gw.ShardFor(client);
    EXPECT_EQ(shard, gw.ShardFor(client));  // stable
    EXPECT_LT(shard, 4u);
    used.insert(shard);
  }
  // 64 clients over 4 shards: every shard sees traffic.
  EXPECT_EQ(used.size(), 4u);

  // Served requests land on the affinity shard.
  for (std::uint64_t client : {3ull, 17ull, 40ull}) {
    const Response response = gw.Call(HttpGetRequest(client));
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.shard, gw.ShardFor(client));
  }
}

TEST(Gateway, PerRequestPropertiesFlowThroughSetProperty) {
  Gateway gw(BaseConfig(1));
  Request request;
  request.client_id = 1;
  request.platform = Platform::kS60;
  request.op = Op::kGetLocation;
  request.properties.emplace_back("horizontalAccuracy", 25LL);
  request.properties.emplace_back("powerConsumption", std::string("low"));
  const Response ok_response = gw.Call(std::move(request));
  EXPECT_TRUE(ok_response.ok) << ok_response.message;

  // An unknown property is rejected by descriptor validation with the
  // uniform kIllegalArgument — not retried, not a crash.
  Request bad;
  bad.client_id = 1;
  bad.platform = Platform::kS60;
  bad.op = Op::kGetLocation;
  bad.properties.emplace_back("noSuchProperty", 1LL);
  const Response bad_response = gw.Call(std::move(bad));
  EXPECT_FALSE(bad_response.ok);
  EXPECT_EQ(bad_response.error, ErrorCode::kIllegalArgument);
  EXPECT_EQ(bad_response.attempts, 1);
}

TEST(Gateway, PerRequestPropertiesDoNotLeakAcrossRequests) {
  Gateway gw(BaseConfig(1));

  // Request A tightens the S60 location criteria past what the simulated
  // provider can satisfy in low-power mode (horizontalAccuracy < 25 with
  // powerConsumption "low" -> LocationException -> kLocationUnavailable).
  Request strict;
  strict.client_id = 1;
  strict.platform = Platform::kS60;
  strict.op = Op::kGetLocation;
  strict.retry.max_attempts = 1;  // kLocationUnavailable is transient
  strict.properties.emplace_back("horizontalAccuracy", 10LL);
  strict.properties.emplace_back("powerConsumption", std::string("low"));
  const Response strict_response = gw.Call(std::move(strict));
  ASSERT_FALSE(strict_response.ok);
  ASSERT_EQ(strict_response.error, ErrorCode::kLocationUnavailable);

  // Request B carries no properties. It runs on the same shard-shared
  // proxy; if A's criteria leaked, B inherits them and fails too.
  Request plain;
  plain.client_id = 1;
  plain.platform = Platform::kS60;
  plain.op = Op::kGetLocation;
  plain.retry.max_attempts = 1;
  const Response plain_response = gw.Call(std::move(plain));
  EXPECT_TRUE(plain_response.ok)
      << "request A's properties leaked into request B: "
      << plain_response.message;
}

// ---------------------------------------------------------------------------
// Admission control / load shedding
// ---------------------------------------------------------------------------

TEST(Gateway, OverloadShedsWithTypedErrorAndBoundedQueues) {
  GatewayConfig config = BaseConfig(2);
  config.queue_capacity = 8;
  config.shed_watermark = 8;
  Gateway gw(config);

  constexpr int kBurst = 600;
  std::atomic<int> completions{0};
  std::atomic<int> shed{0};
  std::atomic<int> served{0};
  for (int i = 0; i < kBurst; ++i) {
    Request request = HttpGetRequest(static_cast<std::uint64_t>(i));
    request.on_complete = [&](const Response& response) {
      completions.fetch_add(1);
      if (response.ok) {
        served.fetch_add(1);
      } else if (response.error == ErrorCode::kOverloaded) {
        shed.fetch_add(1);
      }
    };
    gw.Submit(std::move(request));
    // Queues never exceed their bound, whatever the burst size.
    EXPECT_LE(gw.queue_depth(), 2u * 8u);
  }
  gw.Stop();  // drains what was admitted

  EXPECT_EQ(completions.load(), kBurst);  // every request answered once
  EXPECT_GT(shed.load(), 0);              // the burst overran 2x8 slots
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(shed.load() + served.load(), kBurst);

  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.totals.ok, static_cast<std::uint64_t>(served.load()));
  EXPECT_EQ(stats.totals.accepted, stats.totals.completed());
  EXPECT_LE(stats.totals.max_queue_depth, 8u);
}

TEST(Gateway, SubmitAfterStopShedsImmediately) {
  GatewayConfig config = BaseConfig(1);
  Gateway gw(config);
  gw.Stop();
  bool called = false;
  Request request = HttpGetRequest(1);
  request.on_complete = [&called](const Response& response) {
    called = true;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, ErrorCode::kOverloaded);
  };
  EXPECT_FALSE(gw.Submit(std::move(request)));
  EXPECT_TRUE(called);  // synchronously, on this thread
}

// ---------------------------------------------------------------------------
// Borrowed submit (the wire layer's zero-copy entry point)
// ---------------------------------------------------------------------------

TEST(Gateway, BorrowedSubmitMaterializesBeforeReturning) {
  Gateway gw(BaseConfig(1));
  // Source buffers the views alias — heap-length strings so scribbling
  // over them after Submit returns would corrupt any view still held.
  std::string target =
      std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  std::string payload = "borrowed payload, long enough to defeat SSO......";
  std::string content_type = "text/plain; charset=utf-8";

  BorrowedRequest request;
  request.client_id = 9;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target = target;
  request.payload = payload;
  request.content_type = content_type;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Response completed;
  ASSERT_TRUE(gw.Submit(request, [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    completed = response;
    done = true;
    cv.notify_one();
  }));

  // Submit has returned but the request may still be queued: the
  // contract is that nothing retains the views past this point.
  target.assign(target.size(), 'X');
  payload.assign(payload.size(), 'X');
  content_type.assign(content_type.size(), 'X');

  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(completed.ok) << completed.message;
  // The scribbled buffers must not have reached the device: /ping still
  // resolved and answered.
  EXPECT_EQ(completed.payload, "pong");
}

TEST(Gateway, BorrowedSubmitShedsSynchronouslyAfterStop) {
  Gateway gw(BaseConfig(1));
  gw.Stop();
  BorrowedRequest request;
  request.client_id = 3;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target = "http://unused.example/";
  bool called = false;
  EXPECT_FALSE(gw.Submit(request, [&called](const Response& response) {
    called = true;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, ErrorCode::kOverloaded);
  }));
  EXPECT_TRUE(called);  // synchronously, on this thread — no queueing
}

TEST(Gateway, BorrowedSubmitAppliesProperties) {
  Gateway gw(BaseConfig(1));
  const BorrowedProperty properties[] = {
      {"horizontalAccuracy", 25LL},
      {"powerConsumption", std::string_view("low")},
  };
  BorrowedRequest request;
  request.client_id = 1;
  request.platform = Platform::kS60;
  request.op = Op::kGetLocation;
  request.properties = properties;
  request.property_count = 2;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Response completed;
  ASSERT_TRUE(gw.Submit(request, [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    completed = response;
    done = true;
    cv.notify_one();
  }));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_TRUE(completed.ok) << completed.message;

  // An unknown borrowed property hits the same descriptor validation as
  // the owning path: uniform kIllegalArgument, one attempt.
  const BorrowedProperty bad_properties[] = {{"noSuchProperty", 1LL}};
  request.properties = bad_properties;
  request.property_count = 1;
  done = false;
  ASSERT_TRUE(gw.Submit(request, [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    completed = response;
    done = true;
    cv.notify_one();
  }));
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done; });
  EXPECT_FALSE(completed.ok);
  EXPECT_EQ(completed.error, ErrorCode::kIllegalArgument);
  EXPECT_EQ(completed.attempts, 1);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Gateway, ExpiredDeadlineFiresAtDequeueWithoutExecuting) {
  Gateway gw(BaseConfig(1));
  Request request = HttpGetRequest(5);
  request.timeout = std::chrono::microseconds(1);  // expires before dequeue
  const Response response = gw.Call(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(response.attempts, 0);  // the binding never ran

  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.timed_out, 1u);
  EXPECT_EQ(stats.totals.ok, 0u);
}

TEST(Gateway, GenerousDeadlineDoesNotFire) {
  Gateway gw(BaseConfig(1));
  Request request = HttpGetRequest(5);
  request.timeout = std::chrono::seconds(30);
  const Response response = gw.Call(std::move(request));
  EXPECT_TRUE(response.ok) << response.message;
  EXPECT_EQ(gw.Stats().totals.timed_out, 0u);
}

// ---------------------------------------------------------------------------
// Failure injection through a shard: retry, backoff, exhaustion
// ---------------------------------------------------------------------------

TEST(Gateway, RetryExhaustionSurfacesUnderlyingTypedError) {
  GatewayConfig config = BaseConfig(1);
  config.device_template.network.loss_probability = 1.0;  // every packet lost
  config.device_template.network.timeout = sim::SimTime::Seconds(2);
  config.default_retry.max_attempts = 3;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  Gateway gw(config);

  const Response response = gw.Call(HttpGetRequest(9));
  EXPECT_FALSE(response.ok);
  // Android surfaces the lost exchange as a connect timeout; the gateway
  // retried it to exhaustion and reported the transient code, attempts
  // and retry counters consistently.
  EXPECT_EQ(response.error, ErrorCode::kTimeout);
  EXPECT_EQ(response.attempts, 3);

  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.failed, 1u);
  EXPECT_EQ(stats.totals.retries, 2u);  // attempts - 1
  EXPECT_EQ(stats.totals.ok, 0u);
}

TEST(Gateway, TransientFailuresRecoverWithinRetryBudget) {
  GatewayConfig config = BaseConfig(1);
  config.device_template.seed = 13;
  // The sim network draws loss twice per exchange (request and response),
  // so per-attempt failure is 1 - (1-p)^2 = 0.4375 here.
  config.device_template.network.loss_probability = 0.25;
  config.device_template.network.timeout = sim::SimTime::Seconds(1);
  config.default_retry.max_attempts = 16;
  config.default_retry.initial_backoff = std::chrono::microseconds(50);
  Gateway gw(config);

  int recovered = 0;
  for (int i = 0; i < 8; ++i) {
    const Response response = gw.Call(HttpGetRequest(1));
    if (response.ok) {
      ++recovered;
      EXPECT_EQ(response.payload, "pong");
    }
  }
  // p(16 straight lossy attempts) = 0.4375^16 ~= 2e-6 per request; all
  // eight must converge (and the seed is fixed, so this is deterministic).
  EXPECT_EQ(recovered, 8);
  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.ok, 8u);
  EXPECT_GT(stats.totals.retries, 0u);  // the lossy path was exercised
}

TEST(Gateway, NonTransientErrorsAreNotRetried) {
  GatewayConfig config = BaseConfig(1);
  config.default_retry.max_attempts = 5;
  Gateway gw(config);

  Request request;
  request.client_id = 2;
  request.platform = Platform::kAndroid;
  request.op = Op::kSendSms;
  request.target = "";  // validation failure: kIllegalArgument
  request.payload = "x";
  const Response response = gw.Call(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ErrorCode::kIllegalArgument);
  EXPECT_EQ(response.attempts, 1);
  EXPECT_EQ(gw.Stats().totals.retries, 0u);
}

TEST(Gateway, RetryBackoffRespectsDeadline) {
  GatewayConfig config = BaseConfig(1);
  config.device_template.network.loss_probability = 1.0;
  config.device_template.network.timeout = sim::SimTime::Seconds(2);
  config.default_retry.max_attempts = 1000;  // deadline must cut this short
  config.default_retry.initial_backoff = std::chrono::milliseconds(20);
  config.default_retry.multiplier = 1.0;
  config.default_retry.max_backoff = std::chrono::milliseconds(20);
  Gateway gw(config);

  Request request = HttpGetRequest(3);
  request.timeout = std::chrono::milliseconds(100);
  const auto start = std::chrono::steady_clock::now();
  const Response response = gw.Call(std::move(request));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.ok);
  // Attempts remained but the deadline could not absorb another backoff:
  // a deadline outcome, not a failure of the last transient error's kind.
  EXPECT_EQ(response.error, ErrorCode::kDeadlineExceeded);
  EXPECT_LT(response.attempts, 1000);
  // Bounded by deadline + one in-flight attempt, not 1000 * 20 ms.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Gateway, RetryDeadlineExhaustionClassifiedAsDeadlineExceeded) {
  GatewayConfig config = BaseConfig(1);
  config.device_template.network.loss_probability = 1.0;  // always transient
  config.device_template.network.timeout = sim::SimTime::Seconds(2);
  config.default_retry.max_attempts = 1000;
  config.default_retry.initial_backoff = std::chrono::milliseconds(200);
  config.default_retry.multiplier = 1.0;
  config.default_retry.max_backoff = std::chrono::milliseconds(200);
  Gateway gw(config);

  Request request = HttpGetRequest(3);
  // Generous deadline-to-queue-wait margin: under a loaded sanitizer run
  // a tight deadline can expire while the request is still queued (zero
  // attempts), which is the OTHER deadline path — this test needs the
  // between-rounds one, so at least one attempt must get to run.
  request.timeout = std::chrono::milliseconds(1000);
  const Response response = gw.Call(std::move(request));
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error, ErrorCode::kDeadlineExceeded);
  // The message still names the transient error that was being retried.
  EXPECT_NE(response.message.find("last error"), std::string::npos)
      << response.message;

  // Stats must book the outcome as timed_out, exactly once, and not as a
  // failure — the double-booking the old classification produced.
  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.timed_out, 1u);
  EXPECT_EQ(stats.totals.failed, 0u);
  EXPECT_EQ(stats.totals.ok, 0u);
  // Every attempt beyond the first was booked as a retry; when the final
  // backoff oversleeps the deadline there is one extra booked retry whose
  // attempt never started.
  EXPECT_GE(stats.totals.retries,
            static_cast<std::uint64_t>(response.attempts - 1));
  EXPECT_LE(stats.totals.retries,
            static_cast<std::uint64_t>(response.attempts));
  EXPECT_EQ(stats.totals.completed(), 1u);
}

// ---------------------------------------------------------------------------
// Stats plane
// ---------------------------------------------------------------------------

TEST(Gateway, StatsSnapshotWhileServingAndCountersReconcile) {
  GatewayConfig config = BaseConfig(2);
  Gateway gw(config);

  TrafficConfig traffic;
  traffic.producers = 2;
  traffic.requests_per_producer = 150;
  traffic.clients = 32;
  traffic.window = 8;

  std::atomic<bool> done{false};
  std::thread sampler([&] {
    // Snapshots taken mid-flight must be well-formed and monotonic.
    std::uint64_t last_completed = 0;
    while (!done.load()) {
      const GatewaySnapshot snap = gw.Stats();
      EXPECT_GE(snap.totals.completed(), last_completed);
      last_completed = snap.totals.completed();
      EXPECT_EQ(snap.shards.size(), 2u);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const TrafficReport report = gateway::RunTraffic(gw, traffic);
  done.store(true);
  sampler.join();

  EXPECT_EQ(report.submitted, 300u);
  EXPECT_EQ(report.ok + report.shed + report.failed + report.timed_out, 300u);
  EXPECT_EQ(report.ok, 300u);  // no overload, no failures injected

  const GatewaySnapshot stats = gw.Stats();
  EXPECT_EQ(stats.totals.ok, report.ok);
  EXPECT_EQ(stats.totals.shed, report.shed);
  EXPECT_EQ(stats.totals.accepted, report.ok);  // all admitted, all served
  // Histogram saw every completion, and percentiles are ordered.
  EXPECT_EQ(stats.totals.latency.total(), stats.totals.completed());
  EXPECT_LE(stats.p50_micros(), stats.p95_micros());
  EXPECT_LE(stats.p95_micros(), stats.p99_micros());
  // Per-shard counters sum to the totals.
  std::uint64_t per_shard_ok = 0;
  for (const auto& shard : stats.shards) per_shard_ok += shard.ok;
  EXPECT_EQ(per_shard_ok, stats.totals.ok);
}

TEST(Gateway, FailoverStatsReconcileUnderConcurrentTraffic) {
  // Multi-shard, multi-producer traffic with 30% of android dispatches
  // failing transiently and failover recovering them — the exactly-once
  // completion contract and counter reconciliation must survive the
  // sweep machinery (this is the tsan-leg integration test; the
  // mechanism-level coverage lives in failover_test.cpp).
  GatewayConfig config = BaseConfig(2);
  config.failover.failover = true;
  config.failover.fault_plan =
      support::FaultPlan::Parse("seed=7;android:*:error=timeout:p=0.3")
          .value();
  Gateway gw(config);

  TrafficConfig traffic;
  traffic.producers = 2;
  traffic.requests_per_producer = 200;
  traffic.clients = 32;
  traffic.window = 8;
  traffic.retry.max_attempts = 1;  // recovery must come from failover
  const TrafficReport report = gateway::RunTraffic(gw, traffic);

  // Only android is faulted and its transient failures sweep to healthy
  // platforms, so every request recovers.
  EXPECT_EQ(report.submitted, 400u);
  EXPECT_EQ(report.ok, 400u);

  const GatewaySnapshot stats = gw.Stats();
  EXPECT_GT(stats.totals.faults_injected, 0u);
  EXPECT_GT(stats.totals.failovers, 0u);
  EXPECT_EQ(stats.totals.ok + stats.totals.failed + stats.totals.timed_out,
            stats.totals.completed());
  EXPECT_EQ(stats.totals.completed(), stats.totals.accepted);
  EXPECT_EQ(stats.totals.latency.total(), stats.totals.completed());
  std::uint64_t per_shard_failovers = 0;
  for (const auto& shard : stats.shards) per_shard_failovers += shard.failovers;
  EXPECT_EQ(per_shard_failovers, stats.totals.failovers);
}

// ---------------------------------------------------------------------------
// Metrics export
// ---------------------------------------------------------------------------

TEST(GatewayMetrics, ExportCoversEveryCounterTableRow) {
  GatewayConfig config = BaseConfig(2);
  config.tenants = {gateway::TenantConfig{1, "alpha", 1}};
  Gateway gw(config);
  support::MetricsRegistry registry;
  const auto registration = gw.RegisterMetrics(registry);
  const support::MetricsSnapshot snapshot = registry.Snapshot();

  for (const auto& counter : gateway::kShardCounters) {
    EXPECT_NE(snapshot.Find(std::string("gateway.") + counter.metric),
              nullptr)
        << counter.metric;
    for (int shard = 0; shard < gw.shard_count(); ++shard) {
      const std::string name = "gateway.shard." + std::to_string(shard) +
                               "." + counter.metric;
      EXPECT_NE(snapshot.Find(name), nullptr) << name;
    }
  }
  for (const auto& counter : gateway::kPushCounters) {
    EXPECT_NE(snapshot.Find(std::string("gateway.push.") + counter.metric),
              nullptr)
        << counter.metric;
  }
  for (const char* tenant : {"default", "alpha"}) {
    const std::string base = std::string("gateway.tenant.") + tenant + ".";
    for (const auto& counter : gateway::kTenantCounters) {
      EXPECT_NE(snapshot.Find(base + counter.metric), nullptr)
          << base << counter.metric;
    }
    for (const char* gauge :
         {"latency_p50_us", "latency_p95_us", "latency_p99_us"}) {
      EXPECT_NE(snapshot.Find(base + gauge), nullptr) << base << gauge;
    }
  }

  // Every full gateway.* metric name the checked-in M-Scope schema
  // requires (the bare "gateway.tenant." prefix excepted), and every
  // counter its fleet section expects on each tenant row.
  std::ifstream file(MOBIVINE_DESCRIPTOR_DIR "/../scripts/mscope_schema.json");
  ASSERT_TRUE(file.good());
  const std::string schema((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
  int required = 0;
  for (std::size_t pos = schema.find("\"gateway."); pos != std::string::npos;
       pos = schema.find("\"gateway.", pos + 1)) {
    const std::string name =
        schema.substr(pos + 1, schema.find('"', pos + 1) - pos - 1);
    if (name.back() == '.') continue;
    ++required;
    EXPECT_NE(snapshot.Find(name), nullptr) << name;
  }
  EXPECT_GE(required, 13);
  // The quoted names of the schema list that follows `key` (after
  // `from`).
  const auto list = [&schema](const char* key, std::size_t from = 0) {
    const std::size_t at = schema.find(key, from);
    EXPECT_NE(at, std::string::npos) << key;
    std::vector<std::string> names;
    if (at == std::string::npos) return names;
    const std::size_t list_end = schema.find(']', at);
    for (std::size_t pos = schema.find('"', schema.find('[', at));
         pos < list_end;
         pos = schema.find('"', schema.find('"', pos + 1) + 1)) {
      names.push_back(
          schema.substr(pos + 1, schema.find('"', pos + 1) - pos - 1));
    }
    return names;
  };
  const std::vector<std::string> tenant_counters = list("\"tenant_counters\"");
  for (const std::string& name : tenant_counters) {
    EXPECT_NE(snapshot.Find("gateway.tenant.default." + name), nullptr)
        << name;
  }
  EXPECT_EQ(static_cast<std::ptrdiff_t>(tenant_counters.size()),
            std::count_if(std::begin(gateway::kTenantCounters),
                          std::end(gateway::kTenantCounters),
                          [](const auto& row) {
                            return row.kind == support::kCounter;
                          }));

  // Every metric the schema's wire, push and cluster sections require,
  // from a started wire server and cluster controller registered beside
  // the gateway: a mistyped counter-table row fails here.
  wire::WireServer server(gw);
  ASSERT_TRUE(server.Start());
  cluster::Controller controller;
  ASSERT_TRUE(controller.Start());
  const auto wire_registration = server.RegisterMetrics(registry);
  const auto cluster_registration = controller.RegisterMetrics(registry);
  const support::MetricsSnapshot planes = registry.Snapshot();
  std::size_t plane_metrics = 0;
  for (const char* section : {"\"wire\": {", "\"push\": {", "\"cluster\": {"}) {
    for (const std::string& name :
         list("\"required_metrics\"", schema.find(section))) {
      ++plane_metrics;
      EXPECT_NE(planes.Find(name), nullptr) << name;
    }
  }
  EXPECT_GE(plane_metrics, 46u);

  // Values that go down export as gauges, so a scraper never takes the
  // rate of a level; the monotonic counts beside them stay counters.
  for (const char* gauge :
       {"cluster.connections", "cluster.epoch", "wire.connections_active",
        "wire.push_subscriptions_active", "gateway.queue_depth",
        "gateway.max_queue_depth", "gateway.shard.0.queue_depth",
        "gateway.shard.1.max_queue_depth", "gateway.push.listeners",
        "gateway.tenant.default.weight", "gateway.tenant.alpha.weight"}) {
    const support::MetricsSink::Entry* entry = planes.Find(gauge);
    ASSERT_NE(entry, nullptr) << gauge;
    EXPECT_FALSE(entry->is_counter) << gauge << " must be a gauge";
  }
  for (const char* counter :
       {"cluster.registers", "wire.connections_accepted", "gateway.accepted",
        "gateway.push.published", "gateway.tenant.alpha.submitted"}) {
    const support::MetricsSink::Entry* entry = planes.Find(counter);
    ASSERT_NE(entry, nullptr) << counter;
    EXPECT_TRUE(entry->is_counter) << counter << " must be a counter";
  }
  server.Stop();
  controller.Stop();
}

}  // namespace
}  // namespace mobivine
