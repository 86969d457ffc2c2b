// M-Cluster end-to-end: a real controller process and real worker
// processes (fork/exec, loopback TCP), driven deterministically — every
// wait is on observable state (plan membership, epochs, exit codes),
// never on bare sleeps.
//
// What these pin down:
//  * direct routing: a cluster::Client resolves owners from the plan and
//    talks straight to workers — zero wrong-worker bounces in steady
//    state, controller never on the data path;
//  * crash rebalance: SIGKILL a worker -> the controller detects death,
//    bumps the epoch, survivors absorb the keyspace, and EVERY
//    subsequent request still succeeds (the client re-routes in-band);
//  * rejoin: the same worker id comes back -> epoch bumps again, the
//    rejoiner reacquires key ranges and serves them;
//  * graceful leave: SIGTERM -> leave + fence + drain -> exit 0;
//  * M-Push: subscriptions follow the plan — a stale route is fenced
//    with kWrongWorker (epoch in the ack's start_cursor varint) and the
//    client re-subscribes against the real owner, carrying its cursor.
//
// And, on an in-process cluster::Controller over raw sockets:
//  * hostile control bytes (deterministic frame-mutation fuzz) are
//    answered or closed, never fatal, and leave no connection behind;
//  * a control peer that stops reading is dropped past
//    max_output_backlog instead of wedging the control plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/client.h"
#include "cluster/control.h"
#include "cluster/controller.h"
#include "cluster/plan.h"
#include "gateway/gateway.h"
#include "support/seed.h"
#include "tests/cluster_harness.h"
#include "tests/raw_conn.h"
#include "wire/client.h"
#include "wire/protocol.h"

namespace mobivine {
namespace {

using cluster::HashRing;
using cluster::PartitionPlan;
using cluster_testing::Process;

class ClusterEndToEnd : public ::testing::Test {
 protected:
  void StartController() {
    std::string error;
    controller_.name = "controller";
    ASSERT_TRUE(cluster_testing::SpawnAndAwaitReady(
        MOBIVINE_CLUSTER_CONTROLLER_BIN, {}, &controller_, &error))
        << error;
  }

  void StartWorker(std::uint64_t worker_id) {
    Process worker;
    worker.name = "worker-" + std::to_string(worker_id);
    std::string error;
    ASSERT_TRUE(cluster_testing::SpawnAndAwaitReady(
        MOBIVINE_CLUSTER_WORKER_BIN,
        {"--controller-port=" + std::to_string(controller_.port),
         "--worker-id=" + std::to_string(worker_id), "--shards=2"},
        &worker, &error))
        << error;
    workers_.push_back(worker);
  }

  void TearDown() override {
    for (Process& worker : workers_) cluster_testing::Kill(worker);
    cluster_testing::Kill(controller_);
  }

  static wire::WireRequest Ping(std::uint64_t client_id) {
    wire::WireRequest request;
    request.client_id = client_id;
    request.platform = gateway::Platform::kAndroid;
    request.op = gateway::Op::kHttpGet;
    request.target =
        std::string("http://") + gateway::kGatewayHttpHost + "/ping";
    return request;
  }

  Process controller_;
  std::vector<Process> workers_;
};

TEST_F(ClusterEndToEnd, ThreeWorkersServeDirectRoutes) {
  StartController();
  StartWorker(1);
  StartWorker(2);
  StartWorker(3);
  PartitionPlan plan;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 3, &plan));
  ASSERT_TRUE(cluster_testing::WaitForPlanAdopted(plan));

  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;
  EXPECT_EQ(client.plan_epoch(), plan.epoch);

  // 120 ids spanning the keyspace: the ring sends them to all three
  // workers (proved against the plan), and every call succeeds.
  const HashRing ring(plan);
  std::unordered_set<std::uint64_t> owners;
  for (std::uint64_t id = 0; id < 120; ++id) {
    owners.insert(ring.OwnerFor(id));
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response)) << "id " << id;
    EXPECT_EQ(response.status, wire::WireStatus::kOk)
        << "id " << id << ": " << response.body;
    EXPECT_EQ(response.body, "pong");
  }
  EXPECT_EQ(owners.size(), 3u) << "keyspace not spread over all workers";

  // Steady state is DIRECT: nothing bounced, nothing re-fetched beyond
  // the initial plan, the controller stayed off the data path.
  const cluster::ClientStats stats = client.Stats();
  EXPECT_EQ(stats.wrong_worker_retries, 0u);
  EXPECT_EQ(stats.transport_retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_EQ(stats.plan_refreshes, 1u);
  client.Stop();
}

TEST_F(ClusterEndToEnd, BatchSubmitCoalescesPerOwnerAndCompletesEach) {
  StartController();
  StartWorker(1);
  StartWorker(2);
  StartWorker(3);
  PartitionPlan plan;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 3, &plan));
  ASSERT_TRUE(cluster_testing::WaitForPlanAdopted(plan));

  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;

  // One batch spanning all three owners (OwnerOf agrees with the plan's
  // ring), submitted as a single call: each request completes exactly
  // once, all kOk, and nothing bounced — the batch split along the same
  // routes Call() would have taken.
  const HashRing ring(plan);
  constexpr std::uint64_t kBatch = 120;
  std::vector<wire::WireRequest> requests;
  std::unordered_set<std::uint64_t> owners;
  for (std::uint64_t id = 0; id < kBatch; ++id) {
    EXPECT_EQ(client.OwnerOf(id), ring.OwnerFor(id)) << "id " << id;
    owners.insert(ring.OwnerFor(id));
    requests.push_back(Ping(id));
  }
  EXPECT_EQ(owners.size(), 3u) << "keyspace not spread over all workers";

  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t completions = 0, ok = 0;
  EXPECT_EQ(client.SubmitBatch(requests,
                               [&](const wire::WireResponse& response) {
                                 std::lock_guard<std::mutex> lock(mutex);
                                 ++completions;
                                 if (response.status == wire::WireStatus::kOk &&
                                     response.body == "pong") {
                                   ++ok;
                                 }
                                 cv.notify_one();
                               }),
            kBatch);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completions == kBatch; }));
  }
  EXPECT_EQ(ok, kBatch);

  const cluster::ClientStats stats = client.Stats();
  EXPECT_EQ(stats.calls, kBatch);
  EXPECT_EQ(stats.wrong_worker_retries, 0u);
  EXPECT_EQ(stats.transport_retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  client.Stop();
}

TEST_F(ClusterEndToEnd, KillWorkerRebalancesThenRejoinReacquires) {
  StartController();
  StartWorker(1);
  StartWorker(2);
  StartWorker(3);
  PartitionPlan plan3;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 3, &plan3));

  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;

  // Warm every route (connections to all three workers).
  for (std::uint64_t id = 0; id < 30; ++id) {
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response));
    ASSERT_EQ(response.status, wire::WireStatus::kOk);
  }

  // Crash worker 2 — SIGKILL, no goodbye. The controller sees the
  // control connection drop and removes it: epoch bumps, two remain.
  cluster_testing::Kill(workers_[1]);
  PartitionPlan plan2;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 2, &plan2));
  EXPECT_GT(plan2.epoch, plan3.epoch);
  for (const auto& member : plan2.members) {
    EXPECT_NE(member.worker_id, 2u);
  }

  // 100% of subsequent requests succeed — including the ids the dead
  // worker owned, which the client re-routes to survivors (transport
  // error or kWrongWorker in-band, then plan refresh, then retry).
  for (std::uint64_t id = 0; id < 120; ++id) {
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response)) << "id " << id;
    EXPECT_EQ(response.status, wire::WireStatus::kOk)
        << "id " << id << ": " << response.body;
  }
  EXPECT_GE(client.plan_epoch(), plan2.epoch);

  // The same worker id rejoins: epoch bumps again and the rejoiner
  // reacquires (and serves) its key ranges.
  StartWorker(2);
  PartitionPlan plan3b;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 3, &plan3b));
  EXPECT_GT(plan3b.epoch, plan2.epoch);

  const HashRing ring(plan3b);
  std::size_t served_by_rejoiner = 0;
  for (std::uint64_t id = 0; id < 120; ++id) {
    if (ring.OwnerFor(id) == 2) ++served_by_rejoiner;
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response)) << "id " << id;
    EXPECT_EQ(response.status, wire::WireStatus::kOk)
        << "id " << id << ": " << response.body;
  }
  EXPECT_GT(served_by_rejoiner, 0u)
      << "rejoined worker owns no sampled keys — rebalance didn't return "
         "ranges";
  const cluster::ClientStats stats = client.Stats();
  EXPECT_EQ(stats.exhausted, 0u);
  client.Stop();
}

TEST_F(ClusterEndToEnd, CallsAfterStopFailWithoutCountingExhausted) {
  StartController();
  StartWorker(1);
  PartitionPlan plan;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 1, &plan));

  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;
  wire::WireResponse response;
  ASSERT_TRUE(client.Call(Ping(1), &response));
  ASSERT_EQ(response.status, wire::WireStatus::kOk);
  client.Stop();

  // `exhausted` counts requests that ran out of attempts; a call that
  // stopped because the client is stopping never made one.
  EXPECT_FALSE(client.Call(Ping(1), &response));
  EXPECT_EQ(response.status, wire::WireStatus::kTransportError);
  wire::WireScriptRequest script;
  script.client_id = 1;
  script.source = "'x';";
  EXPECT_FALSE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kTransportError);
  int failed = 0;
  client.Submit(Ping(1), [&](const wire::WireResponse& reply) {
    EXPECT_EQ(reply.status, wire::WireStatus::kTransportError);
    ++failed;
  });
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(client.Stats().exhausted, 0u);
}

TEST_F(ClusterEndToEnd, SigtermLeavesDrainsAndExitsZero) {
  StartController();
  StartWorker(1);
  StartWorker(2);
  PartitionPlan plan;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 2, &plan));

  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;
  for (std::uint64_t id = 0; id < 20; ++id) {
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response));
    ASSERT_EQ(response.status, wire::WireStatus::kOk);
  }

  // Graceful rotation: exit code 0 certifies leave + fence + full drain
  // (the worker exits 3 when the gateway failed to go quiescent).
  EXPECT_EQ(cluster_testing::Terminate(workers_[0]), 0);
  PartitionPlan plan1;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 1, &plan1));
  EXPECT_GT(plan1.epoch, plan.epoch);
  EXPECT_EQ(plan1.members[0].worker_id, 2u);

  // The survivor owns everything; traffic keeps flowing.
  for (std::uint64_t id = 0; id < 40; ++id) {
    wire::WireResponse response;
    ASSERT_TRUE(client.Call(Ping(id), &response)) << "id " << id;
    EXPECT_EQ(response.status, wire::WireStatus::kOk);
  }
  const cluster::ClientStats stats = client.Stats();
  EXPECT_EQ(stats.exhausted, 0u);
  client.Stop();
}

// ---------------------------------------------------------------------------
// M-Push across the cluster: subscriptions follow the partition plan
// ---------------------------------------------------------------------------

namespace {
/// Collects one routed subscription's callbacks behind a condition
/// variable (same shape as the wire-level Subscriber helper).
struct PushSink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<wire::WireSubscribeAck> acks;
  std::vector<wire::WireEvent> events;

  wire::WireClient::AckCallback OnAck() {
    return [this](const wire::WireSubscribeAck& ack) {
      std::lock_guard<std::mutex> lock(mutex);
      acks.push_back(ack);
      cv.notify_all();
    };
  }
  wire::WireClient::EventHandler OnEvent() {
    return [this](const wire::WireEvent& event) {
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      cv.notify_all();
    };
  }
  bool WaitForAck(int timeout_ms = 10'000) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return !acks.empty(); });
  }
  bool WaitForEvents(std::size_t n, int timeout_ms = 10'000) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return events.size() >= n; });
  }
};

wire::WireRequest SendSms(std::uint64_t client_id) {
  wire::WireRequest request;
  request.client_id = client_id;
  request.platform = gateway::Platform::kAndroid;
  request.op = gateway::Op::kSendSms;
  request.target = gateway::kGatewaySmsPeer;
  request.payload = "push me";
  return request;
}
}  // namespace

TEST_F(ClusterEndToEnd, SubscribeFencedByOwnershipAnswersWrongWorkerWithEpoch) {
  StartController();
  StartWorker(1);
  StartWorker(2);
  PartitionPlan plan;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 2, &plan));

  // Pick a client id and the member that does NOT own it.
  const HashRing ring(plan);
  const std::uint64_t client_id = 123;
  const std::uint64_t owner = ring.OwnerFor(client_id);
  const cluster::PlanMember* wrong = nullptr;
  for (const auto& member : plan.members) {
    if (member.worker_id != owner) wrong = &member;
  }
  ASSERT_NE(wrong, nullptr);

  wire::WireClient direct;
  ASSERT_TRUE(direct.Connect(wrong->data_port));

  // The controller has published the 2-member plan, but the worker
  // applies it asynchronously — probe with requests until this worker
  // fences the id, so the subscribe below observes the fence
  // deterministically rather than racing the plan push.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    wire::WireResponse probe;
    ASSERT_TRUE(direct.Call(SendSms(client_id), &probe));
    if (probe.status == wire::WireStatus::kWrongWorker) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker never applied the 2-member plan";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  wire::WireSubscribe subscribe;
  subscribe.client_id = client_id;
  subscribe.topic = wire::PushTopic::kAll;
  PushSink sink;
  ASSERT_TRUE(direct.Subscribe(subscribe, sink.OnEvent(), sink.OnAck()));
  ASSERT_TRUE(sink.WaitForAck());
  // The fence answers in-band, with the worker's plan epoch riding the
  // ack's start_cursor varint (no body parsing on the push path).
  EXPECT_EQ(sink.acks[0].status, wire::WireStatus::kWrongWorker);
  EXPECT_GE(sink.acks[0].start_cursor, plan.epoch);
  direct.Close();
}

TEST_F(ClusterEndToEnd, PushSubscriptionFollowsPlanAcrossStaleRoutes) {
  StartController();
  StartWorker(1);
  PartitionPlan plan1;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 1, &plan1));

  // Start the client against the one-member plan, THEN grow the cluster:
  // the client's held plan is now stale by construction.
  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client client(config);
  std::string error;
  ASSERT_TRUE(client.Start(&error)) << error;

  StartWorker(2);
  PartitionPlan plan2;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 2, &plan2));
  ASSERT_GT(plan2.epoch, plan1.epoch);

  // A client id the NEW worker owns: the first subscribe attempt routes
  // to worker 1 (stale plan), gets fenced with kWrongWorker + epoch,
  // refreshes, and re-subscribes against worker 2 — all inside
  // Subscribe()'s bounded repair loop.
  const HashRing ring(plan2);
  std::uint64_t moved_id = 0;
  for (std::uint64_t id = 1; id < 10'000; ++id) {
    if (ring.OwnerFor(id) == 2) {
      moved_id = id;
      break;
    }
  }
  ASSERT_NE(moved_id, 0u) << "no sampled id owned by the new worker";

  // Make the staleness observable before subscribing: worker 1 applies
  // plan 2 asynchronously, and until it does it still owns everything
  // and would accept the subscription with no repair to exercise. Probe
  // it directly (NOT through `client`, whose plan must stay stale) until
  // it fences the moved id.
  {
    const cluster::PlanMember* old_worker = nullptr;
    for (const auto& member : plan2.members) {
      if (member.worker_id == 1) old_worker = &member;
    }
    ASSERT_NE(old_worker, nullptr);
    wire::WireClient probe_conn;
    ASSERT_TRUE(probe_conn.Connect(old_worker->data_port));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      wire::WireResponse probe;
      ASSERT_TRUE(probe_conn.Call(SendSms(moved_id), &probe));
      if (probe.status == wire::WireStatus::kWrongWorker) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "worker 1 never applied the 2-member plan";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    probe_conn.Close();
  }

  PushSink sink;
  ASSERT_TRUE(client.Subscribe(moved_id, wire::PushTopic::kSmsDelivery,
                               /*cursor=*/0, sink.OnEvent(), sink.OnAck()));
  ASSERT_TRUE(sink.WaitForAck());
  ASSERT_EQ(sink.acks[0].status, wire::WireStatus::kOk);

  const cluster::ClientStats repaired = client.Stats();
  EXPECT_GE(repaired.wrong_worker_retries, 1u);
  EXPECT_GE(repaired.push_resubscribes, 1u);
  EXPECT_GE(client.plan_epoch(), plan2.epoch);

  // The stream is live on the right worker: an SMS routed to the same
  // client publishes delivery reports into that worker's shard feed, and
  // they arrive as pushed events — no polling anywhere.
  wire::WireResponse response;
  ASSERT_TRUE(client.Call(SendSms(moved_id), &response));
  ASSERT_EQ(response.status, wire::WireStatus::kOk) << response.body;
  ASSERT_TRUE(sink.WaitForEvents(1));
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    EXPECT_EQ(sink.events[0].kind, wire::EventKind::kData);
    EXPECT_EQ(sink.events[0].topic, wire::PushTopic::kSmsDelivery);
    EXPECT_EQ(sink.events[0].aux, moved_id);
    EXPECT_GE(sink.events[0].cursor, 1u);
  }
  EXPECT_EQ(client.Stats().exhausted, 0u);
  client.Stop();
}

// ---------------------------------------------------------------------------
// M-Script across the cluster: scripts route and repair like requests
// ---------------------------------------------------------------------------

TEST_F(ClusterEndToEnd, ScriptFollowsPlanAcrossStaleRoutes) {
  StartController();
  StartWorker(1);
  PartitionPlan plan1;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 1, &plan1));

  // Two clients against the one-member plan, then grow the cluster: both
  // hold a stale plan, one for CallScript and one for SubmitScript (a
  // repair refreshes the plan, so each entry point needs its own).
  cluster::ClientConfig config;
  config.controller_port = controller_.port;
  cluster::Client caller(config);
  cluster::Client submitter(config);
  std::string error;
  ASSERT_TRUE(caller.Start(&error)) << error;
  ASSERT_TRUE(submitter.Start(&error)) << error;

  StartWorker(2);
  PartitionPlan plan2;
  ASSERT_TRUE(cluster_testing::WaitForMembers(controller_.port, 2, &plan2));
  ASSERT_GT(plan2.epoch, plan1.epoch);

  const HashRing ring(plan2);
  std::uint64_t moved_id = 0;
  for (std::uint64_t id = 1; id < 10'000; ++id) {
    if (ring.OwnerFor(id) == 2) {
      moved_id = id;
      break;
    }
  }
  ASSERT_NE(moved_id, 0u) << "no sampled id owned by the new worker";

  // Wait until worker 1 fences the moved id, so the first script attempt
  // of each client deterministically bounces off it.
  {
    const cluster::PlanMember* old_worker = nullptr;
    for (const auto& member : plan2.members) {
      if (member.worker_id == 1) old_worker = &member;
    }
    ASSERT_NE(old_worker, nullptr);
    wire::WireClient probe_conn;
    ASSERT_TRUE(probe_conn.Connect(old_worker->data_port));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      wire::WireResponse probe;
      ASSERT_TRUE(probe_conn.Call(Ping(moved_id), &probe));
      if (probe.status == wire::WireStatus::kWrongWorker) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "worker 1 never applied the 2-member plan";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    probe_conn.Close();
  }

  wire::WireScriptRequest script;
  script.client_id = moved_id;
  script.source = "mobile.invoke('android', 'httpGet', args.url);";
  script.args.emplace_back(
      "url", std::string("http://") + gateway::kGatewayHttpHost + "/ping");

  // CallScript: fenced by the stale owner, repaired, answered by worker 2.
  wire::WireResponse response;
  ASSERT_TRUE(caller.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kOk) << response.body;
  EXPECT_EQ(response.body, "pong");
  EXPECT_GE(caller.Stats().wrong_worker_retries, 1u);
  EXPECT_GE(caller.plan_epoch(), plan2.epoch);

  // SubmitScript: the same repair, from the callback path.
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<wire::WireResponse> replies;
  const auto collect = [&](const wire::WireResponse& reply) {
    std::lock_guard<std::mutex> lock(mutex);
    replies.push_back(reply);
    cv.notify_all();
  };
  const auto wait_for = [&](std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return replies.size() >= n; });
  };
  ASSERT_TRUE(submitter.SubmitScript(script, collect));
  ASSERT_TRUE(wait_for(1));
  EXPECT_EQ(replies[0].status, wire::WireStatus::kOk) << replies[0].body;
  EXPECT_EQ(replies[0].body, "pong");
  EXPECT_GE(submitter.Stats().wrong_worker_retries, 1u);

  // kScriptError is the sandbox's typed answer, not a routing failure:
  // it comes back on the first attempt and no retry counter moves.
  const cluster::ClientStats caller_before = caller.Stats();
  const cluster::ClientStats submitter_before = submitter.Stats();
  script.source = "throw 'cluster boom';";
  script.args.clear();
  ASSERT_TRUE(caller.CallScript(script, &response));
  EXPECT_EQ(response.status, wire::WireStatus::kScriptError);
  EXPECT_NE(response.body.find("cluster boom"), std::string::npos);
  ASSERT_TRUE(submitter.SubmitScript(script, collect));
  ASSERT_TRUE(wait_for(2));
  EXPECT_EQ(replies[1].status, wire::WireStatus::kScriptError);
  EXPECT_NE(replies[1].body.find("cluster boom"), std::string::npos);
  for (const auto& [before, after] :
       {std::pair{caller_before, caller.Stats()},
        std::pair{submitter_before, submitter.Stats()}}) {
    EXPECT_EQ(after.wrong_worker_retries, before.wrong_worker_retries);
    EXPECT_EQ(after.transport_retries, before.transport_retries);
    EXPECT_EQ(after.plan_refreshes, before.plan_refreshes);
    EXPECT_EQ(after.exhausted, 0u);
  }
  caller.Stop();
  submitter.Stop();
}

// ---------------------------------------------------------------------------
// Controller: socket-level fuzz and a stalled control peer
// ---------------------------------------------------------------------------

using cluster::ControlMessage;
using cluster::ControlOp;
using wire_testing::RawConn;

std::vector<std::uint8_t> EncodedControl(ControlOp op,
                                         std::uint64_t correlation_id,
                                         std::uint64_t worker_id) {
  ControlMessage message;
  message.op = op;
  message.correlation_id = correlation_id;
  message.worker_id = worker_id;
  message.data_port = 4000;
  std::vector<std::uint8_t> bytes;
  cluster::EncodeControl(message, bytes);
  return bytes;
}

/// Poll `done` for up to ten seconds.
template <typename Predicate>
bool Eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ClusterController, SocketFuzzNeverKillsTheController) {
  cluster::Controller controller;
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  const std::uint64_t connections_before = controller.Stats().connections;

  // Every control op a peer sends, plus a data frame the controller must
  // answer in-band with kUnsupportedFrame.
  std::vector<std::vector<std::uint8_t>> corpus = {
      EncodedControl(ControlOp::kRegister, 1, 7),
      EncodedControl(ControlOp::kHeartbeat, 2, 7),
      EncodedControl(ControlOp::kPlanGet, 3, 0),
      EncodedControl(ControlOp::kLeave, 4, 7),
      {}};
  wire::WireRequest request;
  request.request_id = 5;
  request.client_id = 1;
  request.target = std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  wire::EncodeRequest(request, corpus.back());

  support::SplitMix64 rng{0xc0deface5eedull};
  int answered = 0;
  for (int round = 0; round < 60; ++round) {
    const std::vector<std::uint8_t>& pristine = corpus[round % corpus.size()];
    RawConn conn;
    ASSERT_TRUE(conn.Connect(controller.port(), /*rcvbuf=*/0,
                             /*rcvtimeo_ms=*/5000))
        << "controller died on round " << round;
    std::vector<std::uint8_t> bytes = pristine;
    switch (rng.Next() % 4) {
      case 0:
        bytes[rng.Next() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.Next() % 8));
        break;
      case 1:
        bytes.resize(1 + rng.Next() % (bytes.size() - 1));
        break;
      case 2: {  // duplicate the frame then corrupt the second copy
        const std::size_t n = bytes.size();
        bytes.insert(bytes.end(), pristine.begin(), pristine.end());
        bytes[n + rng.Next() % n] ^= 0x10;
        break;
      }
      default:
        bytes.assign(4 + rng.Next() % 64, 0);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
        break;
    }
    // Half-close after the bytes: a frame the controller is still
    // waiting on (a truncation) ends in EOF, so every round must end
    // with the controller closing, after whatever answers it sent.
    if (conn.Send(bytes)) conn.ShutdownWrite();
    wire::FrameType type{};
    std::vector<std::uint8_t> payload;
    bool got_frame = false;
    while (conn.RecvFrame(&type, &payload)) got_frame = true;
    answered += got_frame ? 1 : 0;
    EXPECT_TRUE(conn.peer_closed())
        << "round " << round << " was neither answered to a close nor closed";
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(controller.Stats().control_errors, 0u);
  EXPECT_TRUE(Eventually([&] {
    return controller.Stats().connections == connections_before;
  })) << controller.Stats().connections << " connections left open";

  cluster::ControlChannel channel;
  ASSERT_TRUE(
      channel.Connect(controller.port(), wire::ConnectOptions{}, &error))
      << error;
  ControlMessage register_worker;
  register_worker.op = ControlOp::kRegister;
  register_worker.worker_id = 9;
  register_worker.data_port = 4009;
  ControlMessage ack;
  ASSERT_TRUE(channel.Roundtrip(register_worker, &ack, 5'000'000, &error))
      << error;
  EXPECT_EQ(ack.op, ControlOp::kRegisterAck);
  EXPECT_EQ(ack.status, cluster::AckStatus::kOk);
  EXPECT_NE(std::find(ack.plan.members.begin(), ack.plan.members.end(),
                      cluster::PlanMember{9, 4009}),
            ack.plan.members.end());
  channel.Close();

  // A data request is answered in-band, not dropped.
  RawConn data;
  ASSERT_TRUE(data.Connect(controller.port()));
  ASSERT_TRUE(data.Send(corpus.back()));
  wire::WireResponse response;
  ASSERT_TRUE(data.RecvResponse(&response));
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_EQ(response.status, wire::WireStatus::kUnsupportedFrame);
  controller.Stop();
}

TEST(ClusterController, RunsOneThread) {
  // Another thread runs first: a sanitizer runtime starts a helper
  // thread of its own beside the process's first extra thread.
  std::promise<void> release;
  std::thread idle([ready = release.get_future()] { ready.wait(); });
  cluster::Controller controller;
  const std::size_t before = wire_testing::ProcessThreads();
  ASSERT_TRUE(controller.Start());
  EXPECT_EQ(wire_testing::ProcessThreads(), before + 1);
  controller.Stop();
  EXPECT_EQ(wire_testing::ProcessThreads(), before);
  release.set_value();
  idle.join();
}

/// Largest send buffer the kernel autotunes a TCP socket to (tcp_wmem's
/// third field; the controller never sets SO_SNDBUF).
std::size_t KernelSendBufferMax() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t min = 0;
  std::size_t initial = 0;
  std::size_t max = 0;
  if (in >> min >> initial >> max && max > 0) return max;
  return std::size_t{4} << 20;  // the Linux default
}

TEST(ClusterController, StalledControlPeerIsDroppedPastItsBacklog) {
  cluster::ControllerConfig config;
  config.max_output_backlog = 256 * 1024;
  // No silence deaths mid-test: the plan only changes by registration.
  config.membership.heartbeat_interval_us = 60'000'000;
  cluster::Controller controller(config);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;

  // A 256-member plan makes every kPlanPush about a kilobyte.
  cluster::ControlChannel loader;
  ASSERT_TRUE(loader.Connect(controller.port(), wire::ConnectOptions{}, &error))
      << error;
  ControlMessage ack;
  for (std::uint64_t id = 1; id <= 256; ++id) {
    ControlMessage register_worker;
    register_worker.op = ControlOp::kRegister;
    register_worker.worker_id = id;
    register_worker.data_port = 40000;
    ASSERT_TRUE(loader.Roundtrip(register_worker, &ack, 5'000'000, &error))
        << error;
  }
  ASSERT_EQ(ack.plan.members.size(), 256u);
  std::vector<std::uint8_t> plan_push;
  ControlMessage push;
  push.op = ControlOp::kPlanPush;
  push.plan = ack.plan;
  cluster::EncodeControl(push, plan_push);

  // A peer that asks for the plan over and over and never reads: more
  // answers than its receive buffer, the controller's kernel send buffer
  // and the backlog cap hold together. Each burst's answers fit well
  // inside the cap, so only a peer that stops reading can reach it.
  RawConn stalled;
  ASSERT_TRUE(stalled.Connect(controller.port(), /*rcvbuf=*/4096));
  const std::size_t asks =
      (KernelSendBufferMax() + 4 * config.max_output_backlog) /
          plan_push.size() +
      16;
  std::vector<std::uint8_t> one_ask =
      EncodedControl(ControlOp::kPlanGet, 1, 0);
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < 16; ++i) {
    burst.insert(burst.end(), one_ask.begin(), one_ask.end());
  }
  for (std::size_t sent = 0; sent < asks; sent += 16) {
    if (!stalled.Send(burst)) break;  // already dropped
  }
  // Only the loader is left: nothing but the backlog cap closes a peer
  // that sends well-formed kPlanGets.
  EXPECT_TRUE(Eventually([&] { return controller.Stats().connections == 1; }))
      << "the stalled peer is still connected";
  // The control plane is not wedged: the loader is still served.
  ControlMessage plan_get;
  plan_get.op = ControlOp::kPlanGet;
  ASSERT_TRUE(loader.Roundtrip(plan_get, &ack, 5'000'000, &error)) << error;
  EXPECT_EQ(ack.plan.members.size(), 256u);
  loader.Close();
  controller.Stop();
}

}  // namespace
}  // namespace mobivine
