// M-Cluster in process: the worker agent against a controller and a
// gateway in this process (the end-to-end suite runs agents only inside
// forked cluster_worker processes), and the control channel's typed
// failures against peers that are not a controller:
//  * an agent registers, heartbeats and applies the plan the controller
//    pushes when another worker joins;
//  * LeaveAndDrain books one leave, one kDrain and one kDrainAck, and
//    leaves the agent owning nothing;
//  * Stop() does not wait out a heartbeat interval;
//  * a Roundtrip ends at once, typed, when a data-plane server refuses
//    the control frame in-band, when the peer hangs up mid-wait, and when
//    the peer sends a garbled control frame (which drops the link).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/control.h"
#include "cluster/controller.h"
#include "cluster/plan.h"
#include "cluster/worker_agent.h"
#include "gateway/gateway.h"
#include "tests/raw_conn.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace mobivine {
namespace {

using cluster::ControlChannel;
using cluster::ControlMessage;
using cluster::ControlOp;
using Clock = std::chrono::steady_clock;
using wire_testing::RawConn;
using wire_testing::RawListener;

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

gateway::GatewayConfig OneShard() {
  gateway::GatewayConfig config;
  config.shards = 1;
  config.store = &Store();
  return config;
}

/// Poll `done` for up to ten seconds.
template <typename Predicate>
bool Eventually(Predicate done) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::chrono::milliseconds Since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start);
}

/// A controller whose members die only by leaving or closing: a worker
/// registered by hand never heartbeats.
cluster::ControllerConfig PatientController() {
  cluster::ControllerConfig config;
  config.membership.heartbeat_interval_us = 60'000'000;
  return config;
}

cluster::WorkerAgentConfig AgentConfig(std::uint16_t controller_port,
                                       std::uint64_t heartbeat_us) {
  cluster::WorkerAgentConfig config;
  config.controller_port = controller_port;
  config.worker_id = 1;
  config.heartbeat_interval_us = heartbeat_us;
  return config;
}

ControlMessage Register(std::uint64_t worker_id, std::uint64_t data_port) {
  ControlMessage message;
  message.op = ControlOp::kRegister;
  message.worker_id = worker_id;
  message.data_port = data_port;
  return message;
}

// ---------------------------------------------------------------------------
// ClusterAgent
// ---------------------------------------------------------------------------

TEST(ClusterAgent, HeartbeatsAndAppliesThePushedPlan) {
  cluster::Controller controller(PatientController());
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  gateway::Gateway gateway(OneShard());
  cluster::WorkerAgent agent(gateway, AgentConfig(controller.port(), 2'000));
  ASSERT_TRUE(agent.Start(4001, &error)) << error;
  const std::uint64_t joined = agent.plan_epoch();
  EXPECT_GE(joined, 1u);
  EXPECT_TRUE(
      Eventually([&] { return controller.Stats().heartbeats >= 3; }));

  // A second worker joins: the controller pushes the new plan to the
  // agent, which applies it on its link's reader thread.
  ControlChannel second;
  ASSERT_TRUE(
      second.Connect(controller.port(), wire::ConnectOptions{}, &error))
      << error;
  ControlMessage ack;
  ASSERT_TRUE(second.Roundtrip(Register(2, 4002), &ack, 5'000'000, &error))
      << error;
  ASSERT_EQ(ack.plan.members.size(), 2u);
  EXPECT_GT(ack.plan.epoch, joined);
  EXPECT_TRUE(Eventually([&] { return agent.plan_epoch() == ack.plan.epoch; }));

  cluster::HashRing ring;
  ring.Rebuild(ack.plan);
  std::size_t given_away = 0;
  for (std::uint64_t client_id = 1; client_id <= 256; ++client_id) {
    std::uint64_t epoch = 0;
    const bool owned = agent.Owns(client_id, &epoch);
    EXPECT_EQ(owned, ring.OwnerFor(client_id) == 1) << client_id;
    EXPECT_EQ(epoch, ack.plan.epoch);
    given_away += owned ? 0 : 1;
  }
  EXPECT_GT(given_away, 0u) << "the new ring moved no key to worker 2";
  agent.Stop();
  second.Close();
  gateway.Stop();
  controller.Stop();
}

TEST(ClusterAgent, LeaveAndDrainIsBookedOnceAndFencesEverything) {
  cluster::Controller controller(PatientController());
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  gateway::Gateway gateway(OneShard());
  cluster::WorkerAgent agent(gateway, AgentConfig(controller.port(), 2'000));
  ASSERT_TRUE(agent.Start(4001, &error)) << error;

  EXPECT_TRUE(agent.LeaveAndDrain());
  EXPECT_TRUE(agent.draining());
  const cluster::ControllerStatsSnapshot stats = controller.Stats();
  EXPECT_EQ(stats.leaves, 1u);
  EXPECT_EQ(stats.drains_sent, 1u);
  EXPECT_TRUE(Eventually([&] { return controller.Stats().drain_acks == 1; }));
  EXPECT_EQ(controller.Stats().workers_alive, 0u);
  for (std::uint64_t client_id = 1; client_id <= 64; ++client_id) {
    std::uint64_t epoch = 0;
    EXPECT_FALSE(agent.Owns(client_id, &epoch)) << client_id;
  }
  agent.Stop();
  EXPECT_EQ(controller.Stats().drain_acks, 1u);
  gateway.Stop();
  controller.Stop();
}

TEST(ClusterAgent, StopDoesNotWaitOutAHeartbeatInterval) {
  cluster::Controller controller(PatientController());
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  gateway::Gateway gateway(OneShard());
  // Ten seconds between heartbeats: the agent thread is asleep when the
  // stop comes.
  cluster::WorkerAgent agent(gateway,
                             AgentConfig(controller.port(), 10'000'000));
  ASSERT_TRUE(agent.Start(4001, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Clock::time_point start = Clock::now();
  agent.Stop();
  EXPECT_LT(Since(start).count(), 1000);
  // The close of a registered worker's link is its death.
  EXPECT_TRUE(Eventually([&] { return controller.Stats().deaths == 1; }));
  gateway.Stop();
  controller.Stop();
}

// ---------------------------------------------------------------------------
// ClusterControlChannel: typed failures
// ---------------------------------------------------------------------------

ControlMessage PlanGet() {
  ControlMessage message;
  message.op = ControlOp::kPlanGet;
  return message;
}

/// The frame `message` encodes to, after `mangle` edited its payload,
/// re-framed with a valid CRC.
template <typename Mangle>
std::vector<std::uint8_t> Reframed(const ControlMessage& message,
                                   Mangle mangle) {
  std::vector<std::uint8_t> bytes;
  cluster::EncodeControl(message, bytes);
  wire::FrameView frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                              nullptr),
            wire::DecodeStatus::kOk);
  std::vector<std::uint8_t> out(frame.payload,
                                frame.payload + frame.payload_size);
  mangle(out);
  wire::FinishFrame(out, 0, wire::FrameType::kControl);
  return out;
}

TEST(ClusterControlChannel, DataPlanePeerFailsTypedAtOnce) {
  gateway::Gateway gateway(OneShard());
  wire::WireServer server(gateway, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ControlChannel channel;
  ASSERT_TRUE(channel.Connect(server.port(), wire::ConnectOptions{}, &error))
      << error;
  ControlMessage reply;
  const Clock::time_point start = Clock::now();
  EXPECT_FALSE(channel.Roundtrip(PlanGet(), &reply, 5'000'000, &error));
  EXPECT_LT(Since(start).count(), 1000);
  EXPECT_EQ(error, "peer does not speak the control plane");
  channel.Close();
  server.Stop();
  gateway.Stop();
}

TEST(ClusterControlChannel, PeerClosingMidWaitFailsFast) {
  RawListener listener;
  ASSERT_NE(listener.port(), 0);
  std::thread peer([&] {
    RawConn conn;
    wire::FrameType type{};
    std::vector<std::uint8_t> payload;
    if (listener.Accept(&conn) && conn.RecvFrame(&type, &payload)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    conn.CloseNow();  // hang up with the roundtrip waiting
  });
  ControlChannel channel;
  std::string error;
  ASSERT_TRUE(
      channel.Connect(listener.port(), wire::ConnectOptions{}, &error))
      << error;
  ControlMessage reply;
  const Clock::time_point start = Clock::now();
  EXPECT_FALSE(channel.Roundtrip(PlanGet(), &reply, 5'000'000, &error));
  EXPECT_LT(Since(start).count(), 100);
  EXPECT_EQ(error, "control connection closed");
  EXPECT_FALSE(channel.connected());
  peer.join();
}

TEST(ClusterControlChannel, GarbledControlFrameDropsTheLink) {
  RawListener listener;
  ASSERT_NE(listener.port(), 0);
  std::promise<void> done;
  // The peer answers each of two roundtrips with a garbled kControl frame
  // under the right correlation id. The first connection then hangs up
  // (after the frame: the error says which ended the wait); the second
  // stays open, so only the garbling can end it.
  std::thread peer([&, finished = done.get_future()] {
    for (int round = 0; round < 2; ++round) {
      RawConn conn;
      wire::FrameType type{};
      std::vector<std::uint8_t> payload;
      if (!listener.Accept(&conn) || !conn.RecvFrame(&type, &payload)) return;
      ControlMessage answer;
      answer.op = ControlOp::kPlanPush;
      (void)wire::PeekPayloadId(payload.data(), payload.size(),
                                &answer.correlation_id);
      std::vector<std::uint8_t> garbled;
      if (round == 0) {
        // A well-framed body with an op byte outside the enum (the op
        // follows the one-byte correlation varint).
        garbled = Reframed(answer, [](std::vector<std::uint8_t>& body) {
          body[1] = 0xee;
        });
      } else {
        // A flipped payload bit: the CRC no longer matches.
        cluster::EncodeControl(answer, garbled);
        garbled[garbled.size() / 2] ^= 0x04;
      }
      (void)conn.Send(garbled);
      if (round == 1) finished.wait_for(std::chrono::seconds(10));
    }
  });

  ControlChannel channel;
  std::string error;
  ControlMessage reply;
  ASSERT_TRUE(
      channel.Connect(listener.port(), wire::ConnectOptions{}, &error))
      << error;
  Clock::time_point start = Clock::now();
  EXPECT_FALSE(channel.Roundtrip(PlanGet(), &reply, 5'000'000, &error));
  EXPECT_LT(Since(start).count(), 1000);
  EXPECT_EQ(error, "control: unknown op");
  channel.Close();

  ASSERT_TRUE(
      channel.Connect(listener.port(), wire::ConnectOptions{}, &error))
      << error;
  start = Clock::now();
  EXPECT_FALSE(channel.Roundtrip(PlanGet(), &reply, 5'000'000, &error));
  EXPECT_LT(Since(start).count(), 1000);
  EXPECT_FALSE(channel.connected()) << "a garbled frame left the link up";
  done.set_value();
  peer.join();
}

}  // namespace
}  // namespace mobivine
