// M-Cluster pure-logic tests: the membership state machine, the
// consistent-hash ring, and the control-frame codec — no processes, no
// sockets, no real time. The clock is a plain integer the tests advance,
// which is what makes the miss-threshold cases deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/control.h"
#include "cluster/membership.h"
#include "cluster/plan.h"
#include "support/seed.h"
#include "wire/protocol.h"

namespace mobivine {
namespace {

using cluster::AckStatus;
using cluster::ControlMessage;
using cluster::ControlOp;
using cluster::HashRing;
using cluster::Membership;
using cluster::MembershipConfig;
using cluster::PartitionPlan;
using cluster::PlanMember;
using cluster::RegisterOutcome;
using cluster::WorkerHealth;
using support::Mix64;

MembershipConfig Config() {
  MembershipConfig config;
  config.heartbeat_interval_us = 1000;
  config.suspect_after_misses = 2;
  config.dead_after_misses = 8;
  return config;
}

// ---------------------------------------------------------------------------
// Membership: health thresholds and the epoch contract
// ---------------------------------------------------------------------------

TEST(ClusterMembership, JoinsBumpEpochByExactlyOne) {
  Membership membership(Config());
  EXPECT_EQ(membership.plan().epoch, 0u);  // no plan before the first join

  EXPECT_EQ(membership.Register(1, 1001, 0), RegisterOutcome::kJoined);
  EXPECT_EQ(membership.plan().epoch, 1u);
  EXPECT_EQ(membership.Register(2, 1002, 0), RegisterOutcome::kJoined);
  EXPECT_EQ(membership.plan().epoch, 2u);
  EXPECT_EQ(membership.Register(3, 1003, 0), RegisterOutcome::kJoined);
  EXPECT_EQ(membership.plan().epoch, 3u);
  ASSERT_EQ(membership.plan().members.size(), 3u);
  // Canonical order: sorted by worker id.
  EXPECT_EQ(membership.plan().members[0].worker_id, 1u);
  EXPECT_EQ(membership.plan().members[2].worker_id, 3u);

  EXPECT_EQ(membership.Register(0, 1000, 0), RegisterOutcome::kRejected);
  EXPECT_EQ(membership.plan().epoch, 3u);  // rejected: no churn
}

TEST(ClusterMembership, MissThresholdsWalkAliveSuspectDead) {
  Membership membership(Config());
  (void)membership.Register(1, 1001, 0);
  (void)membership.Register(2, 1002, 0);
  const std::uint64_t epoch = membership.plan().epoch;

  // Worker 2 heartbeats; worker 1 goes silent.
  (void)membership.Heartbeat(2, 1000);
  EXPECT_FALSE(membership.Tick(1999));  // one miss: still alive
  EXPECT_EQ(membership.health(1), WorkerHealth::kAlive);

  (void)membership.Heartbeat(2, 2000);
  EXPECT_FALSE(membership.Tick(2000));  // two misses: suspect, still planned
  EXPECT_EQ(membership.health(1), WorkerHealth::kSuspect);
  EXPECT_EQ(membership.plan().epoch, epoch);
  EXPECT_EQ(membership.plan().members.size(), 2u);
  EXPECT_EQ(membership.suspect_count(), 1u);

  EXPECT_TRUE(membership.Tick(8000));  // eight misses: dead, dropped
  EXPECT_EQ(membership.health(1), WorkerHealth::kDead);
  EXPECT_EQ(membership.plan().epoch, epoch + 1);
  ASSERT_EQ(membership.plan().members.size(), 1u);
  EXPECT_EQ(membership.plan().members[0].worker_id, 2u);

  // A dead worker's heartbeat is refused — it must re-register (its
  // removal was already broadcast; silent resurrection would skip the
  // epoch bump clients key off).
  EXPECT_FALSE(membership.Heartbeat(1, 8100));
  EXPECT_EQ(membership.Register(1, 1001, 8200), RegisterOutcome::kRejoined);
  EXPECT_EQ(membership.plan().epoch, epoch + 2);
  EXPECT_EQ(membership.plan().members.size(), 2u);
}

TEST(ClusterMembership, FlappingNeverChurnsTheEpoch) {
  Membership membership(Config());
  (void)membership.Register(1, 1001, 0);
  (void)membership.Register(2, 1002, 0);
  const std::uint64_t epoch = membership.plan().epoch;

  // Worker 1 oscillates: silent past the suspect line, then beats, ten
  // times over. The plan (and its epoch) must not move once — suspect
  // stays IN the plan, exactly like a breaker's half-open probe window.
  std::uint64_t now = 0;
  for (int round = 0; round < 10; ++round) {
    (void)membership.Heartbeat(2, now);
    now += 3000;  // three missed intervals: suspect, not dead
    (void)membership.Heartbeat(2, now);
    EXPECT_FALSE(membership.Tick(now));
    EXPECT_EQ(membership.health(1), WorkerHealth::kSuspect);
    EXPECT_TRUE(membership.Heartbeat(1, now));  // probe succeeds
    EXPECT_EQ(membership.health(1), WorkerHealth::kAlive);
  }
  EXPECT_EQ(membership.plan().epoch, epoch);
  EXPECT_EQ(membership.plan().members.size(), 2u);
}

TEST(ClusterMembership, EpochIsMonotoneAcrossEveryTransition) {
  Membership membership(Config());
  std::uint64_t last = membership.plan().epoch;
  const auto check = [&] {
    EXPECT_GE(membership.plan().epoch, last);
    last = membership.plan().epoch;
  };

  (void)membership.Register(1, 1001, 0);
  check();
  (void)membership.Register(2, 1002, 0);
  check();
  (void)membership.Remove(1, WorkerHealth::kLeft);
  check();
  (void)membership.Register(1, 1001, 100);  // rejoin after leave
  check();
  EXPECT_EQ(membership.Register(1, 2001, 200), RegisterOutcome::kReplaced);
  check();  // replace bumps even though the id already lived
  (void)membership.Tick(1'000'000);  // everyone dies of silence
  check();
  EXPECT_EQ(membership.plan().members.size(), 0u);
  EXPECT_GT(membership.plan().epoch, 0u);
}

TEST(ClusterMembership, ReplaceUpdatesEndpointAndBumps) {
  Membership membership(Config());
  (void)membership.Register(7, 1001, 0);
  const std::uint64_t epoch = membership.plan().epoch;
  // Same id, new port: a restart that beat the failure detector. Latest
  // wins; the bump is what forces routers to re-dial.
  EXPECT_EQ(membership.Register(7, 3333, 50), RegisterOutcome::kReplaced);
  EXPECT_EQ(membership.plan().epoch, epoch + 1);
  ASSERT_EQ(membership.plan().members.size(), 1u);
  EXPECT_EQ(membership.plan().members[0].data_port, 3333u);
}

TEST(ClusterMembership, RemoveOfUnplannedWorkerDoesNotChurn) {
  Membership membership(Config());
  (void)membership.Register(1, 1001, 0);
  (void)membership.Tick(1'000'000);  // dies of silence
  const std::uint64_t epoch = membership.plan().epoch;
  // The connection close that follows the death sweep must not bump
  // again — the worker already left the plan.
  EXPECT_FALSE(membership.Remove(1, WorkerHealth::kDead));
  EXPECT_FALSE(membership.Remove(99, WorkerHealth::kDead));  // never seen
  EXPECT_EQ(membership.plan().epoch, epoch);
}

// ---------------------------------------------------------------------------
// Hash ring: determinism, coverage, bounded movement
// ---------------------------------------------------------------------------

PartitionPlan PlanOf(std::vector<std::uint64_t> ids) {
  PartitionPlan plan;
  plan.epoch = 1;
  for (const std::uint64_t id : ids) {
    plan.members.push_back(PlanMember{id, static_cast<std::uint16_t>(id)});
  }
  return plan;
}

constexpr int kSampledKeys = 10'000;

TEST(ClusterRing, OwnershipIsDeterministicAndCoversAllMembers) {
  const HashRing ring(PlanOf({1, 2, 3}));
  const HashRing again(PlanOf({1, 2, 3}));
  std::unordered_map<std::uint64_t, int> served;
  for (int key = 0; key < kSampledKeys; ++key) {
    const auto id = static_cast<std::uint64_t>(key);
    const std::uint64_t owner = ring.OwnerFor(id);
    EXPECT_EQ(owner, again.OwnerFor(id));  // same plan => same answers
    ++served[owner];
  }
  // Every member owns a real share. 64 vnodes won't split 3 ways evenly,
  // but nobody should starve (each gets well over a tenth).
  ASSERT_EQ(served.size(), 3u);
  for (const auto& [id, count] : served) {
    EXPECT_GT(count, kSampledKeys / 10) << "worker " << id << " starved";
  }
}

TEST(ClusterRing, SingleLeaveMovesOnlyTheLeaversKeys) {
  const HashRing before(PlanOf({1, 2, 3}));
  const HashRing after(PlanOf({1, 2}));  // worker 3 left
  int moved = 0;
  for (int key = 0; key < kSampledKeys; ++key) {
    const auto id = static_cast<std::uint64_t>(key);
    const std::uint64_t was = before.OwnerFor(id);
    const std::uint64_t now = after.OwnerFor(id);
    if (was != now) {
      ++moved;
      // Consistency: only keys the leaver owned may move; everyone
      // else's assignment is untouched.
      EXPECT_EQ(was, 3u) << "key " << key << " moved off a surviving worker";
    }
  }
  // The leaver owned about a third; all of it (and nothing else) moved.
  EXPECT_GT(moved, kSampledKeys / 5);
  EXPECT_LT(moved, kSampledKeys / 2);
}

TEST(ClusterRing, SingleJoinTakesABoundedFraction) {
  const HashRing before(PlanOf({1, 2, 3}));
  const HashRing after(PlanOf({1, 2, 3, 4}));
  int moved = 0;
  for (int key = 0; key < kSampledKeys; ++key) {
    const auto id = static_cast<std::uint64_t>(key);
    const std::uint64_t was = before.OwnerFor(id);
    const std::uint64_t now = after.OwnerFor(id);
    if (was != now) {
      ++moved;
      EXPECT_EQ(now, 4u) << "key " << key << " moved to a pre-existing worker";
    }
  }
  // The joiner takes roughly 1/4 of the keyspace — bounded well below a
  // reshuffle (vnode placement wobbles, so allow generous slack).
  EXPECT_GT(moved, kSampledKeys / 10);
  EXPECT_LT(moved, (kSampledKeys * 2) / 5);
}

TEST(ClusterRing, MixerMatchesSplitMix64Reference) {
  // Mix64 must stay the repo's splitmix64 finalizer: workers and clients
  // hash independently and MUST agree forever. Pin reference values.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ull);
}

// ---------------------------------------------------------------------------
// Control codec
// ---------------------------------------------------------------------------

TEST(ClusterControlCodec, RoundTripsEveryField) {
  ControlMessage message;
  message.correlation_id = 99;
  message.op = ControlOp::kRegisterAck;
  message.worker_id = 7;
  message.data_port = 40'001;
  message.epoch = 12;
  message.status = AckStatus::kRejected;
  message.plan.epoch = 12;
  message.plan.members = {PlanMember{1, 1001}, PlanMember{2, 1002}};
  message.message = "diagnostic text";

  std::vector<std::uint8_t> bytes;
  EncodeControl(message, bytes);

  wire::FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                              nullptr),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kControl);
  EXPECT_EQ(consumed, bytes.size());

  ControlMessage decoded;
  std::string error;
  ASSERT_TRUE(DecodeControl(frame.payload, frame.payload_size, &decoded,
                            &error))
      << error;
  EXPECT_EQ(decoded.correlation_id, 99u);
  EXPECT_EQ(decoded.op, ControlOp::kRegisterAck);
  EXPECT_EQ(decoded.worker_id, 7u);
  EXPECT_EQ(decoded.data_port, 40'001u);
  EXPECT_EQ(decoded.epoch, 12u);
  EXPECT_EQ(decoded.status, AckStatus::kRejected);
  EXPECT_EQ(decoded.plan, message.plan);
  EXPECT_EQ(decoded.message, "diagnostic text");

  // The leading varint id is readable by the generic peek — the hook
  // that lets a control-blind server correlate its kUnsupportedFrame.
  std::uint64_t id = 0;
  ASSERT_TRUE(wire::PeekPayloadId(frame.payload, frame.payload_size, &id));
  EXPECT_EQ(id, 99u);
}

TEST(ClusterControlCodec, RejectsInvalidOpStatusPortAndTruncation) {
  ControlMessage message;
  message.op = ControlOp::kHeartbeat;
  message.worker_id = 1;
  std::vector<std::uint8_t> bytes;
  EncodeControl(message, bytes);
  wire::FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                              nullptr),
            wire::DecodeStatus::kOk);

  ControlMessage decoded;
  // Every strict payload prefix must be rejected, never read past.
  for (std::size_t cut = 0; cut < frame.payload_size; ++cut) {
    EXPECT_FALSE(DecodeControl(frame.payload, cut, &decoded, nullptr));
  }

  // An op byte outside the enum is a codec error (the transport already
  // proved integrity — this is a contract violation, not corruption).
  std::vector<std::uint8_t> payload(frame.payload,
                                    frame.payload + frame.payload_size);
  // Layout: varint correlation (1 byte, 0) then the op byte.
  ASSERT_GT(payload.size(), 2u);
  payload[1] = 0xee;
  EXPECT_FALSE(DecodeControl(payload.data(), payload.size(), &decoded,
                             nullptr));
}

}  // namespace
}  // namespace mobivine
