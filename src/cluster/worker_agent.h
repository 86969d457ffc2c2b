// M-Cluster worker agent: the piece that turns a standalone gateway +
// wire server process into a cluster member.
//
// Two threads share the control link to the controller. Its reader
// thread applies each kPlanPush to an atomic plan snapshot and records a
// kDrain, a rejected kHeartbeatAck and link death as events; it never
// blocks. The agent thread ("cluster-agent") sleeps until the next
// heartbeat or an event (those, LeaveAndDrain(), Stop()) and does all
// that blocks: heartbeats, leave and drain, re-registering, and
// reconnecting with backoff under the same worker id (the controller
// books a rejoin/replace and bumps the epoch, which re-routes clients
// back here). Start() registers before the agent thread starts.
//
// The data plane never blocks on any of this: the wire server's
// ownership filter calls Owns(client_id) on its loop threads, which is a
// mutex-guarded consistent-hash lookup against the last applied plan
// (control traffic is rare; the lock is uncontended in steady state).
//
// Graceful exit (SIGTERM path in cluster_worker): LeaveAndDrain() asks
// the agent thread to send kLeave; the controller drops us from the plan
// (clients re-route away), answers kLeaveAck then kDrain; the agent
// fences new traffic (Owns -> false, stale routers get kWrongWorker),
// waits for the gateway to go quiescent (Gateway::Drain), kDrainAcks and
// stops. In-flight work finishes; nothing is dropped on the floor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/control.h"
#include "cluster/plan.h"
#include "gateway/gateway.h"

namespace mobivine::cluster {

struct WorkerAgentConfig {
  std::uint16_t controller_port = 0;
  std::uint64_t worker_id = 0;  ///< stable, >= 1
  std::uint64_t heartbeat_interval_us = 25'000;
  /// Dialing the controller (registration and reconnects).
  wire::ConnectOptions connect{.connect_timeout =
                                   std::chrono::microseconds(1'000'000),
                               .max_attempts = 40,
                               .initial_backoff =
                                   std::chrono::microseconds(25'000)};
};

class WorkerAgent {
 public:
  /// The gateway must outlive Stop() (the drain path polls its stats).
  WorkerAgent(gateway::Gateway& gateway, WorkerAgentConfig config);
  ~WorkerAgent();

  WorkerAgent(const WorkerAgent&) = delete;
  WorkerAgent& operator=(const WorkerAgent&) = delete;

  /// Connect to the controller, register (worker_id, data_port), apply
  /// the plan from the ack, start the heartbeat thread. Blocking; false
  /// with `error` when the controller is unreachable or rejected us.
  [[nodiscard]] bool Start(std::uint16_t data_port,
                           std::string* error = nullptr);

  /// Stop the agent thread and close the control connection. No leave is
  /// sent — the controller sees a connection close (== death). Use
  /// LeaveAndDrain() first for a graceful exit. Idempotent.
  void Stop();

  /// Graceful handover: kLeave -> fence -> Gateway::Drain -> kDrainAck.
  /// Blocks until the drain completes (or its timeout passes); returns
  /// whether the gateway actually went quiescent. The agent stops
  /// heartbeating; call Stop() afterwards as usual.
  bool LeaveAndDrain();

  /// The wire server's ownership filter (WireServerConfig::ownership):
  /// does this worker own `client_id` under the current plan? Always
  /// writes the current epoch to `*plan_epoch`. Thread-safe, called on
  /// wire loop threads. A worker with no plan yet (epoch 0) owns
  /// everything — a cluster worker before its first plan is just a
  /// standalone server. A draining worker owns nothing.
  [[nodiscard]] bool Owns(std::uint64_t client_id,
                          std::uint64_t* plan_epoch) const;

  [[nodiscard]] std::uint64_t plan_epoch() const {
    return plan_epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  /// What wakes the agent thread early: bits of events_.
  enum Event : unsigned {
    kStopEvent = 1,
    kLeaveEvent = 2,
    kDrainEvent = 4,
    kRejectedEvent = 8,  ///< a kHeartbeatAck said kRejected
    kLinkDownEvent = 16,
  };

  void Run();
  /// The link's push handler (reader thread). Null: the link died.
  void OnPush(const ControlMessage* push);
  /// Record `event` (a kDrain with its epoch); wake the agent thread.
  void Raise(unsigned event, std::uint64_t drain_epoch = 0);
  void ApplyPlan(const PartitionPlan& plan);
  /// Register over the (connected) channel; applies the acked plan.
  bool RegisterWithController(std::string* error);
  /// Agent thread: fence, drain the gateway, kDrainAck with `epoch`.
  void DrainAndAck(std::uint64_t epoch);

  gateway::Gateway& gateway_;
  const WorkerAgentConfig config_;
  std::uint16_t data_port_ = 0;
  std::thread thread_;

  mutable std::mutex plan_mutex_;
  PartitionPlan plan_;
  HashRing ring_;
  std::atomic<std::uint64_t> plan_epoch_{0};
  std::atomic<bool> draining_{false};

  /// Guards the five below; cv_ wakes the agent thread and LeaveAndDrain.
  std::mutex mutex_;
  std::condition_variable cv_;
  unsigned events_ = 0;
  std::uint64_t drain_epoch_ = 0;  ///< of the last kDrain
  bool drain_done_ = false;
  bool drain_ok_ = false;

  /// Last, as its reader calls OnPush. The agent thread's after Start.
  ControlChannel channel_;
};

}  // namespace mobivine::cluster
