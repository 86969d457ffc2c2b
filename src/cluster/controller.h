// M-Cluster controller: the membership + plan authority, one process per
// cluster.
//
// A single poll-loop thread ("cluster-ctrl") owns a loopback listener
// and every control connection. Workers register and heartbeat over
// FrameType::kControl; the Membership state machine (cluster/
// membership.h) turns those into health transitions on the wall clock,
// and every plan-changing transition — join, leave, death, replace —
// bumps the plan epoch and broadcasts a kPlanPush to every subscriber
// (registered workers and any client that sent kPlanGet). Routing is
// never proxied here: the controller hands out plans; request bytes flow
// client -> owning worker directly.
//
// Death detection is two-tier, both on the controller's clock:
//  * connection close of a registered worker => immediate death (the
//    kernel tells us first — a SIGKILLed worker is detected in one poll
//    round, long before its heartbeats would time out);
//  * heartbeat silence sweeps alive -> suspect -> dead at the
//    MembershipConfig thresholds (catches hangs, not just exits).
//
// Graceful handover: a worker's kLeave removes it from the plan, acks,
// then sends kDrain back on the same connection; the worker fences new
// traffic (ownership filter), drains its gateway, kDrainAcks and exits.
//
// Writes are never allowed to wedge the control plane: connection
// sockets are non-blocking with small per-connection output buffers
// (control frames are tiny); a peer that stops reading past the cap is
// dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/control.h"
#include "cluster/membership.h"
#include "support/counters.h"
#include "support/metrics.h"

namespace mobivine::cluster {

struct ControllerConfig {
  std::uint16_t port = 0;  ///< 0: kernel-assigned; read back via port()
  MembershipConfig membership;
  /// Drop a control peer whose unread output backlog exceeds this.
  std::size_t max_output_backlog = 1u << 20;
};

/// The controller's event counters: X(field, metric name, doc).
#define MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(X)                           \
  X(registers, "registers", "kJoined + kRejoined + kReplaced")            \
  X(rejoins, "rejoins", "a known worker id registered again")             \
  X(replaces, "replaces", "a live worker id re-registered (stale fenced)") \
  X(heartbeats, "heartbeats", "heartbeat frames received")                \
  X(plan_pushes, "plan_pushes", "kPlanPush frames sent (incl. replies)")  \
  X(leaves, "leaves", "graceful departures (kLeave)")                     \
  X(deaths, "deaths", "by silence sweep or connection close")             \
  X(drains_sent, "drains_sent", "kDrain frames sent on leave")            \
  X(drain_acks, "drain_acks", "workers' kDrainAck quiescence acks")       \
  X(control_errors, "control_errors",                                     \
    "undecodable/invalid control frames")

/// Cross-thread-readable controller state: four gauges, then the counter
/// table.
struct ControllerStatsSnapshot {
  std::uint64_t epoch = 0;
  std::uint64_t workers_alive = 0;
  std::uint64_t workers_suspect = 0;
  std::uint64_t connections = 0;  ///< control connections currently open
  MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(MOBIVINE_COUNTER_FIELD)
};

enum class ControllerCounter : std::size_t {
  MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kControllerCounters = MOBIVINE_COUNTER_ROWS(
    ControllerStatsSnapshot, MOBIVINE_CLUSTER_CONTROLLER_COUNTERS);

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Bind 127.0.0.1, listen, start the control loop. False on socket
  /// failure (`error` says why). Not restartable.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close the listener and every control connection, join the loop.
  /// Idempotent; the destructor calls it.
  void Stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] ControllerStatsSnapshot Stats() const;

  /// Register as one M-Scope metrics source under `prefix` (the
  /// `cluster.` section in scripts/mscope_schema.json). Drop the
  /// registration before destroying the controller.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry,
      std::string prefix = "cluster.") const;

 private:
  struct Conn;

  void Run();
  void AcceptNew();
  void HandleReadable(Conn& conn);
  void HandleFrame(Conn& conn, const wire::FrameView& frame);
  void HandleControl(Conn& conn, const ControlMessage& message);
  void SendTo(Conn& conn, const ControlMessage& message);
  void BroadcastPlan();
  void CloseConn(Conn& conn);
  /// Flush a connection's buffered output; false when the conn died.
  bool FlushConn(Conn& conn);

  const ControllerConfig config_;
  Membership membership_;
  support::CounterSet<ControllerCounter, kControllerCounters> counters_;
  // Gauges, set by the control loop and read by Stats() from any thread.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> workers_alive_{0};
  std::atomic<std::uint64_t> workers_suspect_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread thread_;
  int listen_fd_ = -1;
  int stop_eventfd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::uint8_t> encode_scratch_;
};

}  // namespace mobivine::cluster
