// M-Cluster controller: the membership + plan authority, one process per
// cluster.
//
// The controller serves on the process's one reactor (wire/reactor.h):
// a single loop thread ("cluster-ctrl") owns a loopback listener and
// every control connection, so membership is single-threaded. The
// controller is that loop's ConnectionHandler: it hears each decoded
// frame, each close and the reactor's tick (every heartbeat_interval_us
// / 2), which runs the silence sweep. Workers register and heartbeat over
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
//    kernel tells us first — a SIGKILLed worker is detected in one loop
//    round, long before its heartbeats would time out);
//  * heartbeat silence sweeps alive -> suspect -> dead at the
//    MembershipConfig thresholds (catches hangs, not just exits).
//
// Graceful handover: a worker's kLeave removes it from the plan, acks,
// then sends kDrain back on the same connection; the worker fences new
// traffic (ownership filter), drains its gateway, kDrainAcks and exits.
//
// Writes are never allowed to wedge the control plane: control frames
// are tiny and queue on the reactor's non-blocking connections, and a
// peer whose unsent output passes max_output_backlog is dropped (the
// controller's policy; the data plane pauses reading instead).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/control.h"
#include "cluster/membership.h"
#include "support/counters.h"
#include "support/metrics.h"
#include "wire/reactor.h"

namespace mobivine::cluster {

struct ControllerConfig {
  std::uint16_t port = 0;  ///< 0: kernel-assigned; read back via port()
  MembershipConfig membership;
  /// Drop a control peer whose unread output backlog exceeds this.
  std::size_t max_output_backlog = 1u << 20;
};

/// The controller's rows: X(field, metric name, doc[, kind]).
#define MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(X)                           \
  X(epoch, "epoch", "current plan epoch", kGauge)                         \
  X(workers_alive, "workers_alive", "alive members", kGauge)              \
  X(workers_suspect, "workers_suspect", "suspect members", kGauge)        \
  X(connections, "connections", "control connections open", kGauge)      \
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
    "framing errors and undecodable/invalid control frames")

/// Cross-thread-readable controller state.
struct ControllerStatsSnapshot {
  MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(MOBIVINE_COUNTER_FIELD)
};

enum class ControllerCounter : std::size_t {
  MOBIVINE_CLUSTER_CONTROLLER_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kControllerCounters = MOBIVINE_COUNTER_ROWS(
    ControllerStatsSnapshot, MOBIVINE_CLUSTER_CONTROLLER_COUNTERS);

/// The controller is its reactor loop's handler (privately: the reactor
/// is an implementation detail).
class Controller : private wire::ConnectionHandler {
 public:
  explicit Controller(ControllerConfig config = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Bind 127.0.0.1, listen, start the control loop. False on socket
  /// failure (`error` says why). Not restartable.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close the listener and every control connection (closes during
  /// Stop are not deaths), join the loop. Idempotent; the destructor
  /// calls it.
  void Stop();

  [[nodiscard]] std::uint16_t port() const { return reactor_.port(); }

  [[nodiscard]] ControllerStatsSnapshot Stats() const;

  /// Register as one M-Scope metrics source under `prefix` (the
  /// `cluster.` section in scripts/mscope_schema.json). Drop the
  /// registration before destroying the controller.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry,
      std::string prefix = "cluster.") const;

 private:
  /// What the controller knows of one control connection.
  struct Peer {
    std::shared_ptr<wire::Connection> conn;
    std::uint64_t worker_id = 0;  ///< nonzero after a successful kRegister
    bool subscribed = false;      ///< receives unsolicited kPlanPush
  };

  // The handler calls, all on the one loop thread: a frame, a close (a
  // registered worker's is a death), the heartbeat sweep.
  bool OnFrame(const std::shared_ptr<wire::Connection>& conn,
               const wire::FrameView& frame) override;
  void OnClose(const std::shared_ptr<wire::Connection>& conn) override;
  void OnTick() override;

  void HandleControl(Peer& peer, const ControlMessage& message);

  void SendTo(Peer& peer, const ControlMessage& message);
  /// Push the plan to every subscriber but `except`.
  void BroadcastPlan(const Peer* except = nullptr);
  void PublishGauges();

  const ControllerConfig config_;
  Membership membership_;
  support::CounterSet<ControllerCounter, kControllerCounters> counters_;
  /// Keyed by connection; shared so a handler call keeps its peer across
  /// a close of that peer's connection.
  std::unordered_map<const wire::Connection*, std::shared_ptr<Peer>> peers_;
  std::atomic<bool> stopping_{false};
  wire::Reactor reactor_;  ///< last: its loop runs the handler over the above
};

}  // namespace mobivine::cluster
