// M-Wire server: a non-blocking epoll reactor front-end that serves the
// M-Gateway over real TCP sockets.
//
// Architecture — one acceptor, N event loops:
//
//     acceptor thread ── accept4 ──▶ round-robin ──▶ event loop 0..N-1
//     event loop: epoll_wait → edge-triggered reads landing directly in
//       per-connection rings → DecodeFrame/DecodeRequestView (string
//       fields are views into the ring — zero copy) → the gateway's
//       borrowed-request Submit, which materializes only if the request
//       is admitted (shed responses cost no string allocation)…
//       completion fires on a gateway shard worker, which encodes the
//       response into a pooled buffer, moves it onto the connection's
//       bounded output queue and pokes the loop's eventfd; the loop
//       drains the whole run with one writev, returning each buffer to
//       the pool as it completes. EPOLLOUT is armed only when the kernel
//       refuses bytes and dropped as soon as the run empties, so a
//       keeping-up connection performs no epoll_ctl at all.
//
// Failure containment: framing violations (bad magic/version, oversized
// length prefix, CRC mismatch, undecodable request id) close the
// connection; a well-framed request whose body breaks a rule is answered
// with a typed kMalformedRequest response and the connection lives on.
// Either way the server never crashes or leaks on hostile input — the
// frame-mutation fuzz suite in tests/wire_test.cpp runs under ASan.
//
// Backpressure: per-connection output above the high watermark stops
// reading that socket until it drains below the low watermark (TCP's
// receive window then pushes back on the peer). What the server does
// admit still faces the gateway's shed/deadline admission — the two
// compose; neither buffers unboundedly.
//
// Observability: wire.read / wire.decode / wire.dispatch / wire.write
// M-Scope spans on the loop threads (named "wire-loop-N"), plus a
// "wire." MetricsRegistry source: every MOBIVINE_WIRE_COUNTERS row, the
// two *_active derivations and the frame-buffer pool's counters.
//
// Shutdown contract: Stop() (or the destructor) closes every socket and
// joins the threads, but gateway completions for already-dispatched
// requests may still arrive afterwards — they hold the connection alive
// via shared_ptr and drop their bytes. The WireServer object itself must
// therefore outlive the Gateway's in-flight work: stop order is
// server.Stop() then gateway.Stop() then destruction of either.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gateway/gateway.h"
#include "support/counters.h"
#include "support/metrics.h"

namespace mobivine::wire {

struct WireServerConfig {
  /// Loopback only: this is a front-end for benches/tests on one host,
  /// not an internet-facing listener.
  std::uint16_t port = 0;  ///< 0: kernel-assigned; read back via port()
  int event_loops = 2;
  /// Stop reading a connection when its queued-but-unsent output reaches
  /// this; resume below `output_low_watermark`.
  std::size_t output_high_watermark = 256 * 1024;
  std::size_t output_low_watermark = 64 * 1024;
  /// M-Cluster routing fence. When set, every decoded request's client id
  /// is checked before dispatch: a false return means this process does
  /// not own that id under the current partition plan, and the request is
  /// answered in-band with kWrongWorker carrying `*plan_epoch` (decimal,
  /// in the body) so the client can refresh its plan and re-route. Called
  /// from loop threads — must be cheap and thread-safe (the cluster
  /// worker agent backs it with an atomic plan snapshot). Null = own
  /// everything (standalone server).
  std::function<bool(std::uint64_t client_id, std::uint64_t* plan_epoch)>
      ownership;
  /// M-Push: events queued per subscription awaiting the loop's pump.
  /// A subscriber that cannot drain this fast sheds oldest-first and
  /// receives a typed kEventsDropped gap marker instead of stalling the
  /// shard's publish path or the connection's request/response traffic.
  std::size_t push_queue_capacity = 256;
};

/// The wire server's event counters: X(field, metric name, doc). One
/// relaxed atomic each, snapshotable while serving (support/counters.h).
#define MOBIVINE_WIRE_COUNTERS(X)                                            \
  X(connections_accepted, "connections_accepted", "connections accepted")    \
  X(connections_closed, "connections_closed", "connections closed")          \
  X(frames_in, "frames_in", "well-formed frames decoded")                    \
  X(frames_out, "frames_out", "response frames queued")                      \
  X(bytes_in, "bytes_in", "bytes read from sockets")                         \
  X(bytes_out, "bytes_out", "bytes written to sockets")                      \
  X(decode_errors, "decode_errors", "kMalformedRequest responses")           \
  X(protocol_errors, "protocol_errors",                                      \
    "framing errors (connection closed)")                                    \
  X(wrong_worker, "wrong_worker", "requests fenced by the ownership filter") \
  X(unsupported_frames, "unsupported_frames",                                \
    "unknown frame types answered")                                          \
  X(backpressure_stalls, "backpressure_stalls",                              \
    "read pauses at the watermark")                                          \
  X(requests_dispatched, "requests_dispatched", "handed to gateway::Submit") \
  X(scripts_dispatched, "scripts_dispatched",                                \
    "kScript frames handed to gateway::SubmitScript")                        \
  X(writev_calls, "writev_calls", "scatter-gather flush syscalls")           \
  X(epollout_arms, "epollout_arms", "EPOLLOUT registrations (EAGAIN only)")  \
  X(subscriptions_opened, "push_subscriptions_opened",                       \
    "M-Push subscriptions opened")                                           \
  X(subscriptions_closed, "push_subscriptions_closed",                       \
    "M-Push subscriptions closed")                                           \
  X(events_out, "push_events_out", "kEvent data frames queued")              \
  X(events_dropped, "push_events_dropped",                                   \
    "shed from per-subscription queues")                                     \
  X(gap_markers, "push_gap_markers", "kEventsDropped frames emitted")

struct WireStatsSnapshot {
  MOBIVINE_WIRE_COUNTERS(MOBIVINE_COUNTER_FIELD)
  // Frame-buffer pool (support::BufferPool::WirePool()), shared with the
  // wire client in-process. `pool_misses / requests_dispatched` is the
  // allocs-per-request figure — 0 at steady state.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;  ///< fresh heap allocations
  std::uint64_t pool_returns = 0;
  std::uint64_t pool_trims = 0;  ///< dropped: class full or oversized

  [[nodiscard]] std::uint64_t subscriptions_active() const {
    return subscriptions_opened - subscriptions_closed;
  }

  [[nodiscard]] std::uint64_t connections_active() const {
    return connections_accepted - connections_closed;
  }
};

enum class WireCounter : std::size_t {
  MOBIVINE_WIRE_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kWireCounters =
    MOBIVINE_COUNTER_ROWS(WireStatsSnapshot, MOBIVINE_WIRE_COUNTERS);

class WireServer {
 public:
  /// The gateway must outlive this server's Stop() (requests dispatch
  /// into it from loop threads until every connection is closed).
  explicit WireServer(gateway::Gateway& gateway, WireServerConfig config = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Bind 127.0.0.1, listen, start the acceptor and event loops. False
  /// on socket-layer failure (`error` says why). Not restartable.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close the listener and every connection, join all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (valid after Start succeeds).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] WireStatsSnapshot Stats() const;

  /// Register as one M-Scope metrics source under `prefix`. Drop the
  /// registration before destroying the server.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry, std::string prefix = "wire.") const;

 private:
  class EventLoop;
  using Counters = support::CounterSet<WireCounter, kWireCounters>;

  void AcceptLoop();

  gateway::Gateway& gateway_;
  const WireServerConfig config_;
  /// Shared (not unique) so in-flight completion callbacks can keep the
  /// counters alive past the server object (see shutdown contract).
  std::shared_ptr<Counters> stats_;
  std::vector<std::shared_ptr<EventLoop>> loops_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  int stop_eventfd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_loop_{0};
  /// Subscription ids are server-wide unique (loops allocate from one
  /// counter) so a client can demux event frames across connections.
  std::atomic<std::uint64_t> next_subscription_id_{1};
};

}  // namespace mobivine::wire
