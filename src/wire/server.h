// M-Wire server: the M-Gateway's data plane over real TCP sockets, served
// by the process's one reactor (wire/reactor.h, which draws the loop).
//
// Each reactor loop runs a DataPlane handler. A decoded frame (string
// fields are views into the input ring — zero copy) passes admission —
// body decode and the M-Cluster ownership fence — and goes to the
// gateway's borrowed-request Submit, which materializes only if the
// request is admitted (a shed costs no string allocation). The shard
// worker that completes it encodes the response into a pooled buffer and
// hands it to Reactor::Send. kSubscribe frames open M-Push subscriptions
// whose events the flush hook pumps into the same output run.
//
// Failure containment: framing violations (bad magic/version, oversized
// length prefix, CRC mismatch, undecodable request id) close the
// connection; a well-framed request whose body breaks a rule is answered
// with a typed kMalformedRequest response and the connection lives on.
// The frame-mutation fuzz suite in tests/wire_test.cpp runs under ASan.
//
// Backpressure is the handler's watermarks: output above the high one
// stops reading the socket until it drains below the low one (TCP's
// window then pushes back on the peer); what is admitted still faces the
// gateway's shed/deadline admission, so neither buffers unboundedly.
//
// Observability: wire.read / wire.decode / wire.dispatch / wire.write
// M-Scope spans on the loop threads ("wire-loop-N") and a "wire."
// MetricsRegistry source: the reactor's and the data plane's table rows
// and the frame-buffer pool's counters and parked-bytes gauge.
//
// Shutdown contract: Stop() (or the destructor) closes every socket and
// joins the loops, but gateway completions for already-dispatched
// requests may still arrive afterwards — they hold the connection alive
// via shared_ptr and drop their bytes. Stop order is server.Stop() then
// gateway.Stop() then destruction of either.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gateway/gateway.h"
#include "support/counters.h"
#include "support/metrics.h"
#include "wire/reactor.h"

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

/// The data plane's rows: X(field, metric name, doc[, kind]). One relaxed
/// atomic each, snapshotable while serving (support/counters.h); the
/// transport rows are the reactor's (MOBIVINE_REACTOR_COUNTERS).
#define MOBIVINE_WIRE_COUNTERS(X)                                            \
  X(decode_errors, "decode_errors", "kMalformedRequest responses")           \
  X(wrong_worker, "wrong_worker", "requests fenced by the ownership filter") \
  X(unsupported_frames, "unsupported_frames",                                \
    "unknown frame types answered")                                          \
  X(requests_dispatched, "requests_dispatched", "handed to gateway::Submit") \
  X(scripts_dispatched, "scripts_dispatched",                                \
    "kScript frames handed to gateway::SubmitScript")                        \
  X(subscriptions_opened, "push_subscriptions_opened",                       \
    "M-Push subscriptions opened")                                           \
  X(subscriptions_closed, "push_subscriptions_closed",                       \
    "M-Push subscriptions closed")                                           \
  X(subscriptions_open, "push_subscriptions_active",                         \
    "M-Push subscriptions open now", kGauge)                                 \
  X(events_out, "push_events_out", "kEvent data frames queued")              \
  X(events_dropped, "push_events_dropped",                                   \
    "shed from per-subscription queues")                                     \
  X(gap_markers, "push_gap_markers", "kEventsDropped frames emitted")

struct WireStatsSnapshot : ReactorStats {
  MOBIVINE_WIRE_COUNTERS(MOBIVINE_COUNTER_FIELD)
  // Frame-buffer pool (support::BufferPool::WirePool()), shared with the
  // wire client in-process. `pool_misses / requests_dispatched` is the
  // allocs-per-request figure — 0 at steady state.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;  ///< fresh heap allocations
  std::uint64_t pool_returns = 0;
  std::uint64_t pool_trims = 0;  ///< dropped: class full or oversized
  std::uint64_t pool_parked_bytes = 0;  ///< gauge: at most 4.125 MiB

  [[nodiscard]] std::uint64_t subscriptions_active() const {
    return subscriptions_open;
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

  /// Bind 127.0.0.1, listen, start the event loops. False on
  /// socket-layer failure (`error` says why). Not restartable.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close the listener and every connection, join all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (valid after Start succeeds).
  [[nodiscard]] std::uint16_t port() const { return reactor_.port(); }

  [[nodiscard]] WireStatsSnapshot Stats() const;

  /// Register as one M-Scope metrics source under `prefix`. Drop the
  /// registration before destroying the server.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry, std::string prefix = "wire.") const;

 private:
  class DataPlane;
  using Counters = support::CounterSet<WireCounter, kWireCounters>;

  gateway::Gateway& gateway_;
  const WireServerConfig config_;
  /// Shared (not unique) so feed listeners that outlive the server can
  /// keep the counters alive (see shutdown contract).
  std::shared_ptr<Counters> stats_;
  /// Subscription ids are server-wide unique (loops allocate from one
  /// counter) so a client can demux event frames across connections.
  std::atomic<std::uint64_t> next_subscription_id_{1};
  std::vector<std::unique_ptr<DataPlane>> planes_;  ///< one per loop
  Reactor reactor_;  ///< last: its loops run handlers over the above
};

}  // namespace mobivine::wire
