// M-Cluster client: plan-aware routing on top of wire::WireClient.
//
// The client fetches the partition plan from the controller once
// (kPlanGet), then routes every request DIRECTLY to the owning worker —
// the controller is never on the data path. Routing is the same
// consistent-hash lookup the workers run (cluster/plan.h), keyed on
// WireRequest::client_id, so in steady state a request hits the right
// worker on the first try and costs exactly what a plain WireClient
// call costs plus one binary search.
//
// Staleness is repaired in-band, not by polling: a worker that no longer
// owns the key answers WireStatus::kWrongWorker with ITS plan epoch as
// the body, and the client refreshes until it holds at least that epoch,
// re-routes, and retries — a bounded loop (RouteOptions::max_attempts),
// with a small backoff once the plan stops changing (covers the window
// where a worker has fenced but the controller has not yet republished).
// A dead worker surfaces as kTransportError; same loop, plus the
// connection is dropped so the next attempt re-dials.
//
// Plans are pulled: the client learns one only from its own kPlanGet's
// reply, and its control channel (no push handler) drops the controller's
// unsolicited kPlanPush frames. A refresh's reply is never older than an
// earlier push, and applying pushes live would move repairs from the
// first kWrongWorker bounce to the moment the plan changes.
//
// Connections are cached per worker id and shared (WireClient pipelines
// freely). A dropped connection is never Close()d from a reader-thread
// callback (WireClient forbids it — Close joins the reader); it moves to
// a graveyard that user threads drain on their next call. Submit() is
// fully pipelined and performs the same bounded re-route from the
// callback path, so a closed-loop bench window keeps its depth across a
// plan change.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/control.h"
#include "cluster/plan.h"
#include "support/counters.h"
#include "wire/client.h"
#include "wire/protocol.h"

namespace mobivine::cluster {

struct ClientConfig {
  std::uint16_t controller_port = 0;
  /// Dialing the controller and workers.
  wire::ConnectOptions connect{.connect_timeout =
                                   std::chrono::microseconds(2'000'000),
                               .max_attempts = 3,
                               .initial_backoff =
                                   std::chrono::microseconds(25'000)};
  /// Route attempts per request before giving up (first try included).
  int max_attempts = 8;
};

/// The routing client's event counters: X(field, metric name, doc).
#define MOBIVINE_CLUSTER_CLIENT_COUNTERS(X)                                \
  X(calls, "calls", "routed requests and scripts submitted")               \
  X(wrong_worker_retries, "wrong_worker_retries",                          \
    "re-routes after a kWrongWorker answer")                               \
  X(transport_retries, "transport_retries",                                \
    "re-routes after a dead or unreachable worker")                        \
  X(plan_refreshes, "plan_refreshes", "plan fetches from the controller")  \
  X(exhausted, "exhausted", "requests that ran out of attempts")           \
  X(push_subscribes, "push_subscribes", "Subscribe() calls")               \
  X(push_resubscribes, "push_resubscribes",                                \
    "subscription repairs: wrong worker / death")

struct ClientStats {
  MOBIVINE_CLUSTER_CLIENT_COUNTERS(MOBIVINE_COUNTER_FIELD)
};

enum class ClientCounter : std::size_t {
  MOBIVINE_CLUSTER_CLIENT_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kClientCounters =
    MOBIVINE_COUNTER_ROWS(ClientStats, MOBIVINE_CLUSTER_CLIENT_COUNTERS);

/// Parse a kWrongWorker response body (the worker's plan epoch as a
/// decimal string). STRICT: returns 0 — "unknown; refresh to anything
/// newer" — unless the body is non-empty, entirely ASCII digits, and
/// fits in 64 bits. Empty, garbage, trailing bytes and overflow all map
/// to 0: an overflow lazily parsed as ULLONG_MAX would demand an epoch
/// no controller will ever publish and burn the whole retry budget on
/// futile refreshes. Exposed for tests and the malformed-body fuzzer.
[[nodiscard]] std::uint64_t ParseWrongWorkerEpoch(const std::string& body);

class Client {
 public:
  using Callback = wire::WireClient::Callback;

  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the controller and fetch the initial plan. False (with
  /// `error`) when the controller is unreachable or has no members yet.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close every worker connection and the control channel. Idempotent.
  /// In-flight Submit callbacks fire with kTransportError.
  void Stop();

  /// Synchronous routed call. False only when every attempt failed;
  /// protocol-level errors (kInvalidRequest etc.) come back as response
  /// statuses on the first try — only kWrongWorker and kTransportError
  /// are retried.
  bool Call(const wire::WireRequest& request, wire::WireResponse* response);

  /// Pipelined routed send: the callback fires exactly once, from a
  /// worker connection's reader thread, after internal re-routing. Keep
  /// callbacks short (same contract as WireClient::Submit).
  bool Submit(const wire::WireRequest& request, Callback callback);

  /// M-Script: synchronous routed composite invocation. The script is
  /// plan-routed by its client id (it executes against the owning
  /// shard's state) with the same bounded kWrongWorker / transport
  /// repair as Call(). NOTE the re-route caveat: a worker that
  /// *executed* the script and then died before answering looks like a
  /// transport failure, and the retry re-executes it — scripts are
  /// exactly-once per worker, at-least-once across repairs. Composites
  /// with side effects should be written idempotently (or submitted with
  /// a client-side dedup key in args) when that matters.
  bool CallScript(const wire::WireScriptRequest& script,
                  wire::WireResponse* response);

  /// Pipelined routed script send; same contract (and the same re-route
  /// caveat) as CallScript, callback-shaped like Submit().
  bool SubmitScript(const wire::WireScriptRequest& script, Callback callback);

  /// M-Push: open a routed subscription for `client_id`, starting after
  /// `cursor` (0 = from the beginning of what the owner's shard feed
  /// still retains). The stream follows the partition plan: a
  /// kWrongWorker ack (epoch carried in the ack's start_cursor varint —
  /// no body parsing) refreshes the plan and re-subscribes against the
  /// new owner; a dead worker (transport ack, or the wire client's
  /// synthetic cursor-0 gap marker) drops the connection and
  /// re-subscribes the same way. Every repair re-subscribes
  /// kFromCursor with the LAST cursor the stream delivered, so the new
  /// owner's replay ring covers the failover window — anything it no
  /// longer retains arrives as a typed kEventsDropped gap marker, never
  /// silent loss. `on_event` runs on worker-connection reader threads.
  /// `on_ack` fires exactly once, with the first kOk ack or with the
  /// error that exhausted the route attempts; if the stream dies later
  /// and repair exhausts its attempts, `on_event` receives one final
  /// synthetic kEventsDropped event with cursor == 0. Returns true when
  /// the subscription entered the routed-retry machinery (the eventual
  /// outcome arrives via the callbacks).
  bool Subscribe(std::uint64_t client_id, wire::PushTopic topic,
                 std::uint64_t cursor, wire::WireClient::EventHandler on_event,
                 wire::WireClient::AckCallback on_ack);

  /// Routed batch: resolve every request's owner, then issue ONE
  /// coalesced write per worker connection
  /// (WireClient::SubmitBatch) — without this, fanning a request
  /// stream out over N workers trades away the write batching that
  /// dominates loopback throughput. `callback` fires exactly once per
  /// request (any order, reader threads), and each request keeps the
  /// same bounded re-route as Submit(). Returns requests.size().
  std::size_t SubmitBatch(const std::vector<wire::WireRequest>& requests,
                          const Callback& callback);

  [[nodiscard]] std::uint64_t plan_epoch() const {
    return plan_epoch_.load(std::memory_order_acquire);
  }
  /// The worker id `client_id` routes to under the currently held plan
  /// (0 when no plan). Locality introspection: callers that batch work
  /// per backend — or pin per-connection pipelining windows — group by
  /// this without a round trip.
  [[nodiscard]] std::uint64_t OwnerOf(std::uint64_t client_id) const;
  [[nodiscard]] ClientStats Stats() const;

 private:
  struct Route {
    std::shared_ptr<wire::WireClient> conn;
    std::uint64_t worker_id = 0;
    std::uint64_t epoch = 0;
  };

  /// Resolve client_id -> (worker, live connection) under the current
  /// plan, dialing if needed. False when the owner is unreachable (the
  /// caller refreshes and retries).
  bool Resolve(std::uint64_t client_id, Route* route);
  /// Fetch plans from the controller until epoch >= min_epoch or the
  /// control deadline passes. min_epoch 0 = any newer plan is fine.
  bool RefreshPlanAtLeast(std::uint64_t min_epoch);
  void ApplyPlan(const PartitionPlan& plan);
  /// Drop a (presumed dead) connection: unmap it and park it in the
  /// graveyard. Safe from reader-thread callbacks.
  void DropConn(std::uint64_t worker_id,
                const std::shared_ptr<wire::WireClient>& conn);
  /// Close + destroy parked connections. User threads only.
  void DrainGraveyard();
  /// Begin routed attempt `*attempt` for `client_id`: pace a retry,
  /// then resolve the owner, counting each failed resolve as a transport
  /// retry (after a plan refresh) and moving on to the next attempt.
  /// False when the client is stopping or attempts ran out (counted in
  /// `exhausted`).
  bool RouteAttempt(std::uint64_t client_id, int* attempt, Route* route);
  /// The repair decision every routed frame shares after an attempt on
  /// `route` failed with `status`: kWrongWorker refreshes the plan past
  /// `epoch`, kTransportError drops the connection and refreshes. True
  /// when the frame should be retried; false for any other status and
  /// while stopping.
  bool Repaired(wire::WireStatus status, std::uint64_t epoch,
                const Route& route);
  /// One asynchronous attempt for a request or script frame; re-routes
  /// from the callback until Repaired says stop or attempts run out.
  template <typename Frame>
  void SubmitAttempt(const Frame& frame, int attempt, Callback callback);
  /// The completion wrapper SubmitAttempt parks on `route`'s connection:
  /// passes terminal replies through to `callback`, re-enters
  /// SubmitAttempt(attempt + 1) when Repaired.
  template <typename Frame>
  Callback RetryCallback(const Frame& frame, int attempt, Callback callback,
                         Route route);

  /// One routed subscription's cross-repair state.
  struct PushSub;
  /// One subscribe attempt; kWrongWorker / transport failures re-enter
  /// with attempt + 1 (bounded by max_attempts), always carrying the
  /// last cursor the stream delivered.
  void SubscribeAttempt(std::shared_ptr<PushSub> sub, int attempt);
  /// Terminal failure: fire the user's ack exactly once, or — when the
  /// stream was already live — one synthetic cursor-0 gap marker.
  void FailSubscription(const std::shared_ptr<PushSub>& sub,
                        wire::WireStatus status);

  const ClientConfig config_;

  std::mutex control_mutex_;  ///< serializes the ControlChannel
  ControlChannel control_;    ///< no push handler: plans are pulled

  mutable std::mutex plan_mutex_;
  PartitionPlan plan_;
  HashRing ring_;
  std::atomic<std::uint64_t> plan_epoch_{0};

  std::mutex conns_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<wire::WireClient>> conns_;
  std::vector<std::shared_ptr<wire::WireClient>> graveyard_;

  std::atomic<bool> started_{false};
  std::atomic<bool> closing_{false};

  support::CounterSet<ClientCounter, kClientCounters> counters_;
};

}  // namespace mobivine::cluster
