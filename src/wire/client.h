// M-Wire client: a blocking-socket library for talking to a WireServer.
//
// Two modes share one connection:
//   - Call()   — synchronous request/response, for tests and simple tools.
//   - Submit() — pipelined async: assigns a request id, sends without
//     waiting, and fires the callback from the client's reader thread
//     when the matching response frame arrives. Many requests can be in
//     flight at once (the server pipelines freely), which is what the
//     `bench_scenarios wire` closed-loop windows are built on.
//
// Request ids are client-side correlation tokens, assigned monotonically
// here; any id already present in `request.request_id` is ignored (the
// caller's struct is never mutated — the id the server echoes is the one
// this client stamped into the encoded frame).
//
// Encoding goes through the shared wire buffer pool
// (support::BufferPool::WirePool()): requests are encoded once, straight
// from the caller's struct into a pooled frame buffer — no per-request
// WireRequest copy, no per-frame heap allocation at steady state.
//
// Failure semantics: when the connection dies (peer close, socket error,
// undecodable response frame) every outstanding callback fires exactly
// once with WireStatus::kTransportError and an empty body, and later
// Submit/Call attempts fail fast. Callbacks run on the reader thread —
// keep them short; a callback must not call Close() (deadlock: Close
// joins the reader).
//
// Frames without an owner — a kControl frame, or a kResponse whose id
// has no pending entry — go to the FrameHandler given at Connect (none:
// dropped), on the reader thread, in arrival order. SendFrames() writes
// frames the caller encoded. cluster::ControlChannel is these two.
//
// M-Push: Subscribe() opens a server-initiated event stream on the same
// connection. The ack callback fires exactly once (the server's typed
// kSubscribeAck, or kTransportError); after a kOk ack the event handler
// receives every kEvent frame for that subscription — data, typed
// kEventsDropped gap markers, kEndOfDrain — in arrival order on the
// reader thread. When the connection dies each live subscription's
// handler receives one final synthetic kEventsDropped event with
// cursor == 0 ("the stream is gone — re-subscribe with your last
// cursor"), distinguishable from real shed ranges, whose cursors are
// always >= 1.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "wire/protocol.h"

namespace mobivine::wire {

/// Bounded connect behavior: a hard per-attempt timeout plus optional
/// retries under exponential backoff. The zero-argument default keeps
/// the old feel (one attempt) but bounded at 2 s instead of the kernel's
/// minutes-long SYN patience.
struct ConnectOptions {
  std::chrono::microseconds connect_timeout{2'000'000};
  int max_attempts = 1;  ///< total attempts (>= 1)
  std::chrono::microseconds initial_backoff{25'000};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds max_backoff{1'000'000};
};

class WireClient {
 public:
  using Callback = std::function<void(const WireResponse&)>;
  /// Hears each frame without an owner, valid during the call only, and
  /// a null frame once when the connection dies. False drops the
  /// connection, as a malformed frame would. Like a callback, it must
  /// not call Close().
  using FrameHandler = std::function<bool(const FrameView* frame)>;

  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connect to 127.0.0.1:port and start the reader thread. False on
  /// failure (`error` says why). Reusable: after Close() — or after the
  /// connection died under us — calling Connect again first reclaims the
  /// old reader/fd (failing any still-outstanding callbacks with
  /// kTransportError) and then dials fresh. Callers serialize Connect
  /// against their own Submit/Call use; an *already connected* client
  /// refuses with "already connected".
  [[nodiscard]] bool Connect(std::uint16_t port, std::string* error = nullptr);

  /// Connect with explicit timeout/retry/backoff behavior.
  [[nodiscard]] bool Connect(std::uint16_t port, const ConnectOptions& options,
                             std::string* error = nullptr,
                             FrameHandler on_unowned = nullptr);

  /// Write already-encoded frames whole, on Submit's write path.
  bool SendFrames(const std::vector<std::uint8_t>& frames);

  /// Pipelined async send. Returns false (callback fired with
  /// kTransportError) if the connection is down or the send fails. A
  /// request whose payload is over kMaxFramePayload is not sent: false,
  /// with the callback fired kMalformedRequest ("payload length over
  /// cap"), and the connection lives on.
  bool Submit(const WireRequest& request, Callback callback);

  /// Pipelined batch: encode every request into one pooled buffer and
  /// push it with a single write — the syscall-per-request cost is what
  /// dominates small-frame loopback throughput. `callback` fires once
  /// per response (any order). Returns the number of requests actually
  /// sent; on a transport failure the unsent remainder's callbacks fire
  /// with kTransportError. A request over the frame cap is refused alone,
  /// as in Submit, and the rest of the batch is sent.
  std::size_t SubmitBatch(const std::vector<WireRequest>& requests,
                          const Callback& callback);

  /// Per-request-callback variant of the batch: same single coalesced
  /// write, but `callbacks[i]` completes `requests[i]` (the two vectors
  /// must be the same length). This is what a routing layer needs —
  /// batch the wire write per destination while every request keeps its
  /// own retry wrapper.
  std::size_t SubmitBatch(const std::vector<WireRequest>& requests,
                          std::vector<Callback> callbacks);

  /// Synchronous round trip: Submit + wait. Returns false only on
  /// transport failure; protocol-level errors come back as `response`
  /// statuses with the connection intact.
  bool Call(WireRequest request, WireResponse* response);

  // ---- M-Script composite invocations ----

  /// Pipelined async script send (one kScript frame; any id in
  /// `script.request_id` is ignored — this client stamps its own). The
  /// answer arrives as an ordinary kResponse frame: kOk with the result
  /// display string as the body, kScriptError with the thrown value's
  /// display string, or a normal status band (deadline, overload,
  /// malformed). Same transport-failure and frame-cap contract as Submit.
  bool SubmitScript(const WireScriptRequest& script, Callback callback);

  /// Synchronous script round trip, mirroring Call().
  bool CallScript(const WireScriptRequest& script, WireResponse* response);

  // ---- M-Push subscriptions ----

  using EventHandler = std::function<void(const WireEvent&)>;
  using AckCallback = std::function<void(const WireSubscribeAck&)>;

  /// Open a subscription (`subscribe.request_id` is ignored — this
  /// client stamps its own correlation id). `on_ack` fires exactly once:
  /// the server's kSubscribeAck, or kTransportError. On a kOk ack the
  /// handler is installed under the server-assigned subscription id
  /// before any of that subscription's events are dispatched (the server
  /// queues the ack ahead of the first event). Returns false when the
  /// send failed — `on_ack` has then already fired.
  bool Subscribe(const WireSubscribe& subscribe, EventHandler on_event,
                 AckCallback on_ack);

  /// Close a subscription by its server-assigned id. The handler stays
  /// installed until the kOk ack arrives, so events already in flight
  /// are still delivered, in order, before it.
  bool Unsubscribe(std::uint64_t subscription_id, AckCallback on_ack);

  /// Shut the socket down and join the reader thread (which fails all
  /// outstanding callbacks with kTransportError). Idempotent.
  void Close();

  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }

  /// Responses whose callbacks have not yet fired.
  [[nodiscard]] std::size_t outstanding() const;

 private:
  /// A Subscribe/Unsubscribe whose ack has not arrived yet.
  struct PendingSub {
    AckCallback ack;
    /// shared_ptr so event dispatch can copy the handle out of the map
    /// and invoke it outside mutex_ (a handler may re-enter Submit).
    std::shared_ptr<const EventHandler> handler;
    bool is_subscribe = true;
    std::uint64_t subscription_id = 0;  ///< unsubscribe: the target
  };

  /// The one send path of every frame kind. `park` runs under mutex_ and
  /// parks one completion under each id in [first, first + count); then
  /// `frames` goes out in one whole write. When the write fails, or the
  /// client is not connected, every parked completion the reader has not
  /// completed already fails here with kTransportError under its own id
  /// (`*failed` counts them). True when the write went out whole.
  template <typename Park>
  bool Send(const std::vector<std::uint8_t>& frames, std::uint64_t first,
            std::size_t count, Park&& park, std::size_t* failed = nullptr);
  /// Fire a parked completion with kTransportError under `id`.
  static void FailRequest(std::uint64_t id, const Callback& callback);
  static void FailAck(std::uint64_t id, const PendingSub& pending);

  void ReaderLoop();
  /// Hand one decoded frame to its owner. False when the frame is
  /// undecodable or the unowned-frame handler dropped the connection.
  bool Dispatch(const FrameView& frame);
  void FailAllOutstanding();
  void HandleSubscribeAck(const WireSubscribeAck& ack);
  void HandleEvent(WireEvent&& event);
  /// Under mutex_: park `callback` under `id`, reusing a recycled map
  /// node when one is available.
  void EmplacePendingLocked(std::uint64_t id, Callback&& callback);
  /// Shared body of both SubmitBatch overloads: `callback_at(i)` yields
  /// the (already wrapped) callback to park for requests[i].
  std::size_t SubmitBatchImpl(
      const std::vector<WireRequest>& requests,
      const std::function<Callback(std::size_t)>& callback_at);
  /// Take (and un-map) the callback for `id`; empty if already gone. The
  /// freed node is recycled.
  [[nodiscard]] Callback TakePending(std::uint64_t id);

  /// Atomic, and closed/reset ONLY under send_mutex_: a sender inside
  /// WriteAll holds that mutex, so teardown can race the shutdown()
  /// (harmless — the write fails with EPIPE) but never the close() —
  /// a concurrent Submit can never write into a recycled descriptor.
  std::atomic<int> fd_{-1};
  std::thread reader_;
  FrameHandler on_unowned_;  ///< set by Connect before the reader starts
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> next_id_{1};

  using PendingMap = std::unordered_map<std::uint64_t, Callback>;

  /// Two locks, never held together with send_mutex_ inner: the send
  /// path can block on a full socket buffer (server backpressure), and
  /// the reader thread must still be able to take mutex_ to complete
  /// responses — that drain is what un-sticks the server.
  mutable std::mutex mutex_;  ///< guards pending_ and free_nodes_
  std::mutex send_mutex_;     ///< serializes whole-frame writes
  PendingMap pending_;
  /// M-Push state, also under mutex_: un-acked subscribe/unsubscribe
  /// requests, and the live handler per server-assigned subscription id.
  std::unordered_map<std::uint64_t, PendingSub> pending_subs_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const EventHandler>>
      event_handlers_;
  /// Recycled pending_ nodes: completing a response extracts its node
  /// here instead of freeing it, and the next Submit reuses it — no map
  /// node allocation per request at steady state.
  std::vector<PendingMap::node_type> free_nodes_;
};

}  // namespace mobivine::wire
