#include "wire/server.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "support/buffer_pool.h"
#include "support/trace.h"
#include "wire/connection.h"
#include "wire/protocol.h"

namespace mobivine::wire {

namespace {

/// Encoded-response bytes beyond the body (header, CRC, varint fields).
constexpr std::size_t kResponseOverhead = 64;

/// Any thread: encode one kResponse straight into a pooled buffer,
/// borrowing `body` (no WireResponse::body copy, no per-frame heap
/// allocation at steady state), and send it.
void Respond(const std::shared_ptr<Connection>& conn,
             const WireResponse& response, std::string_view body) {
  if (conn->closed()) return;
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(kResponseOverhead + body.size());
  EncodeResponse(response, body, buffer.bytes());
  (void)Reactor::Send(conn, std::move(buffer));
}

}  // namespace

// ---------------------------------------------------------------------------
// DataPlane: the gateway behind one reactor loop
// ---------------------------------------------------------------------------

class WireServer::DataPlane final : public ConnectionHandler {
 public:
  explicit DataPlane(WireServer& server)
      : ConnectionHandler({server.config_.output_high_watermark,
                           server.config_.output_low_watermark}),
        server_(server) {}

  bool OnFrame(const std::shared_ptr<Connection>& conn,
               const FrameView& frame) override {
    bool fatal = false;
    switch (frame.type) {
      case FrameType::kRequest:
        HandleRequest(conn, frame, &fatal);
        break;
      case FrameType::kScript:
        HandleScript(conn, frame, &fatal);
        break;
      case FrameType::kSubscribe:
        HandleSubscribe(conn, frame, &fatal);
        break;
      case FrameType::kUnsubscribe:
        HandleUnsubscribe(conn, frame, &fatal);
        break;
      case FrameType::kResponse:
      case FrameType::kEvent:
      case FrameType::kSubscribeAck:
        // Server-to-client frame types arriving here are a direction
        // violation (not version skew — we know these types); close.
        return false;
      default: {
        // Well-framed but not a type this server implements (kControl
        // on a plain data server, or a newer revision's frame): answer
        // in-band and keep the connection — a mixed-version fleet must
        // degrade to typed errors, not dropped links.
        server_.stats_->Add(WireCounter::unsupported_frames);
        support::trace::Instant("wire.unsupported_frame");
        std::uint64_t request_id = 0;
        (void)PeekPayloadId(frame.payload, frame.payload_size, &request_id);
        Answer(conn, Reply::kResponse, request_id,
               WireStatus::kUnsupportedFrame, "unsupported frame type");
        break;
      }
    }
    return !fatal;
  }

  /// Tear down this connection's subscriptions: each CloseSubscription
  /// fences its feed listener, so no publisher is left poking a dead
  /// connection.
  void OnClose(const std::shared_ptr<Connection>& conn) override {
    const auto it = subs_by_fd_.find(conn->fd());
    if (it == subs_by_fd_.end()) return;
    const std::vector<std::shared_ptr<Sub>> subs = std::move(it->second);
    subs_by_fd_.erase(it);
    for (const std::shared_ptr<Sub>& sub : subs) CloseSubscription(sub);
  }

 private:
  /// How a frame kind answers in-band: request and script frames with a
  /// kResponse, subscription frames with a kSubscribeAck.
  enum class Reply : bool { kResponse, kSubscribeAck };

  /// Answer a frame in-band with its kind's reply frame. A
  /// kResponse carries `text` as its body; a kSubscribeAck carries
  /// `subscription_id` and `cursor` instead.
  void Answer(const std::shared_ptr<Connection>& conn, Reply reply,
              std::uint64_t request_id, WireStatus status,
              std::string_view text, std::uint64_t subscription_id = 0,
              std::uint64_t cursor = 0) {
    if (reply == Reply::kResponse) {
      WireResponse response;
      response.request_id = request_id;
      response.status = status;
      Respond(conn, response, text);
      return;
    }
    if (conn->closed()) return;
    WireSubscribeAck ack;
    ack.request_id = request_id;
    ack.status = status;
    ack.subscription_id = subscription_id;
    ack.start_cursor = cursor;
    support::PooledBuffer buffer =
        support::BufferPool::WirePool().Acquire(kResponseOverhead);
    EncodeSubscribeAck(ack, buffer.bytes());
    (void)Reactor::Send(conn, std::move(buffer));
  }

  /// The prologue every client frame shares. `Decode`s the payload into
  /// `body`: an unreadable request id is a protocol error, a bad body is
  /// answered kMalformedRequest. A body that names a client then passes
  /// the M-Cluster routing fence: a worker that does not own the client
  /// under its current plan answers kWrongWorker with its plan epoch —
  /// in a kResponse's body as decimal, in a kSubscribeAck's start_cursor
  /// as a varint — before any gateway, sandbox or feed work, and the
  /// stale router re-routes. True when the frame is to be dispatched.
  template <auto Decode, typename Body>
  bool Admit(const std::shared_ptr<Connection>& conn, const FrameView& frame,
             Reply reply, Body* body, bool* fatal) {
    std::string error;
    switch (Decode(frame.payload, frame.payload_size, body, &error)) {
      case BodyStatus::kBadId:
        *fatal = true;
        return false;
      case BodyStatus::kBadBody:
        server_.stats_->Add(WireCounter::decode_errors);
        Answer(conn, reply, body->request_id, WireStatus::kMalformedRequest,
               error);
        return false;
      case BodyStatus::kOk:
        break;
    }
    if constexpr (requires { body->client_id; }) {
      std::uint64_t plan_epoch = 0;
      if (server_.config_.ownership &&
          !server_.config_.ownership(body->client_id, &plan_epoch)) {
        server_.stats_->Add(WireCounter::wrong_worker);
        support::trace::Instant("wire.wrong_worker");
        Answer(conn, reply, body->request_id, WireStatus::kWrongWorker,
               std::to_string(plan_epoch), 0, plan_epoch);
        return false;
      }
    }
    return true;
  }

  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     const FrameView& frame, bool* fatal) {
    // Zero-copy decode: string fields stay views into the input ring.
    // The scratch view is a loop member so its property array's capacity
    // survives across requests — steady state decodes allocation-free.
    WireRequestView& view = decode_scratch_;
    if (!Admit<DecodeRequestView>(conn, frame, Reply::kResponse, &view,
                                  fatal)) {
      return;
    }
    support::trace::Span span("wire.dispatch");
    span.Tag("op", static_cast<std::int64_t>(view.op));
    gateway::BorrowedRequest gw;
    gw.client_id = view.client_id;
    gw.platform = view.platform;
    gw.op = view.op;
    gw.target = view.target;
    gw.payload = view.payload;
    gw.content_type = view.content_type;
    gw.properties = view.properties.data();
    gw.property_count = view.properties.size();
    gw.timeout = std::chrono::microseconds(view.timeout_micros);
    gw.retry.max_attempts = static_cast<int>(view.max_attempts);
    const std::uint64_t request_id = view.request_id;
    // The callback may run here (shed: synchronously on this loop
    // thread) or later on a shard worker — possibly after the server
    // object is gone (the contract only requires the *gateway* to be
    // stopped before the server's own destruction, not vice versa). So
    // it captures only the connection, never `this`.
    auto on_complete = [conn, request_id](const gateway::Response& completed) {
      WireResponse response;
      response.request_id = request_id;
      response.status = completed.ok ? WireStatus::kOk
                                     : FromErrorCode(completed.error);
      response.served_platform = completed.served_platform;
      response.attempts = static_cast<std::uint32_t>(
          completed.attempts < 0 ? 0 : completed.attempts);
      response.latency_micros =
          static_cast<std::uint64_t>(completed.latency.count());
      Respond(conn, response,
              completed.ok ? completed.payload : completed.message);
    };
    server_.stats_->Add(WireCounter::requests_dispatched);
    // Submit materializes (admitted) or sheds (callback fires inline)
    // before returning; either way the borrowed views are done (the
    // reactor asserts the ring is untouched).
    (void)server_.gateway_.Submit(gw, std::move(on_complete));
  }

  /// M-Script: one kScript frame becomes one gateway::SubmitScript; the
  /// shard answers with an ordinary kResponse frame under the same
  /// request id. Unlike HandleRequest there is no borrowed-view path —
  /// DecodeScript copies the source out of the ring (scripts are rare
  /// and large relative to requests; the zero-copy machinery buys
  /// nothing here).
  void HandleScript(const std::shared_ptr<Connection>& conn,
                    const FrameView& frame, bool* fatal) {
    WireScriptRequest script;
    if (!Admit<DecodeScript>(conn, frame, Reply::kResponse, &script, fatal)) {
      return;
    }
    support::trace::Span span("wire.dispatch");
    span.Tag("script", 1);
    gateway::ScriptRequest gw;
    gw.client_id = script.client_id;
    gw.source = std::move(script.source);
    gw.args = std::move(script.args);
    gw.timeout = std::chrono::microseconds(script.timeout_micros);
    gw.step_budget = script.step_budget;
    gw.virtual_us_budget = script.virtual_us_budget;
    gw.max_result_bytes = script.max_result_bytes;
    // Same lifetime discipline as HandleRequest's completion.
    gw.on_complete = [conn, request_id = script.request_id](
                         const gateway::ScriptResponse& completed) {
      WireResponse response;
      response.request_id = request_id;
      // Script outcomes (uncaught throw, step-limit kill, result cap)
      // map to the dedicated kScriptError band; everything else —
      // deadline, overload — travels through the normal status bands.
      response.status = completed.ok ? WireStatus::kOk
                        : completed.script_error
                            ? WireStatus::kScriptError
                            : FromErrorCode(completed.error);
      response.latency_micros =
          static_cast<std::uint64_t>(completed.latency.count());
      Respond(conn, response,
              completed.ok ? completed.result : completed.message);
    };
    server_.stats_->Add(WireCounter::scripts_dispatched);
    (void)server_.gateway_.SubmitScript(std::move(gw));
  }

  // ---- M-Push: the server side of the subscription plane ----

  /// One live subscription. Shared between this loop's handler (which
  /// owns the id/fd maps and the pump) and its shard feed's listener callback
  /// (publisher threads), which touches only the mutex-guarded queue and
  /// the loop-wake path. `pending` holds kData entries — gap markers are
  /// synthesized at pump time from the merged gap range, so shedding is
  /// O(1) and a burst of sheds costs one marker, not one frame each —
  /// plus a trailing kEndOfDrain for kDrainOnce subscriptions.
  struct Sub {
    std::uint64_t id = 0;
    std::shared_ptr<Connection> conn;
    gateway::PushFeed* feed = nullptr;
    std::uint64_t listener_id = 0;  ///< 0: none (kDrainOnce never listens)
    PushTopic topic = PushTopic::kAll;
    std::uint64_t client_filter = 0;

    std::mutex mutex;
    std::deque<WireEvent> pending;
    bool gap = false;
    std::uint64_t gap_first = 0;
    std::uint64_t gap_last = 0;
    bool closed = false;  ///< torn down; publishers must stop enqueuing

    void MergeGapLocked(std::uint64_t first, std::uint64_t last) {
      if (!gap) {
        gap = true;
        gap_first = first;
        gap_last = last;
        return;
      }
      gap_first = std::min(gap_first, first);
      gap_last = std::max(gap_last, last);
    }
  };

  /// Append one data event to `sub.pending` (mutex held by the caller),
  /// shedding the oldest at capacity — merged into the gap range and
  /// counted, never silent.
  static void EnqueueData(Sub& sub, const gateway::PushEvent& event,
                          std::size_t capacity, Counters& stats) {
    if (sub.pending.size() >= capacity &&
        sub.pending.front().kind == EventKind::kData) {
      sub.MergeGapLocked(sub.pending.front().cursor,
                         sub.pending.front().cursor);
      sub.pending.pop_front();
      stats.Add(WireCounter::events_dropped);
      support::trace::Instant("push.shed", "sub",
                              static_cast<std::int64_t>(sub.id));
    }
    WireEvent out;
    out.subscription_id = sub.id;
    out.kind = EventKind::kData;
    out.topic = static_cast<PushTopic>(event.topic);
    out.cursor = event.cursor;
    out.aux = event.client_id;
    out.body = event.body;
    sub.pending.push_back(std::move(out));
  }

  void HandleSubscribe(const std::shared_ptr<Connection>& conn,
                       const FrameView& frame, bool* fatal) {
    // The fence matters here too: a subscription pins a shard feed, so a
    // worker that does not own the client bounces it BEFORE it can
    // accumulate events. The epoch rides the ack's start_cursor varint,
    // so the cluster client never parses text on this path.
    WireSubscribe req;
    if (!Admit<DecodeSubscribe>(conn, frame, Reply::kSubscribeAck, &req,
                                fatal)) {
      return;
    }
    gateway::PushFeed& feed = server_.gateway_.FeedFor(req.client_id);
    auto sub = std::make_shared<Sub>();
    sub->id =
        server_.next_subscription_id_.fetch_add(1, std::memory_order_relaxed);
    sub->conn = conn;
    sub->feed = &feed;
    sub->topic = req.topic;
    sub->client_filter = req.client_id;
    const std::size_t capacity =
        std::max<std::size_t>(server_.config_.push_queue_capacity, 1);
    const auto topic_g = static_cast<gateway::PushTopic>(req.topic);
    // kLiveOnly replays after "the far future": under the feed's clamp
    // the single-lock seam degenerates to a plain listener registration —
    // no replayed events, no gap.
    const std::uint64_t after =
        req.mode == SubscribeMode::kLiveOnly
            ? std::numeric_limits<std::uint64_t>::max()
            : req.cursor;
    std::shared_ptr<Counters> stats = server_.stats_;
    const auto replay_into_pending =
        [&sub, capacity, &stats](const gateway::PushEvent& event) {
          // Feed lock held; nobody else can see `sub` yet, but keep the
          // "pending is touched under sub->mutex" invariant uniform.
          std::lock_guard<std::mutex> lock(sub->mutex);
          EnqueueData(*sub, event, capacity, *stats);
        };
    gateway::PushFeed::ReplayResult covered;
    if (req.mode == SubscribeMode::kDrainOnce) {
      // The poll primitive: catch up, mark the end, auto-close at pump
      // time. No listener is ever registered.
      covered =
          feed.ReplayAfter(after, topic_g, req.client_id, replay_into_pending);
    } else {
      sub->listener_id = feed.AddListenerAndReplay(
          after, topic_g, req.client_id, replay_into_pending,
          [sub, capacity, stats, topic_g](const gateway::PushEvent& event) {
            // Publisher thread, feed lock held: filter, enqueue, wake the
            // loop. Everything heavier (encode, socket) is the loop's.
            if (!gateway::MatchesSubscription(event, topic_g,
                                              sub->client_filter)) {
              return;
            }
            {
              std::lock_guard<std::mutex> lock(sub->mutex);
              if (sub->closed) return;
              EnqueueData(*sub, event, capacity, *stats);
            }
            Reactor::ScheduleFlush(sub->conn);
          },
          &covered);
    }
    {
      std::lock_guard<std::mutex> lock(sub->mutex);
      if (covered.gap) sub->MergeGapLocked(covered.gap_first, covered.gap_last);
      if (req.mode == SubscribeMode::kDrainOnce) {
        WireEvent end;
        end.subscription_id = sub->id;
        end.kind = EventKind::kEndOfDrain;
        end.cursor = covered.resume_cursor;
        sub->pending.push_back(std::move(end));
      }
    }
    subs_by_fd_[conn->fd()].push_back(sub);
    server_.stats_->Add(WireCounter::subscriptions_opened);
    server_.stats_->Add(WireCounter::subscriptions_open);
    support::trace::Instant("push.subscribe", "sub",
                            static_cast<std::int64_t>(sub->id), "topic",
                            static_cast<std::int64_t>(req.topic));
    // Queue the ack NOW: subscribe handling and the event pump share this
    // loop thread, so the ack always precedes the first kEvent frame.
    Answer(conn, Reply::kSubscribeAck, req.request_id, WireStatus::kOk, {},
           sub->id, covered.resume_cursor);
  }

  void HandleUnsubscribe(const std::shared_ptr<Connection>& conn,
                         const FrameView& frame, bool* fatal) {
    WireUnsubscribe req;
    if (!Admit<DecodeUnsubscribe>(conn, frame, Reply::kSubscribeAck, &req,
                                  fatal)) {
      return;
    }
    // Only this connection's own subscriptions: an unknown id, or one
    // another connection owns, is nothing this connection may tear down.
    const std::vector<std::shared_ptr<Sub>>& own = subs_by_fd_[conn->fd()];
    const auto it = std::find_if(own.begin(), own.end(), [&](const auto& sub) {
      return sub->id == req.subscription_id;
    });
    if (it == own.end()) {
      Answer(conn, Reply::kSubscribeAck, req.request_id,
             WireStatus::kMalformedRequest, {}, req.subscription_id);
      return;
    }
    const std::shared_ptr<Sub> sub = *it;
    CloseSubscription(sub);
    support::trace::Instant("push.unsubscribe", "sub",
                            static_cast<std::int64_t>(sub->id));
    Answer(conn, Reply::kSubscribeAck, req.request_id, WireStatus::kOk, {},
           sub->id);
  }

  /// Loop thread. RemoveListener returning is the fence: after it no
  /// publisher callback for this sub is running or will ever run, so
  /// marking closed + clearing pending under the mutex leaves nothing
  /// in flight.
  void CloseSubscription(const std::shared_ptr<Sub>& sub) {
    if (sub->listener_id != 0) sub->feed->RemoveListener(sub->listener_id);
    {
      std::lock_guard<std::mutex> lock(sub->mutex);
      sub->closed = true;
      sub->pending.clear();
      sub->gap = false;
    }
    const auto it = subs_by_fd_.find(sub->conn->fd());
    if (it != subs_by_fd_.end()) {
      auto& list = it->second;
      list.erase(std::remove(list.begin(), list.end(), sub), list.end());
      if (list.empty()) subs_by_fd_.erase(it);
    }
    server_.stats_->Add(WireCounter::subscriptions_closed);
    server_.stats_->Sub(WireCounter::subscriptions_open);
  }

  /// The flush hook: encode queued subscription events into the
  /// connection's output — but only while the backlog sits below the LOW
  /// watermark. Request/response traffic owns the band between the
  /// watermarks, so the push plane can never drive a connection into the
  /// read-pause band: a slow subscriber sheds from its bounded queue
  /// (typed gap markers) instead of stalling its own responses. Returns
  /// true when any frame was queued.
  bool OnFlush(const std::shared_ptr<Connection>& conn) override {
    const auto it = subs_by_fd_.find(conn->fd());
    if (it == subs_by_fd_.end()) return false;
    bool queued = false;
    std::vector<std::shared_ptr<Sub>> finished;
    for (const std::shared_ptr<Sub>& sub : it->second) {
      bool drained_end = false;
      while (!drained_end && conn->pending_output_bytes() <
                                 server_.config_.output_low_watermark) {
        WireEvent event;
        bool have = false;
        {
          std::lock_guard<std::mutex> lock(sub->mutex);
          if (sub->gap) {
            // The gap marker goes out BEFORE the retained events behind
            // it — its range only ever covers cursors older than
            // anything still pending.
            event.subscription_id = sub->id;
            event.kind = EventKind::kEventsDropped;
            event.topic = sub->topic;
            event.aux = sub->gap_first;
            event.cursor = sub->gap_last;
            sub->gap = false;
            have = true;
          } else if (!sub->pending.empty()) {
            event = std::move(sub->pending.front());
            sub->pending.pop_front();
            have = true;
          }
        }
        if (!have) break;
        support::PooledBuffer buffer = support::BufferPool::WirePool().Acquire(
            kResponseOverhead + event.body.size());
        EncodeEvent(event, buffer.bytes());
        if (conn->QueueOutput(std::move(buffer)) == 0) return queued;
        queued = true;
        switch (event.kind) {
          case EventKind::kData:
            server_.stats_->Add(WireCounter::events_out);
            break;
          case EventKind::kEventsDropped:
            server_.stats_->Add(WireCounter::gap_markers);
            support::trace::Instant(
                "push.gap_marker", "first",
                static_cast<std::int64_t>(event.aux), "last",
                static_cast<std::int64_t>(event.cursor));
            break;
          case EventKind::kEndOfDrain:
            // kDrainOnce: the marker is the last frame; auto-close.
            finished.push_back(sub);
            drained_end = true;
            break;
        }
      }
    }
    for (const std::shared_ptr<Sub>& sub : finished) CloseSubscription(sub);
    return queued;
  }

  WireServer& server_;
  /// Reusable zero-copy decode target (loop thread only): its property
  /// array keeps its capacity across requests.
  WireRequestView decode_scratch_;
  // Each connection's M-Push subscriptions (loop thread only; the Subs
  // themselves are shared with feed listeners and carry their own
  // mutexes).
  std::unordered_map<int, std::vector<std::shared_ptr<Sub>>> subs_by_fd_;
};

// ---------------------------------------------------------------------------
// WireServer
// ---------------------------------------------------------------------------

WireServer::WireServer(gateway::Gateway& gateway, WireServerConfig config)
    : gateway_(gateway),
      config_(std::move(config)),
      stats_(std::make_shared<Counters>()),
      reactor_({.port = config_.port}, [this] {
        std::vector<ConnectionHandler*> handlers;
        for (int i = 0; i < std::max(config_.event_loops, 1); ++i) {
          planes_.push_back(std::make_unique<DataPlane>(*this));
          handlers.push_back(planes_.back().get());
        }
        return handlers;
      }()) {}

WireServer::~WireServer() { Stop(); }

bool WireServer::Start(std::string* error) { return reactor_.Start(error); }

void WireServer::Stop() { reactor_.Stop(); }

WireStatsSnapshot WireServer::Stats() const {
  WireStatsSnapshot snap;
  reactor_.LoadStats(snap);
  stats_->LoadInto(snap);
  const support::BufferPool& wire_pool = support::BufferPool::WirePool();
  const support::BufferPoolStats pool = wire_pool.Stats();
  snap.pool_hits = pool.hits;
  snap.pool_misses = pool.misses;
  snap.pool_returns = pool.returns;
  snap.pool_trims = pool.trims;
  snap.pool_parked_bytes = wire_pool.ParkedBytes();
  return snap;
}

support::MetricsRegistry::Registration WireServer::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        const WireStatsSnapshot snap = Stats();
        support::ExportCounters(sink, kReactorCounters, snap);
        support::ExportCounters(sink, kWireCounters, snap);
        sink.Counter("pool_hits", snap.pool_hits);
        sink.Counter("pool_misses", snap.pool_misses);
        sink.Counter("pool_returns", snap.pool_returns);
        sink.Counter("pool_trims", snap.pool_trims);
        sink.Gauge("pool_parked_bytes",
                   static_cast<double>(snap.pool_parked_bytes));
        // Frame-buffer allocations per dispatched request: pool misses
        // are the only fresh heap buffers on the frame path, so at
        // steady state this reads 0.0 (the tentpole's no-alloc claim,
        // live and assertable).
        sink.Gauge("allocs_per_req",
                   snap.requests_dispatched == 0
                       ? 0.0
                       : static_cast<double>(snap.pool_misses) /
                             static_cast<double>(snap.requests_dispatched));
      });
}

}  // namespace mobivine::wire
