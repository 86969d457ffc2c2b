#include "wire/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "support/buffer_pool.h"
#include "support/logging.h"
#include "support/trace.h"
#include "wire/connection.h"
#include "wire/protocol.h"

namespace mobivine::wire {

namespace {

/// Free-space floor a read pass keeps in the input ring: each read()
/// lands directly in the ring's writable tail, so this is also the
/// per-syscall read granularity.
constexpr std::size_t kReadReserve = 16 * 1024;
/// Encoded-response bytes beyond the body (header, CRC, varint fields).
constexpr std::size_t kResponseOverhead = 64;
/// iovec entries per writev. Linux caps at IOV_MAX (1024); 64 covers a
/// flush run comfortably — longer runs just loop.
constexpr int kMaxIov = 64;
/// Compact the loop-side write run when this many released front slots
/// accumulate behind a long-lived partial write.
constexpr std::size_t kWriteRunCompactAt = 64;
/// listen(2) backlog of the loopback listener.
constexpr int kListenBacklog = 128;

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

class WireServer::EventLoop
    : public std::enable_shared_from_this<WireServer::EventLoop> {
 public:
  EventLoop(WireServer& server, int index)
      : server_(server), index_(index) {}

  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  bool Start(std::string* error) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      if (error != nullptr) *error = "epoll_create1 failed";
      return false;
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      if (error != nullptr) *error = "eventfd failed";
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      if (error != nullptr) *error = "epoll_ctl(eventfd) failed";
      return false;
    }
    thread_ = std::thread([this] { Run(); });
    return true;
  }

  /// Acceptor thread: hand a freshly accepted (nonblocking) socket to
  /// this loop. Closed immediately if the loop is already stopping.
  void Adopt(int fd) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_) {
        pending_fds_.push_back(fd);
        Wake();
        return;
      }
    }
    ::close(fd);
  }

  /// Any thread (gateway workers): this connection has output queued.
  void NotifyWritable(std::shared_ptr<Connection> conn) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      conn->ClearNotify();
      return;
    }
    notified_.push_back(std::move(conn));
    Wake();
  }

  void RequestStop() {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }

  void Run() {
    support::trace::SetCurrentThreadName("wire-loop-" +
                                         std::to_string(index_));
    epoll_event events[64];
    bool stopping = false;
    while (!stopping) {
      const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        MOBIVINE_LOG_ERROR << "wire: epoll_wait failed: "
                           << std::strerror(errno);
        break;
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.fd == wake_fd_) {
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wake_fd_, &drained, sizeof drained);
          continue;
        }
        const auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;  // closed earlier this batch
        std::shared_ptr<Connection> conn = it->second;
        if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
          Close(conn);
          continue;
        }
        if ((ev.events & EPOLLOUT) != 0) Flush(conn);
        if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn->paused &&
            !conn->closed()) {
          ReadPass(conn);
        }
      }
      // Drain cross-thread work: new connections and write notifications.
      std::vector<int> pending_fds;
      std::vector<std::shared_ptr<Connection>> notified;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_fds.swap(pending_fds_);
        notified.swap(notified_);
        stopping = stopping_;
      }
      for (int fd : pending_fds) {
        if (stopping) {
          ::close(fd);
          continue;
        }
        Register(fd);
      }
      for (auto& conn : notified) {
        if (!conn->closed()) Flush(conn);
      }
    }
    // Close everything still open; in-flight gateway completions hold
    // their own shared_ptrs and will see closed().
    std::vector<std::shared_ptr<Connection>> remaining;
    remaining.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) remaining.push_back(conn);
    for (auto& conn : remaining) Close(conn);
  }

  void Register(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // The accept count before this one is the connection's id.
    auto conn = std::make_shared<Connection>(
        fd, server_.stats_->Add(WireCounter::connections_accepted));
    epoll_event ev{};
    // No EPOLLOUT at rest: write interest is armed only when the kernel
    // refuses bytes (see SetWriteInterest), so an idle or keeping-up
    // connection never generates writability events.
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      MOBIVINE_LOG_ERROR << "wire: epoll_ctl(add) failed: "
                         << std::strerror(errno);
      conn->MarkClosed();
      ::close(fd);
      server_.stats_->Add(WireCounter::connections_closed);
      return;
    }
    conns_.emplace(fd, std::move(conn));
  }

  void Close(const std::shared_ptr<Connection>& conn) {
    if (conn->closed()) return;
    conn->MarkClosed();
    // Tear down this connection's subscriptions before the fd: each
    // CloseSubscription fences its feed listener, so no publisher is
    // left poking a dead connection.
    const auto sit = subs_by_fd_.find(conn->fd());
    if (sit != subs_by_fd_.end()) {
      const std::vector<std::shared_ptr<Sub>> subs = sit->second;
      for (const std::shared_ptr<Sub>& sub : subs) CloseSubscription(sub);
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
    ::close(conn->fd());
    conns_.erase(conn->fd());
    server_.stats_->Add(WireCounter::connections_closed);
  }

  /// Edge-triggered read pass: drain the socket to EAGAIN, then decode
  /// and dispatch. Each read() lands directly in the ring's writable
  /// tail window — no intermediate stack chunk, no second memcpy.
  void ReadPass(const std::shared_ptr<Connection>& conn) {
    support::trace::Span span("wire.read");
    ByteRing& ring = conn->input();
    std::size_t total = 0;
    bool peer_closed = false;
    while (true) {
      std::size_t available = 0;
      std::uint8_t* window = ring.WriteWindow(kReadReserve, &available);
      const ssize_t n = ::read(conn->fd(), window, available);
      if (n > 0) {
        ring.CommitWrite(static_cast<std::size_t>(n));
        total += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      peer_closed = true;  // hard socket error
      break;
    }
    span.Tag("bytes", static_cast<std::int64_t>(total));
    server_.stats_->Add(WireCounter::bytes_in, total);
    if (total > 0) DecodePass(conn);
    if (peer_closed && !conn->closed()) Close(conn);
  }

  /// Decode every complete frame in the ring and dispatch it. Pipelining
  /// is free here: each request becomes an independent gateway::Submit.
  ///
  /// Linearization is hoisted out of the loop: nothing inside it touches
  /// the ring (dispatch borrows views and materializes before returning),
  /// so `base` stays valid across frames. The generation stamp makes that
  /// contract checkable — HandleRequest asserts it after every Submit.
  void DecodePass(const std::shared_ptr<Connection>& conn) {
    support::trace::Span span("wire.decode");
    std::int64_t frames = 0;
    ByteRing& ring = conn->input();
    const std::uint8_t* base = ring.Contiguous();
    const std::uint64_t generation = ring.generation();
    std::size_t offset = 0;
    bool fatal = false;
    while (!fatal) {
      FrameView frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status = DecodeFrame(
          base + offset, ring.size() - offset, &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kMalformed) {
        MOBIVINE_LOG_DEBUG << "wire: closing connection " << conn->id()
                           << ": " << error;
        ProtocolError(&fatal);
        break;
      }
      server_.stats_->Add(WireCounter::frames_in);
      ++frames;
      switch (frame.type) {
        case FrameType::kRequest:
          HandleRequest(conn, frame, generation, &fatal);
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
          ProtocolError(&fatal);
          break;
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
      offset += consumed;
    }
    ring.Consume(offset);
    span.Tag("frames", frames);
    if (fatal) {
      Close(conn);
      return;
    }
    MaybePause(conn);
    Flush(conn);
  }

  /// A frame that breaks the protocol (unframeable bytes, an unreadable
  /// request id, a server-to-client type): counted, and the connection
  /// closes once the decode pass ends.
  void ProtocolError(bool* fatal) {
    server_.stats_->Add(WireCounter::protocol_errors);
    support::trace::Instant("wire.protocol_error");
    *fatal = true;
  }

  /// How a frame kind answers in-band: request and script frames with a
  /// kResponse, subscription frames with a kSubscribeAck.
  enum class Reply : bool { kResponse, kSubscribeAck };

  /// Loop thread: answer a frame in-band with its kind's reply frame. A
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
      Respond(weak_from_this(), conn, response, text, *server_.stats_);
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
    QueueAndWake(weak_from_this(), conn, std::move(buffer), *server_.stats_);
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
        ProtocolError(fatal);
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
                     const FrameView& frame, std::uint64_t ring_generation,
                     bool* fatal) {
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
    // it captures shared stats and a weak loop, never `this` raw.
    auto on_complete = [stats = server_.stats_, weak_loop = weak_from_this(),
                        conn, request_id](const gateway::Response& completed) {
      WireResponse response;
      response.request_id = request_id;
      response.status = completed.ok ? WireStatus::kOk
                                     : FromErrorCode(completed.error);
      response.served_platform = completed.served_platform;
      response.attempts = static_cast<std::uint32_t>(
          completed.attempts < 0 ? 0 : completed.attempts);
      response.latency_micros =
          static_cast<std::uint64_t>(completed.latency.count());
      Respond(weak_loop, conn, response,
              completed.ok ? completed.payload : completed.message, *stats);
    };
    server_.stats_->Add(WireCounter::requests_dispatched);
    // Submit materializes (admitted) or sheds (callback fires inline)
    // before returning; either way the borrowed views are done. The
    // assert pins the lifetime contract: nothing in dispatch may have
    // appended to, consumed from or grown the ring while views into it
    // were live.
    (void)server_.gateway_.Submit(gw, std::move(on_complete));
    assert(conn->input().generation() == ring_generation);
    (void)ring_generation;
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
    gw.on_complete = [stats = server_.stats_, weak_loop = weak_from_this(),
                      conn, request_id = script.request_id](
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
      Respond(weak_loop, conn, response,
              completed.ok ? completed.result : completed.message, *stats);
    };
    server_.stats_->Add(WireCounter::scripts_dispatched);
    (void)server_.gateway_.SubmitScript(std::move(gw));
  }

  /// Any thread: encode one kResponse straight into a pooled buffer,
  /// borrowing `body` (no WireResponse::body copy, no per-frame heap
  /// allocation at steady state), and queue it.
  static void Respond(const std::weak_ptr<EventLoop>& weak_loop,
                      const std::shared_ptr<Connection>& conn,
                      const WireResponse& response, std::string_view body,
                      WireServer::Counters& stats) {
    if (conn->closed()) return;
    support::PooledBuffer buffer = support::BufferPool::WirePool().Acquire(
        kResponseOverhead + body.size());
    EncodeResponse(response, body, buffer.bytes());
    QueueAndWake(weak_loop, conn, std::move(buffer), stats);
  }

  /// Any thread: append one encoded frame to the connection's output
  /// (dropped if it has closed) and schedule a flush.
  static void QueueAndWake(const std::weak_ptr<EventLoop>& weak_loop,
                           const std::shared_ptr<Connection>& conn,
                           support::PooledBuffer buffer,
                           WireServer::Counters& stats) {
    if (conn->QueueOutput(std::move(buffer)) == 0) return;  // closed
    stats.Add(WireCounter::frames_out);
    ScheduleFlush(weak_loop, conn);
  }

  /// Any thread: wake the connection's loop to flush it, unless a flush
  /// is already scheduled. The loop is held weakly — shard completions
  /// and feed publishers may outlive it.
  static void ScheduleFlush(const std::weak_ptr<EventLoop>& weak_loop,
                            const std::shared_ptr<Connection>& conn) {
    if (!conn->ClaimNotify()) return;
    if (const std::shared_ptr<EventLoop> loop = weak_loop.lock()) {
      loop->NotifyWritable(conn);
    } else {
      conn->ClearNotify();  // loop gone: connection already closed
    }
  }

  // ---- M-Push: the server side of the subscription plane ----

  /// One live subscription. Shared between this loop (which owns the
  /// id/fd maps and the pump) and its shard feed's listener callback
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
                          std::size_t capacity, WireServer::Counters& stats) {
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
    std::shared_ptr<WireServer::Counters> stats = server_.stats_;
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
          [sub, capacity, stats, weak_loop = weak_from_this(),
           topic_g](const gateway::PushEvent& event) {
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
            ScheduleFlush(weak_loop, sub->conn);
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
    subs_by_id_.emplace(sub->id, sub);
    subs_by_fd_[conn->fd()].push_back(sub);
    server_.stats_->Add(WireCounter::subscriptions_opened);
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
    const auto it = subs_by_id_.find(req.subscription_id);
    if (it == subs_by_id_.end() || it->second->conn != conn) {
      // Unknown id, or an id owned by another connection — either way
      // nothing this connection may tear down.
      Answer(conn, Reply::kSubscribeAck, req.request_id,
             WireStatus::kMalformedRequest, {}, req.subscription_id);
      return;
    }
    const std::shared_ptr<Sub> sub = it->second;
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
    subs_by_id_.erase(sub->id);
    const auto it = subs_by_fd_.find(sub->conn->fd());
    if (it != subs_by_fd_.end()) {
      auto& list = it->second;
      list.erase(std::remove(list.begin(), list.end(), sub), list.end());
      if (list.empty()) subs_by_fd_.erase(it);
    }
    server_.stats_->Add(WireCounter::subscriptions_closed);
  }

  /// Loop thread, from Flush: encode queued subscription events into the
  /// connection's output — but only while the backlog sits below the LOW
  /// watermark. Request/response traffic owns the band between the
  /// watermarks, so the push plane can never drive a connection into the
  /// read-pause band: a slow subscriber sheds from its bounded queue
  /// (typed gap markers) instead of stalling its own responses. Returns
  /// true when any frame was queued.
  bool PumpPush(const std::shared_ptr<Connection>& conn) {
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
        EncodeEvent(event, event.body, buffer.bytes());
        if (conn->QueueOutput(std::move(buffer)) == 0) return queued;
        server_.stats_->Add(WireCounter::frames_out);
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

  void MaybePause(const std::shared_ptr<Connection>& conn) {
    if (!conn->paused &&
        conn->pending_output_bytes() >= server_.config_.output_high_watermark) {
      conn->paused = true;
      server_.stats_->Add(WireCounter::backpressure_stalls);
      support::trace::Instant(
          "wire.backpressure_pause", "pending",
          static_cast<std::int64_t>(conn->pending_output_bytes()));
    }
  }

  /// Loop thread: arm or disarm EPOLLOUT for this fd, eliding the
  /// epoll_ctl when the interest set is already right. The common case —
  /// every flush drains in one writev run — performs zero epoll_ctl
  /// calls for the connection's whole lifetime.
  void SetWriteInterest(const std::shared_ptr<Connection>& conn, bool want) {
    if (conn->out_armed == want) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
      conn->out_armed = want;
      if (want) server_.stats_->Add(WireCounter::epollout_arms);
    }
  }

  /// Loop thread: take queued frames onto the write run and push the
  /// whole run with writev — one syscall covers every pipelined response
  /// queued since the last flush, and each fully written buffer goes
  /// back to the pool on the spot.
  void Flush(const std::shared_ptr<Connection>& conn) {
    if (conn->closed()) return;
    conn->ClearNotify();  // before TakeQueued: later appends must re-wake
    (void)PumpPush(conn);
    conn->write_bytes += conn->TakeQueued(conn->write_bufs);
    if (conn->write_bytes == 0) return;
    support::trace::Span span("wire.write");
    std::size_t written = 0;
    bool blocked = false;
    while (conn->write_bytes > 0) {
      iovec iov[kMaxIov];
      int iov_count = 0;
      for (std::size_t i = conn->write_start;
           i < conn->write_bufs.size() && iov_count < kMaxIov; ++i) {
        const std::vector<std::uint8_t>& bytes = conn->write_bufs[i].bytes();
        const std::size_t skip = i == conn->write_start ? conn->write_offset : 0;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(bytes.data() + skip);
        iov[iov_count].iov_len = bytes.size() - skip;
        ++iov_count;
      }
      // sendmsg == writev + MSG_NOSIGNAL: a peer that closed mid-stream
      // (a vanished subscriber, say) must surface as EPIPE on this
      // connection, not SIGPIPE for the whole process.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iov_count);
      const ssize_t n = ::sendmsg(conn->fd(), &msg, MSG_NOSIGNAL);
      server_.stats_->Add(WireCounter::writev_calls);
      if (n > 0) {
        std::size_t left = static_cast<std::size_t>(n);
        written += left;
        conn->write_bytes -= left;
        while (left > 0) {
          support::PooledBuffer& front = conn->write_bufs[conn->write_start];
          const std::size_t remaining =
              front.bytes().size() - conn->write_offset;
          if (left >= remaining) {
            left -= remaining;
            front.Release();  // fully written: back to the pool now
            ++conn->write_start;
            conn->write_offset = 0;
          } else {
            conn->write_offset += left;
            left = 0;
          }
        }
        if (conn->write_bytes == 0) {
          // The run just drained, reopening the pump gate — refill from
          // any event-gated subscriptions and keep writing. The stale
          // pending total must be published first or the gate stays shut.
          conn->SetUnsentWriteBytes(0);
          if (PumpPush(conn)) {
            conn->write_bytes += conn->TakeQueued(conn->write_bufs);
          }
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
        break;
      }
      span.Tag("bytes", static_cast<std::int64_t>(written));
      server_.stats_->Add(WireCounter::bytes_out, written);
      Close(conn);  // broken pipe etc.
      return;
    }
    if (conn->write_bytes == 0) {
      conn->write_bufs.clear();  // all handles released; keep capacity
      conn->write_start = 0;
      conn->write_offset = 0;
    } else if (conn->write_start >= kWriteRunCompactAt) {
      conn->write_bufs.erase(
          conn->write_bufs.begin(),
          conn->write_bufs.begin() +
              static_cast<std::ptrdiff_t>(conn->write_start));
      conn->write_start = 0;
    }
    // Writability interest tracks the kernel, not the queue: armed only
    // when writev hit EAGAIN with bytes pending, dropped again the
    // moment the run empties.
    SetWriteInterest(conn, blocked && conn->write_bytes > 0);
    span.Tag("bytes", static_cast<std::int64_t>(written));
    server_.stats_->Add(WireCounter::bytes_out, written);
    conn->SetUnsentWriteBytes(conn->write_bytes);
    // Watermark check on the post-flush backlog. The pause side matters
    // here too (not just in DecodePass): async completions can pile up
    // output on a connection that is not currently sending us anything.
    MaybePause(conn);
    if (conn->paused &&
        conn->pending_output_bytes() <= server_.config_.output_low_watermark) {
      conn->paused = false;
      support::trace::Instant("wire.backpressure_resume");
      // Bytes may have piled up in the kernel while paused; under
      // edge-triggered epoll nobody will re-announce them.
      ReadPass(conn);
    }
  }

  WireServer& server_;
  const int index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  /// Reusable zero-copy decode target (loop thread only): its property
  /// array keeps its capacity across requests.
  WireRequestView decode_scratch_;
  // M-Push subscription maps (loop thread only; the Subs themselves are
  // shared with feed listeners and carry their own mutexes).
  std::unordered_map<std::uint64_t, std::shared_ptr<Sub>> subs_by_id_;
  std::unordered_map<int, std::vector<std::shared_ptr<Sub>>> subs_by_fd_;

  std::mutex mutex_;
  bool stopping_ = false;
  std::vector<int> pending_fds_;
  std::vector<std::shared_ptr<Connection>> notified_;
};

// ---------------------------------------------------------------------------
// WireServer
// ---------------------------------------------------------------------------

WireServer::WireServer(gateway::Gateway& gateway, WireServerConfig config)
    : gateway_(gateway),
      config_(std::move(config)),
      stats_(std::make_shared<Counters>()) {}

WireServer::~WireServer() { Stop(); }

bool WireServer::Start(std::string* error) {
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (error != nullptr) {
      *error = std::string("bind failed: ") + std::strerror(errno);
    }
    return false;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    if (error != nullptr) *error = "listen failed";
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stop_eventfd_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_eventfd_ < 0) {
    if (error != nullptr) *error = "eventfd failed";
    return false;
  }
  const int loops = std::max(config_.event_loops, 1);
  for (int i = 0; i < loops; ++i) {
    loops_.push_back(std::make_shared<EventLoop>(*this, i));
    if (!loops_.back()->Start(error)) return false;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void WireServer::AcceptLoop() {
  support::trace::SetCurrentThreadName("wire-acceptor");
  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {stop_eventfd_, POLLIN, 0};
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN: back to poll
      const std::uint64_t turn =
          next_loop_.fetch_add(1, std::memory_order_relaxed);
      loops_[turn % loops_.size()]->Adopt(fd);
    }
  }
}

void WireServer::Stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (stopping_.exchange(true)) {
    // Second caller (e.g. the destructor after an explicit Stop): the
    // first one already joined everything.
    return;
  }
  if (stop_eventfd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(stop_eventfd_, &one, sizeof one);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (stop_eventfd_ >= 0) {
    ::close(stop_eventfd_);
    stop_eventfd_ = -1;
  }
}

WireStatsSnapshot WireServer::Stats() const {
  WireStatsSnapshot snap;
  stats_->LoadInto(snap);
  const support::BufferPoolStats pool = support::BufferPool::WirePool().Stats();
  snap.pool_hits = pool.hits;
  snap.pool_misses = pool.misses;
  snap.pool_returns = pool.returns;
  snap.pool_trims = pool.trims;
  return snap;
}

support::MetricsRegistry::Registration WireServer::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        const WireStatsSnapshot snap = Stats();
        support::ExportCounters(sink, kWireCounters, snap);
        sink.Counter("connections_active", snap.connections_active());
        sink.Counter("push_subscriptions_active",
                     snap.subscriptions_active());
        sink.Counter("pool_hits", snap.pool_hits);
        sink.Counter("pool_misses", snap.pool_misses);
        sink.Counter("pool_returns", snap.pool_returns);
        sink.Counter("pool_trims", snap.pool_trims);
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
