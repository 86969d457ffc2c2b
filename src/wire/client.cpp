#include "wire/client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "support/buffer_pool.h"
#include "wire/await.h"

namespace mobivine::wire {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Encoded-request bytes beyond the string fields (header, CRC, varints).
constexpr std::size_t kRequestOverhead = 64;
/// Recycled pending_-map nodes kept around; bounds the idle footprint
/// while covering any realistic in-flight window.
constexpr std::size_t kMaxFreeNodes = 512;

[[nodiscard]] std::size_t EncodedSizeHint(const WireRequest& request) {
  return kRequestOverhead + request.target.size() + request.payload.size() +
         request.content_type.size();
}

/// Answer a frame the encoder refused (payload over kMaxFramePayload)
/// without sending it: the server would close the connection on it, and
/// every later call on this client would fail with it.
void RefuseOversized(std::uint64_t id, const WireClient::Callback& callback) {
  WireResponse refused;
  refused.request_id = id;
  refused.status = WireStatus::kMalformedRequest;
  refused.body = "payload length over cap";
  callback(refused);
}

/// Write the whole buffer to a blocking socket. False on any error.
/// MSG_NOSIGNAL: a Submit racing Close() must see EPIPE on the shut-down
/// socket, not die on SIGPIPE.
bool WriteAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// One bounded connect attempt: non-blocking connect, poll for
/// writability up to `timeout`, read the outcome from SO_ERROR, restore
/// blocking mode. Returns the fd or -1 (errno-style reason in `error`).
int ConnectOnce(std::uint16_t port, std::chrono::microseconds timeout,
                std::string* error) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket() failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    if (error != nullptr) {
      *error = std::string("connect failed: ") + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(
        std::max<std::int64_t>(1, timeout.count() / 1000));
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (error != nullptr) *error = "connect timed out";
      ::close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      if (error != nullptr) {
        *error = std::string("connect failed: ") + std::strerror(so_error);
      }
      ::close(fd);
      return -1;
    }
  }
  // Back to blocking: the client library's write/read paths assume it.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Open a blocking TCP_NODELAY socket to 127.0.0.1:port under `options`
/// (one bounded attempt each, backoff between attempts). Returns the fd,
/// or -1 with `error` filled.
int ConnectLoopback(std::uint16_t port, const ConnectOptions& options,
                    std::string* error) {
  std::chrono::microseconds backoff = options.initial_backoff;
  const int attempts = std::max(options.max_attempts, 1);
  for (int attempt = 0;; ++attempt) {
    const int fd = ConnectOnce(port, options.connect_timeout, error);
    if (fd >= 0) return fd;
    if (attempt + 1 >= attempts) return -1;
    std::this_thread::sleep_for(backoff);
    backoff = std::min(
        options.max_backoff,
        std::chrono::microseconds(static_cast<std::int64_t>(
            static_cast<double>(backoff.count()) *
            std::max(1.0, options.backoff_multiplier))));
  }
}

}  // namespace

WireClient::~WireClient() { Close(); }

void WireClient::EmplacePendingLocked(std::uint64_t id, Callback&& callback) {
  if (!free_nodes_.empty()) {
    PendingMap::node_type node = std::move(free_nodes_.back());
    free_nodes_.pop_back();
    node.key() = id;
    node.mapped() = std::move(callback);
    pending_.insert(std::move(node));
    return;
  }
  pending_.emplace(id, std::move(callback));
}

WireClient::Callback WireClient::TakePending(std::uint64_t id) {
  Callback callback;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(id);
  if (it == pending_.end()) return callback;
  PendingMap::node_type node = pending_.extract(it);
  callback = std::move(node.mapped());
  // Drop captured state now (a batch callback holds shared state alive);
  // the node shell alone is what gets recycled.
  node.mapped() = nullptr;
  if (free_nodes_.size() < kMaxFreeNodes) free_nodes_.push_back(std::move(node));
  return callback;
}

bool WireClient::Connect(std::uint16_t port, std::string* error) {
  return Connect(port, ConnectOptions{}, error);
}

bool WireClient::Connect(std::uint16_t port, const ConnectOptions& options,
                         std::string* error, FrameHandler on_unowned) {
  if (connected_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "already connected";
    return false;
  }
  // A dead (or closed) previous connection is reclaimed here so one
  // client object can dial again — the cluster client leans on this to
  // survive worker restarts.
  Close();
  const int fd = ConnectLoopback(port, options, error);
  if (fd < 0) return false;
  on_unowned_ = std::move(on_unowned);
  fd_.store(fd, std::memory_order_release);
  connected_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { ReaderLoop(); });
  return true;
}

bool WireClient::SendFrames(const std::vector<std::uint8_t>& frames) {
  return Send(frames, 0, 0, [] {});
}

bool WireClient::Dispatch(const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kResponse: {
      WireResponse response;
      if (!DecodeResponse(frame.payload, frame.payload_size, &response,
                          nullptr)) {
        return false;
      }
      // An id with no pending entry (already failed, or not sent by
      // Submit) belongs to the unowned-frame handler.
      Callback callback = TakePending(response.request_id);
      if (!callback) return !on_unowned_ || on_unowned_(&frame);
      callback(response);
      return true;
    }
    case FrameType::kSubscribeAck: {
      WireSubscribeAck ack;
      if (!DecodeSubscribeAck(frame.payload, frame.payload_size, &ack,
                              nullptr)) {
        return false;
      }
      HandleSubscribeAck(ack);
      return true;
    }
    case FrameType::kEvent: {
      WireEvent event;
      if (!DecodeEvent(frame.payload, frame.payload_size, &event, nullptr)) {
        return false;
      }
      HandleEvent(std::move(event));
      return true;
    }
    case FrameType::kControl:
      return !on_unowned_ || on_unowned_(&frame);
    default:
      // A type from a newer protocol revision: skip it and keep the
      // connection — forward compatibility with servers that push
      // additional frame families.
      return true;
  }
}

template <typename Park>
bool WireClient::Send(const std::vector<std::uint8_t>& frames,
                      std::uint64_t first, std::size_t count, Park&& park,
                      std::size_t* failed) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    park();
  }
  bool sent = false;
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    const int fd = fd_.load(std::memory_order_relaxed);
    sent = fd >= 0 && connected_.load(std::memory_order_acquire) &&
           WriteAll(fd, frames.data(), frames.size());
  }
  if (sent) return true;
  // A failed write leaves an unknown prefix delivered: responses that do
  // arrive complete their parked entries, the rest fail here — unless
  // the reader noticed the dead socket first and already failed them.
  std::size_t failed_here = 0;
  for (std::uint64_t id = first; id < first + count; ++id) {
    if (Callback callback = TakePending(id)) {
      FailRequest(id, callback);
      ++failed_here;
      continue;
    }
    PendingSub sub;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = pending_subs_.find(id);
      if (it == pending_subs_.end()) continue;
      sub = std::move(it->second);
      pending_subs_.erase(it);
    }
    FailAck(id, sub);
    ++failed_here;
  }
  if (failed != nullptr) *failed = failed_here;
  return false;
}

void WireClient::FailRequest(std::uint64_t id, const Callback& callback) {
  WireResponse dead;
  dead.request_id = id;
  dead.status = WireStatus::kTransportError;
  callback(dead);
}

void WireClient::FailAck(std::uint64_t id, const PendingSub& pending) {
  if (!pending.ack) return;
  WireSubscribeAck dead;
  dead.request_id = id;
  dead.subscription_id = pending.subscription_id;
  dead.status = WireStatus::kTransportError;
  pending.ack(dead);
}

bool WireClient::Submit(const WireRequest& request, Callback callback) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Encode straight from the caller's struct into a pooled frame buffer,
  // stamping the id into the frame only — no request copy, no fresh
  // allocation at steady state.
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(EncodedSizeHint(request));
  if (!EncodeRequest(request, id, buffer.bytes())) {
    RefuseOversized(id, callback);
    return false;
  }
  return Send(buffer.bytes(), id, 1,
              [&] { EmplacePendingLocked(id, std::move(callback)); });
}

std::size_t WireClient::SubmitBatch(const std::vector<WireRequest>& requests,
                                    const Callback& callback) {
  // One shared copy of the callback for the whole batch: each pending
  // entry is a 16-byte shared_ptr wrapper (inside std::function's small
  // buffer), not a fresh copy of the caller's callable.
  const auto shared = std::make_shared<const Callback>(callback);
  return SubmitBatchImpl(requests, [&shared](std::size_t) {
    return Callback(
        [shared](const WireResponse& response) { (*shared)(response); });
  });
}

std::size_t WireClient::SubmitBatch(const std::vector<WireRequest>& requests,
                                    std::vector<Callback> callbacks) {
  if (callbacks.size() != requests.size()) {
    for (Callback& callback : callbacks) {
      WireResponse dead;
      dead.status = WireStatus::kTransportError;
      dead.body = "batch callbacks/requests length mismatch";
      if (callback) callback(dead);
    }
    return 0;
  }
  return SubmitBatchImpl(requests, [&callbacks](std::size_t i) {
    return std::move(callbacks[i]);
  });
}

std::size_t WireClient::SubmitBatchImpl(
    const std::vector<WireRequest>& requests,
    const std::function<Callback(std::size_t)>& callback_at) {
  if (requests.empty()) return 0;
  // One contiguous id block: request i goes out as first + i.
  const std::uint64_t first =
      next_id_.fetch_add(requests.size(), std::memory_order_relaxed);
  std::size_t size_hint = 0;
  for (const WireRequest& request : requests) {
    size_hint += EncodedSizeHint(request);
  }
  // One pooled buffer holds the whole batch; requests are encoded in
  // place from the caller's structs (no per-request copy), ids stamped
  // into the frames only.
  // A request over the frame cap is rolled back out of the buffer and
  // refused alone; the rest of the batch still goes out.
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(size_hint);
  std::vector<std::size_t> refused;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t frame_start = buffer.bytes().size();
    if (!EncodeRequest(requests[i], first + i, buffer.bytes())) {
      buffer.bytes().resize(frame_start);
      refused.push_back(i);
    }
  }
  std::size_t failed = 0;
  (void)Send(buffer.bytes(), first, requests.size(), [&] {
    auto next_refused = refused.begin();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (next_refused != refused.end() && *next_refused == i) {
        ++next_refused;
        continue;
      }
      EmplacePendingLocked(first + i, callback_at(i));
    }
  }, &failed);
  for (const std::size_t i : refused) {
    RefuseOversized(first + i, callback_at(i));
  }
  return requests.size() - refused.size() - failed;
}

bool WireClient::Subscribe(const WireSubscribe& subscribe,
                           EventHandler on_event, AckCallback on_ack) {
  WireSubscribe stamped = subscribe;
  stamped.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(kRequestOverhead);
  EncodeSubscribe(stamped, buffer.bytes());
  return Send(buffer.bytes(), stamped.request_id, 1, [&] {
    PendingSub pending;
    pending.ack = std::move(on_ack);
    pending.handler = std::make_shared<const EventHandler>(std::move(on_event));
    pending.is_subscribe = true;
    pending_subs_.emplace(stamped.request_id, std::move(pending));
  });
}

bool WireClient::Unsubscribe(std::uint64_t subscription_id,
                             AckCallback on_ack) {
  WireUnsubscribe request;
  request.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.subscription_id = subscription_id;
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(kRequestOverhead);
  EncodeUnsubscribe(request, buffer.bytes());
  return Send(buffer.bytes(), request.request_id, 1, [&] {
    PendingSub pending;
    pending.ack = std::move(on_ack);
    pending.is_subscribe = false;
    pending.subscription_id = subscription_id;
    pending_subs_.emplace(request.request_id, std::move(pending));
  });
}

void WireClient::HandleSubscribeAck(const WireSubscribeAck& ack) {
  AckCallback callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_subs_.find(ack.request_id);
    if (it == pending_subs_.end()) return;  // already failed elsewhere
    PendingSub pending = std::move(it->second);
    pending_subs_.erase(it);
    callback = std::move(pending.ack);
    if (pending.is_subscribe) {
      // Install before the ack callback runs: the server queued this
      // ack ahead of the subscription's first event, and the reader
      // processes frames in order, so no event can beat the handler.
      if (ack.status == WireStatus::kOk && pending.handler) {
        event_handlers_.emplace(ack.subscription_id,
                                std::move(pending.handler));
      }
    } else if (ack.status == WireStatus::kOk) {
      event_handlers_.erase(pending.subscription_id);
    }
  }
  if (callback) callback(ack);
}

void WireClient::HandleEvent(WireEvent&& event) {
  std::shared_ptr<const EventHandler> handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = event_handlers_.find(event.subscription_id);
    if (it == event_handlers_.end()) return;  // unsubscribed or unknown
    handler = it->second;
    // kDrainOnce streams end themselves; drop the handler with the
    // marker still to be delivered below.
    if (event.kind == EventKind::kEndOfDrain) event_handlers_.erase(it);
  }
  // Outside mutex_: the handler may re-enter Submit/Subscribe.
  (*handler)(event);
}

bool WireClient::Call(WireRequest request, WireResponse* response) {
  return AwaitResponse(
      [&](Callback done) { Submit(request, std::move(done)); }, response);
}

bool WireClient::SubmitScript(const WireScriptRequest& script,
                              Callback callback) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::size_t size_hint = 64 + script.source.size();
  for (const auto& [name, value] : script.args) {
    size_hint += name.size() + value.size() + 16;
  }
  support::PooledBuffer buffer =
      support::BufferPool::WirePool().Acquire(size_hint);
  if (!EncodeScript(script, id, buffer.bytes())) {
    RefuseOversized(id, callback);
    return false;
  }
  return Send(buffer.bytes(), id, 1,
              [&] { EmplacePendingLocked(id, std::move(callback)); });
}

bool WireClient::CallScript(const WireScriptRequest& script,
                            WireResponse* response) {
  return AwaitResponse(
      [&](Callback done) { SubmitScript(script, std::move(done)); }, response);
}

void WireClient::Close() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    // Shut down rather than close: the reader thread wakes with EOF and
    // fails outstanding callbacks; the fd stays valid until the join.
    ::shutdown(fd, SHUT_RDWR);
  }
  connected_.store(false, std::memory_order_release);
  if (reader_.joinable()) reader_.join();
  {
    // close() only under send_mutex_ (see fd_'s comment): a Submit that
    // raced past the connected_ check and is inside WriteAll right now
    // holds it, so its write hits the shut-down-but-still-valid fd — a
    // clean EPIPE, never a descriptor number the kernel has re-issued.
    std::lock_guard<std::mutex> lock(send_mutex_);
    const int cur = fd_.load(std::memory_order_relaxed);
    if (cur >= 0) {
      ::close(cur);
      fd_.store(-1, std::memory_order_release);
    }
  }
  FailAllOutstanding();  // e.g. Close() racing sends; normally a no-op
}

std::size_t WireClient::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void WireClient::ReaderLoop() {
  // One load for the thread's lifetime: the fd is set before the reader
  // starts and closed only after it is joined.
  const int fd = fd_.load(std::memory_order_acquire);
  std::vector<std::uint8_t> carry;  // partial-frame bytes between reads
  std::uint8_t chunk[kReadChunk];
  bool dead = false;

  // Decode and dispatch every complete frame in [data, data+size);
  // returns the bytes consumed. Sets `dead` when the server broke
  // protocol or the unowned-frame handler dropped the connection.
  const auto drain = [&](const std::uint8_t* data,
                         std::size_t size) -> std::size_t {
    std::size_t off = 0;
    while (true) {
      FrameView frame;
      std::size_t consumed = 0;
      const DecodeStatus status =
          DecodeFrame(data + off, size - off, &frame, &consumed, nullptr);
      if (status == DecodeStatus::kNeedMore) return off;
      if (status == DecodeStatus::kMalformed || !Dispatch(frame)) {
        dead = true;
        return off;
      }
      off += consumed;
    }
  };

  while (!dead) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: fail everything below
    const std::size_t got = static_cast<std::size_t>(n);
    if (carry.empty()) {
      // Fast path: decode straight out of the read chunk; only a
      // trailing partial frame is copied into the carry-over buffer.
      const std::size_t used = drain(chunk, got);
      if (!dead && used < got) carry.assign(chunk + used, chunk + got);
    } else {
      carry.insert(carry.end(), chunk, chunk + got);
      const std::size_t used = drain(carry.data(), carry.size());
      if (used == carry.size()) {
        carry.clear();
      } else if (used > 0) {
        carry.erase(carry.begin(), carry.begin() +
                                       static_cast<std::ptrdiff_t>(used));
      }
    }
  }
  connected_.store(false, std::memory_order_release);
  FailAllOutstanding();
  if (on_unowned_) (void)on_unowned_(nullptr);
}

void WireClient::FailAllOutstanding() {
  std::unordered_map<std::uint64_t, Callback> orphans;
  std::unordered_map<std::uint64_t, PendingSub> sub_orphans;
  std::unordered_map<std::uint64_t, std::shared_ptr<const EventHandler>>
      handlers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    orphans.swap(pending_);
    sub_orphans.swap(pending_subs_);
    handlers.swap(event_handlers_);
  }
  for (const auto& [id, callback] : orphans) FailRequest(id, callback);
  for (const auto& [id, pending] : sub_orphans) FailAck(id, pending);
  // Each live subscription gets one final synthetic gap marker with
  // cursor 0: "the stream is gone — re-subscribe with your last cursor".
  // Real shed ranges always carry cursors >= 1, so the two are
  // distinguishable (the cluster client's repair path keys off this).
  for (auto& [id, handler] : handlers) {
    WireEvent dead;
    dead.subscription_id = id;
    dead.kind = EventKind::kEventsDropped;
    (*handler)(dead);
  }
}

}  // namespace mobivine::wire
