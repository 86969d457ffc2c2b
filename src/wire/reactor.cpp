#include "wire/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "support/logging.h"
#include "support/trace.h"

namespace mobivine::wire {

namespace {

/// Free-space floor a read pass keeps in the input ring: each read()
/// lands directly in the ring's writable tail, so this is also the
/// per-syscall read granularity.
constexpr std::size_t kReadReserve = 16 * 1024;
/// iovec entries per writev. Linux caps at IOV_MAX (1024); 64 covers a
/// flush run comfortably — longer runs just loop.
constexpr int kMaxIov = 64;
/// Compact the loop-side write run when this many released front slots
/// accumulate behind a long-lived partial write.
constexpr std::size_t kWriteRunCompactAt = 64;
/// listen(2) backlog of the loopback listener.
constexpr int kListenBacklog = 128;

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

class ReactorLoop : public std::enable_shared_from_this<ReactorLoop> {
 public:
  ReactorLoop(Reactor& reactor, int index)
      : reactor_(reactor),
        index_(index),
        handler_(reactor.handlers_[static_cast<std::size_t>(index)]) {}

  ~ReactorLoop() {
    for (int fd : {epoll_fd_, wake_fd_, tick_fd_}) {
      if (fd >= 0) ::close(fd);
    }
  }

  /// Make the loop's descriptors; `listen_fd` >= 0 puts the listener in
  /// its epoll set. Spawn starts the thread.
  bool Open(int listen_fd, std::string* error) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Fail(error, "epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Fail(error, "eventfd failed");
    if (!Watch(wake_fd_)) return Fail(error, "epoll_ctl(eventfd) failed");
    listen_fd_ = listen_fd;
    if (listen_fd_ >= 0 && !Watch(listen_fd_)) {
      return Fail(error, "epoll_ctl(listener) failed");
    }
    if (const std::uint64_t tick_us = reactor_.config_.tick_us; tick_us > 0) {
      tick_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
      itimerspec every{};
      every.it_interval.tv_sec = static_cast<time_t>(tick_us / 1'000'000);
      every.it_interval.tv_nsec = static_cast<long>(tick_us % 1'000'000) * 1000;
      every.it_value = every.it_interval;
      if (tick_fd_ < 0 ||
          ::timerfd_settime(tick_fd_, 0, &every, nullptr) != 0 ||
          !Watch(tick_fd_)) {
        return Fail(error, "timerfd failed");
      }
    }
    return true;
  }

  void Spawn() {
    thread_ = std::thread([this] { Run(); });
  }

  /// Loop 0's thread: take a freshly accepted (nonblocking) socket. Closed
  /// at once if the loop is already stopping.
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

  /// Any thread: this connection has output queued.
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

  void Close(const std::shared_ptr<Connection>& conn) {
    if (conn->closed()) return;
    conn->MarkClosed();
    // The handler tears down what it keeps for the connection first (a
    // subscription fences its feed listener), so nothing is left poking
    // a dead fd.
    handler_->OnClose(conn);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
    ::close(conn->fd());
    conns_.erase(conn->fd());
    Count(ReactorCounter::connections_closed);
    reactor_.counters_.Sub(ReactorCounter::connections_open);
  }

 private:
  bool Watch(int fd) const {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }

  std::uint64_t Count(ReactorCounter counter, std::uint64_t n = 1) {
    return reactor_.counters_.Add(counter, n);
  }

  void Run() {
    const std::string& name = reactor_.config_.thread_name;
    support::trace::SetCurrentThreadName(
        !name.empty() && name.back() == '-' ? name + std::to_string(index_)
                                            : name);
    epoll_event events[64];
    bool stopping = false;
    std::vector<int> pending_fds;
    std::vector<std::shared_ptr<Connection>> notified;
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
        const int fd = ev.data.fd;
        if (fd == wake_fd_ || fd == tick_fd_) {
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(fd, &drained, sizeof drained);
          if (fd == tick_fd_) handler_->OnTick();
          continue;
        }
        if (fd == listen_fd_) {
          AcceptAll();
          continue;
        }
        const auto it = conns_.find(fd);
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
      pending_fds.clear();
      notified.clear();
    }
    // Close everything still open; in-flight completions hold their own
    // shared_ptrs and will see closed().
    std::vector<std::shared_ptr<Connection>> remaining;
    remaining.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) remaining.push_back(conn);
    for (auto& conn : remaining) Close(conn);
  }

  /// Loop 0: accept until EAGAIN, dealing sockets round-robin.
  void AcceptAll() {
    const auto& loops = reactor_.loops_;
    while (true) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (or a transient error): back to epoll
      ReactorLoop& loop = *loops[reactor_.next_loop_++ % loops.size()];
      if (&loop == this) {
        Register(fd);
      } else {
        loop.Adopt(fd);
      }
    }
  }

  void Register(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // The accept count before this one is the connection's id.
    auto conn = std::make_shared<Connection>(
        fd, Count(ReactorCounter::connections_accepted), weak_from_this());
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
      Count(ReactorCounter::connections_closed);
      return;
    }
    reactor_.counters_.Add(ReactorCounter::connections_open);
    conns_.emplace(fd, std::move(conn));
  }

  /// Edge-triggered read pass: drain the socket to EAGAIN, then decode.
  /// Each read() lands directly in the ring's writable tail window — no
  /// intermediate stack chunk, no second memcpy.
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
    Count(ReactorCounter::bytes_in, total);
    if (total > 0) DecodePass(conn);
    if (peer_closed && !conn->closed()) Close(conn);
  }

  /// Hand every complete frame in the ring to the handler. Pipelining is
  /// free here: each frame is an independent OnFrame.
  ///
  /// Linearization is hoisted out of the loop: nothing inside it touches
  /// the ring (handlers borrow views and copy what they keep before
  /// returning), so `base` stays valid across frames. The generation
  /// stamp makes that contract checkable — asserted after every frame.
  void DecodePass(const std::shared_ptr<Connection>& conn) {
    support::trace::Span span("wire.decode");
    std::int64_t frames = 0;
    ByteRing& ring = conn->input();
    const std::uint8_t* base = ring.Contiguous();
    [[maybe_unused]] const std::uint64_t generation = ring.generation();
    std::size_t offset = 0;
    bool refused = false;
    while (!refused && !conn->closed()) {
      FrameView frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status = DecodeFrame(
          base + offset, ring.size() - offset, &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kMalformed) {
        MOBIVINE_LOG_DEBUG << "wire: closing connection " << conn->id()
                           << ": " << error;
        refused = true;
        break;
      }
      Count(ReactorCounter::frames_in);
      ++frames;
      refused = !handler_->OnFrame(conn, frame);
      assert(ring.generation() == generation);
      offset += consumed;
    }
    ring.Consume(offset);
    span.Tag("frames", frames);
    if (refused) {
      Count(ReactorCounter::protocol_errors);
      support::trace::Instant("wire.protocol_error");
      Close(conn);
      return;
    }
    MaybePause(conn);
    Flush(conn);
  }

  void MaybePause(const std::shared_ptr<Connection>& conn) {
    if (!conn->paused &&
        conn->pending_output_bytes() >= handler_->watermarks.pause_at) {
      conn->paused = true;
      Count(ReactorCounter::backpressure_stalls);
      support::trace::Instant(
          "wire.backpressure_pause", "pending",
          static_cast<std::int64_t>(conn->pending_output_bytes()));
    }
  }

  /// Arm or disarm EPOLLOUT for this fd, eliding the epoll_ctl when the
  /// interest set is already right. The common case — every flush
  /// drains in one writev run — performs zero epoll_ctl calls for the
  /// connection's whole lifetime.
  void SetWriteInterest(const std::shared_ptr<Connection>& conn, bool want) {
    if (conn->out_armed == want) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
      conn->out_armed = want;
      if (want) Count(ReactorCounter::epollout_arms);
    }
  }

  /// Move queued frames onto the write run, counting them.
  void TakeQueued(const std::shared_ptr<Connection>& conn) {
    const std::size_t before = conn->write_bufs.size();
    conn->write_bytes += conn->TakeQueued(conn->write_bufs);
    Count(ReactorCounter::frames_out, conn->write_bufs.size() - before);
  }

  /// Take queued frames onto the write run and push the whole run with
  /// writev — one syscall covers every pipelined frame queued since the
  /// last flush, and each fully written buffer goes back to the pool on
  /// the spot.
  void Flush(const std::shared_ptr<Connection>& conn) {
    if (conn->closed()) return;
    conn->ClearNotify();  // before TakeQueued: later appends must re-wake
    (void)handler_->OnFlush(conn);
    TakeQueued(conn);
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
      Count(ReactorCounter::writev_calls);
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
          // The run just drained, which may reopen the handler's output
          // gate (the push pump) — refill and keep writing. The stale
          // pending total must be published first or the gate stays shut.
          conn->SetUnsentWriteBytes(0);
          if (handler_->OnFlush(conn)) TakeQueued(conn);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
        break;
      }
      span.Tag("bytes", static_cast<std::int64_t>(written));
      Count(ReactorCounter::bytes_out, written);
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
    Count(ReactorCounter::bytes_out, written);
    conn->SetUnsentWriteBytes(conn->write_bytes);
    // Watermark check on the post-flush backlog. The pause side matters
    // here too (not just in DecodePass): async completions can pile up
    // output on a connection that is not currently sending us anything.
    MaybePause(conn);
    if (conn->paused &&
        conn->pending_output_bytes() <= handler_->watermarks.resume_at) {
      conn->paused = false;
      support::trace::Instant("wire.backpressure_resume");
      // Bytes may have piled up in the kernel while paused; under
      // edge-triggered epoll nobody will re-announce them.
      ReadPass(conn);
    }
  }

  Reactor& reactor_;
  const int index_;
  ConnectionHandler* const handler_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int tick_fd_ = -1;
  int listen_fd_ = -1;  ///< loop 0 only; owned by the Reactor
  std::thread thread_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::mutex mutex_;
  bool stopping_ = false;
  std::vector<int> pending_fds_;
  std::vector<std::shared_ptr<Connection>> notified_;
};

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

Reactor::Reactor(Config config, std::vector<ConnectionHandler*> handlers)
    : config_(std::move(config)), handlers_(std::move(handlers)) {
  assert(!handlers_.empty());
}

Reactor::~Reactor() { Stop(); }

bool Reactor::Start(std::string* error) {
  if (started_.exchange(true)) return Fail(error, "already started");
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Fail(error, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return Fail(error, std::string("bind failed: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Fail(error, "listen failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // Every loop opens before any runs: loop 0 deals accepted sockets to
  // the others from its first wake-up, and they must be able to hear it.
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    loops_.push_back(std::make_shared<ReactorLoop>(*this, static_cast<int>(i)));
    if (!loops_.back()->Open(i == 0 ? listen_fd_ : -1, error)) return false;
  }
  for (auto& loop : loops_) loop->Spawn();
  return true;
}

void Reactor::Stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  // A second caller (e.g. the destructor after an explicit Stop): the
  // first one already joined everything.
  if (stopping_.exchange(true)) return;
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::size_t Reactor::Send(const std::shared_ptr<Connection>& conn,
                          support::PooledBuffer frame) {
  const std::size_t queued = conn->QueueOutput(std::move(frame));
  if (queued > 0) ScheduleFlush(conn);
  return queued;
}

void Reactor::ScheduleFlush(const std::shared_ptr<Connection>& conn) {
  if (!conn->ClaimNotify()) return;  // a flush is already scheduled
  if (const std::shared_ptr<ReactorLoop> loop = conn->loop().lock()) {
    loop->NotifyWritable(conn);
  } else {
    conn->ClearNotify();  // loop gone: connection already closed
  }
}

void Reactor::Close(const std::shared_ptr<Connection>& conn) {
  if (const std::shared_ptr<ReactorLoop> loop = conn->loop().lock()) {
    loop->Close(conn);
  }
}

}  // namespace mobivine::wire
