#include "cluster/controller.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "support/logging.h"
#include "support/trace.h"

namespace mobivine::cluster {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;

/// listen(2) backlog of the control listener.
constexpr int kListenBacklog = 64;

[[nodiscard]] std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct Controller::Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;   ///< partial-frame carry
  std::vector<std::uint8_t> out;  ///< unsent encoded frames
  std::size_t out_off = 0;
  std::uint64_t worker_id = 0;  ///< nonzero after a successful kRegister
  bool subscribed = false;      ///< receives unsolicited kPlanPush
  bool closed = false;
};

Controller::Controller(ControllerConfig config)
    : config_(config),
      membership_(config.membership) {}

Controller::~Controller() { Stop(); }

bool Controller::Start(std::string* error) {
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
  stop_eventfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_eventfd_ < 0) {
    if (error != nullptr) *error = "eventfd failed";
    return false;
  }
  thread_ = std::thread([this] { Run(); });
  return true;
}

void Controller::Stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (stopping_.exchange(true)) return;
  if (stop_eventfd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(stop_eventfd_, &one, sizeof one);
  }
  if (thread_.joinable()) thread_.join();
  for (auto& conn : conns_) {
    if (!conn->closed) ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (stop_eventfd_ >= 0) {
    ::close(stop_eventfd_);
    stop_eventfd_ = -1;
  }
}

void Controller::Run() {
  support::trace::SetCurrentThreadName("cluster-ctrl");
  std::vector<pollfd> fds;
  std::uint64_t last_sweep_us = NowMicros();
  const std::uint64_t sweep_every_us =
      std::max<std::uint64_t>(config_.membership.heartbeat_interval_us / 2, 1);
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({stop_eventfd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (conn->out_off < conn->out.size()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    const int timeout_ms = static_cast<int>(
        std::max<std::uint64_t>(sweep_every_us / 1000, 1));
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      MOBIVINE_LOG_ERROR << "cluster: controller poll failed: "
                         << std::strerror(errno);
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // Stop() woke us
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();
    // fds[2..] align with the conns_ present when the pollfd array was
    // built; connections AcceptNew just appended are polled next round.
    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      Conn& conn = *conns_[i];
      const short revents = fds[i + 2].revents;
      if (conn.closed) continue;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((revents & POLLOUT) != 0 && !FlushConn(conn)) continue;
      if ((revents & POLLIN) != 0) HandleReadable(conn);
    }
    // Reap closed connections (kept in place during the event pass so
    // fds[] indices stay aligned).
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& conn) {
                                  return conn->closed;
                                }),
                 conns_.end());
    const std::uint64_t now_us = NowMicros();
    if (now_us - last_sweep_us >= sweep_every_us) {
      last_sweep_us = now_us;
      if (membership_.Tick(now_us)) {
        // Count silence-detected deaths (connection-close deaths are
        // booked in CloseConn).
        counters_.Add(ControllerCounter::deaths);
        support::trace::Instant("cluster.worker_dead");
        BroadcastPlan();
      }
      epoch_.store(membership_.plan().epoch, std::memory_order_relaxed);
      workers_alive_.store(membership_.alive_count(),
                           std::memory_order_relaxed);
      workers_suspect_.store(membership_.suspect_count(),
                             std::memory_order_relaxed);
    }
  }
}

void Controller::AcceptNew() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Controller::CloseConn(Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  ::close(conn.fd);
  connections_.fetch_sub(1, std::memory_order_relaxed);
  if (conn.worker_id != 0) {
    // A registered worker's socket died without a kLeave: that is a
    // death, detected at kernel speed — remove it from the plan now
    // rather than waiting out the heartbeat sweep.
    const std::uint64_t worker_id = conn.worker_id;
    conn.worker_id = 0;
    if (membership_.Remove(worker_id, WorkerHealth::kDead)) {
      counters_.Add(ControllerCounter::deaths);
      support::trace::Instant(
          "cluster.worker_dead", "worker",
          static_cast<std::int64_t>(worker_id));
      epoch_.store(membership_.plan().epoch, std::memory_order_relaxed);
      BroadcastPlan();
    }
  }
}

bool Controller::FlushConn(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    // MSG_NOSIGNAL: an agent that died mid-push must read as EPIPE on
    // this connection, not SIGPIPE for the controller.
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    CloseConn(conn);
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void Controller::SendTo(Conn& conn, const ControlMessage& message) {
  if (conn.closed) return;
  if (message.op == ControlOp::kPlanPush) {
    counters_.Add(ControllerCounter::plan_pushes);
  }
  EncodeControl(message, conn.out);
  if (conn.out.size() - conn.out_off > config_.max_output_backlog) {
    // A control peer that stopped reading must not wedge the plane.
    CloseConn(conn);
    return;
  }
  (void)FlushConn(conn);
}

void Controller::BroadcastPlan() {
  ControlMessage push;
  push.op = ControlOp::kPlanPush;
  push.correlation_id = 0;  // unsolicited
  push.plan = membership_.plan();
  push.epoch = push.plan.epoch;
  support::trace::Instant("cluster.plan_push", "epoch",
                          static_cast<std::int64_t>(push.plan.epoch));
  for (auto& conn : conns_) {
    if (!conn->closed && conn->subscribed) SendTo(*conn, push);
  }
}

void Controller::HandleReadable(Conn& conn) {
  while (!conn.closed) {
    std::uint8_t chunk[kReadChunk];
    const ssize_t n = ::read(conn.fd, chunk, sizeof chunk);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn);  // EOF or hard error
    return;
  }
  std::size_t offset = 0;
  while (!conn.closed) {
    wire::FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    const wire::DecodeStatus status =
        wire::DecodeFrame(conn.in.data() + offset, conn.in.size() - offset,
                          &frame, &consumed, &error);
    if (status == wire::DecodeStatus::kNeedMore) break;
    if (status == wire::DecodeStatus::kMalformed) {
      counters_.Add(ControllerCounter::control_errors);
      MOBIVINE_LOG_DEBUG << "cluster: closing control peer: " << error;
      CloseConn(conn);
      return;
    }
    HandleFrame(conn, frame);
    offset += consumed;
  }
  if (offset > 0 && !conn.closed) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

void Controller::HandleFrame(Conn& conn, const wire::FrameView& frame) {
  if (frame.type == wire::FrameType::kControl) {
    ControlMessage message;
    std::string error;
    if (!DecodeControl(frame.payload, frame.payload_size, &message, &error)) {
      counters_.Add(ControllerCounter::control_errors);
      ControlMessage reply;
      reply.op = ControlOp::kError;
      (void)wire::PeekPayloadId(frame.payload, frame.payload_size,
                                &reply.correlation_id);
      reply.message = error;
      SendTo(conn, reply);
      return;
    }
    HandleControl(conn, message);
    return;
  }
  // The controller serves no data; answer kRequest in-band so a
  // misdirected data client gets a typed error, and tolerate anything
  // else (forward compatibility — same stance as the data plane).
  if (frame.type == wire::FrameType::kRequest) {
    counters_.Add(ControllerCounter::control_errors);
    wire::WireResponse response;
    (void)wire::PeekPayloadId(frame.payload, frame.payload_size,
                              &response.request_id);
    response.status = wire::WireStatus::kUnsupportedFrame;
    response.body = "controller serves control frames only";
    std::vector<std::uint8_t>& out = encode_scratch_;
    out.clear();
    wire::EncodeResponse(response, out);
    conn.out.insert(conn.out.end(), out.begin(), out.end());
    (void)FlushConn(conn);
  }
}

void Controller::HandleControl(Conn& conn, const ControlMessage& message) {
  support::trace::Span span("cluster.control");
  span.Tag("op", static_cast<std::int64_t>(message.op));
  const std::uint64_t now_us = NowMicros();
  switch (message.op) {
    case ControlOp::kRegister: {
      const RegisterOutcome outcome = membership_.Register(
          message.worker_id, static_cast<std::uint16_t>(message.data_port),
          now_us);
      ControlMessage ack;
      ack.op = ControlOp::kRegisterAck;
      ack.correlation_id = message.correlation_id;
      if (outcome == RegisterOutcome::kRejected) {
        ack.status = AckStatus::kRejected;
        ack.message = "worker_id must be nonzero";
        counters_.Add(ControllerCounter::control_errors);
        SendTo(conn, ack);
        return;
      }
      counters_.Add(ControllerCounter::registers);
      if (outcome == RegisterOutcome::kRejoined) {
        counters_.Add(ControllerCounter::rejoins);
      }
      if (outcome == RegisterOutcome::kReplaced) {
        counters_.Add(ControllerCounter::replaces);
      }
      conn.worker_id = message.worker_id;
      conn.subscribed = true;
      ack.plan = membership_.plan();
      ack.epoch = ack.plan.epoch;
      epoch_.store(ack.plan.epoch, std::memory_order_relaxed);
      workers_alive_.store(membership_.alive_count(),
                           std::memory_order_relaxed);
      SendTo(conn, ack);
      // Everyone else learns about the join via an unsolicited push (the
      // joiner just got the plan in its ack).
      ControlMessage push;
      push.op = ControlOp::kPlanPush;
      push.plan = membership_.plan();
      push.epoch = push.plan.epoch;
      support::trace::Instant("cluster.plan_push", "epoch",
                              static_cast<std::int64_t>(push.plan.epoch));
      for (auto& other : conns_) {
        if (!other->closed && other->subscribed && other.get() != &conn) {
          SendTo(*other, push);
        }
      }
      return;
    }
    case ControlOp::kHeartbeat: {
      counters_.Add(ControllerCounter::heartbeats);
      const bool known = membership_.Heartbeat(message.worker_id, now_us);
      ControlMessage ack;
      ack.op = ControlOp::kHeartbeatAck;
      ack.correlation_id = message.correlation_id;
      ack.epoch = membership_.plan().epoch;
      // kRejected tells a zombie (declared dead while it was wedged) to
      // re-register instead of heartbeating into the void.
      ack.status = known ? AckStatus::kOk : AckStatus::kRejected;
      SendTo(conn, ack);
      return;
    }
    case ControlOp::kPlanGet: {
      conn.subscribed = true;  // plan watchers get future pushes too
      ControlMessage reply;
      reply.op = ControlOp::kPlanPush;
      reply.correlation_id = message.correlation_id;
      reply.plan = membership_.plan();
      reply.epoch = reply.plan.epoch;
      SendTo(conn, reply);
      return;
    }
    case ControlOp::kLeave: {
      counters_.Add(ControllerCounter::leaves);
      const std::uint64_t worker_id =
          message.worker_id != 0 ? message.worker_id : conn.worker_id;
      conn.worker_id = 0;  // the close that follows is not a death
      const bool changed = membership_.Remove(worker_id, WorkerHealth::kLeft);
      ControlMessage ack;
      ack.op = ControlOp::kLeaveAck;
      ack.correlation_id = message.correlation_id;
      ack.epoch = membership_.plan().epoch;
      SendTo(conn, ack);
      if (changed) {
        epoch_.store(membership_.plan().epoch, std::memory_order_relaxed);
        BroadcastPlan();
      }
      // Tell the leaver to drain: it already stopped being routed to by
      // the new plan; kDrain bounds the handover of in-flight work.
      ControlMessage drain;
      drain.op = ControlOp::kDrain;
      drain.epoch = membership_.plan().epoch;
      counters_.Add(ControllerCounter::drains_sent);
      SendTo(conn, drain);
      return;
    }
    case ControlOp::kDrainAck:
      counters_.Add(ControllerCounter::drain_acks);
      return;
    case ControlOp::kError:
      counters_.Add(ControllerCounter::control_errors);
      return;
    case ControlOp::kRegisterAck:
    case ControlOp::kHeartbeatAck:
    case ControlOp::kPlanPush:
    case ControlOp::kLeaveAck:
    case ControlOp::kDrain:
      // Server-to-peer ops arriving at the controller: a confused peer.
      counters_.Add(ControllerCounter::control_errors);
      return;
  }
}

ControllerStatsSnapshot Controller::Stats() const {
  ControllerStatsSnapshot snap;
  snap.epoch = epoch_.load(std::memory_order_relaxed);
  snap.workers_alive = workers_alive_.load(std::memory_order_relaxed);
  snap.workers_suspect = workers_suspect_.load(std::memory_order_relaxed);
  snap.connections = connections_.load(std::memory_order_relaxed);
  counters_.LoadInto(snap);
  return snap;
}

support::MetricsRegistry::Registration Controller::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        const ControllerStatsSnapshot snap = Stats();
        sink.Gauge("epoch", static_cast<double>(snap.epoch));
        sink.Gauge("workers_alive", static_cast<double>(snap.workers_alive));
        sink.Gauge("workers_suspect",
                   static_cast<double>(snap.workers_suspect));
        sink.Counter("connections", snap.connections);
        support::ExportCounters(sink, kControllerCounters, snap);
      });
}

}  // namespace mobivine::cluster
