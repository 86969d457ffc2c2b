// The wire reactor: the one socket loop a MobiVine process runs, under the
// wire server's data plane and the cluster controller's membership plane.
//
//     loop 0: epoll_wait ── listener ── accept4 ──▶ round-robin ──▶ loop 0..N-1
//     loop k: epoll_wait → edge-triggered reads straight into each
//       connection's ByteRing → DecodeFrame → handler.OnFrame (a view
//       into the ring: zero copy) … any thread queues encoded frames with
//       Send(), which pokes the loop's eventfd; the loop runs
//       handler.OnFlush, then drains the whole output run with one
//       writev, each buffer back to the pool as it completes. EPOLLOUT is
//       armed only while the kernel refuses bytes.
//
// The owner's part is a ConnectionHandler per loop: it hears that a frame
// arrived, that a connection is about to flush, that one closed, and an
// optional periodic tick — one indirect call per frame, nothing per byte.
// Policy is the handler's too: its Watermarks pause reading a connection
// whose output backs up (the data plane), or it closes a peer itself (the
// control plane drops one past its backlog). Framing violations and
// frames the handler refuses close the connection as protocol_errors.
// Each connection belongs to one loop thread, which runs every handler
// call for it (wire/connection.h has the threading model).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/buffer_pool.h"
#include "support/counters.h"
#include "wire/connection.h"
#include "wire/protocol.h"

namespace mobivine::wire {

/// The reactor's transport counters: X(field, metric name, doc[, kind]).
/// Written by the loop threads only.
#define MOBIVINE_REACTOR_COUNTERS(X)                                         \
  X(connections_accepted, "connections_accepted", "connections accepted")    \
  X(connections_closed, "connections_closed", "connections closed")          \
  X(connections_open, "connections_active", "connections open now", kGauge) \
  X(frames_in, "frames_in", "well-formed frames decoded")                    \
  X(frames_out, "frames_out", "frames taken from output queues to write")    \
  X(bytes_in, "bytes_in", "bytes read from sockets")                         \
  X(bytes_out, "bytes_out", "bytes written to sockets")                      \
  X(protocol_errors, "protocol_errors",                                      \
    "framing errors and refused frames (connection closed)")                 \
  X(backpressure_stalls, "backpressure_stalls",                              \
    "read pauses at the watermark")                                          \
  X(writev_calls, "writev_calls", "scatter-gather flush syscalls")           \
  X(epollout_arms, "epollout_arms", "EPOLLOUT registrations (EAGAIN only)")

struct ReactorStats {
  MOBIVINE_REACTOR_COUNTERS(MOBIVINE_COUNTER_FIELD)
};

enum class ReactorCounter : std::size_t {
  MOBIVINE_REACTOR_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kReactorCounters =
    MOBIVINE_COUNTER_ROWS(ReactorStats, MOBIVINE_REACTOR_COUNTERS);

/// Read-side backpressure: stop reading a connection whose pending
/// output reaches `pause_at` bytes, resume at or below `resume_at`. The
/// default never pauses.
struct Watermarks {
  std::size_t pause_at = SIZE_MAX;
  std::size_t resume_at = SIZE_MAX;
};

/// What a reactor's owner does with its connections. Every call runs on
/// the loop thread that owns the connection.
class ConnectionHandler {
 public:
  explicit ConnectionHandler(Watermarks watermarks = {})
      : watermarks(watermarks) {}
  virtual ~ConnectionHandler() = default;

  /// One whole frame arrived. Its payload views the connection's input
  /// ring and is valid until this returns; nothing here may touch the
  /// ring. False refuses the frame: the connection closes once the
  /// decode pass ends.
  virtual bool OnFrame(const std::shared_ptr<Connection>& conn,
                       const FrameView& frame) = 0;
  /// `conn` is about to flush: top up its output (QueueOutput: the flush
  /// needs no wake) if there is more to send. True when it queued any.
  virtual bool OnFlush(const std::shared_ptr<Connection>& /*conn*/) {
    return false;
  }
  /// `conn` closed: it reads closed() and its socket is about to go.
  virtual void OnClose(const std::shared_ptr<Connection>& /*conn*/) {}
  /// Every Reactor::Config::tick_us, when that is set.
  virtual void OnTick() {}

  const Watermarks watermarks;
};

class ReactorLoop;

class Reactor {
 public:
  struct Config {
    /// Loopback only: a front-end for one host, not an internet-facing
    /// listener. 0: kernel-assigned; read back via port().
    std::uint16_t port = 0;
    /// OnTick period in microseconds; 0 never ticks.
    std::uint64_t tick_us = 0;
    /// M-Scope thread label: loop i runs as `thread_name` + i, or as
    /// `thread_name` alone when it does not end in '-'.
    std::string thread_name = "wire-loop-";
  };
  /// One loop per handler: loop i runs `handlers[i]`. The owner keeps
  /// each alive until Stop() returns.
  Reactor(Config config, std::vector<ConnectionHandler*> handlers);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind 127.0.0.1, listen, start the loops. False on socket-layer
  /// failure (`error` says why). Not restartable.
  [[nodiscard]] bool Start(std::string* error = nullptr);

  /// Close the listener and every connection (each handler hears its
  /// closes), join the loops. Idempotent; the destructor calls it.
  void Stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Copy the transport counters into `snap` (a ReactorStats or a type
  /// derived from it).
  template <typename Snapshot>
  void LoadStats(Snapshot& snap) const {
    counters_.LoadInto(snap);
  }

  /// Any thread: move one encoded frame onto `conn`'s output and wake its
  /// loop to flush it. Returns the queued byte total, or 0 when `conn`
  /// has closed (the frame goes back to its pool).
  static std::size_t Send(const std::shared_ptr<Connection>& conn,
                          support::PooledBuffer frame);
  /// Any thread: wake `conn`'s loop to flush it (running OnFlush).
  static void ScheduleFlush(const std::shared_ptr<Connection>& conn);
  /// `conn`'s loop thread: close it now.
  static void Close(const std::shared_ptr<Connection>& conn);

 private:
  friend class ReactorLoop;
  using Counters = support::CounterSet<ReactorCounter, kReactorCounters>;

  const Config config_;
  const std::vector<ConnectionHandler*> handlers_;
  Counters counters_;
  std::vector<std::shared_ptr<ReactorLoop>> loops_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_loop_ = 0;  ///< accept round-robin (loop 0's thread)
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace mobivine::wire
