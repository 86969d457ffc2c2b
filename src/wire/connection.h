// One accepted TCP connection inside a reactor loop (wire/reactor.h).
//
// Threading model: the owning loop is the only thread that touches the
// socket, the input ring and epoll state. Other threads (gateway shard
// workers, push publishers) touch exactly one thing — the bounded output
// queue (QueueOutput, under its own mutex) — and then poke the loop's
// eventfd; the loop drains the queue into the socket. A connection is
// held by shared_ptr: the loop's fd map keeps one reference, and every
// in-flight completion callback keeps another, so a completion arriving
// after the socket closed lands on a live object, sees `closed()`, and
// drops the bytes. It holds its loop weakly for the same reason.
//
// Output is a queue of pooled frame buffers, not one flat byte vector:
// a completion moves its encoded frame in (zero copy), and the loop
// drains the whole run with a single writev — each fully written buffer
// returns to the pool on the spot. High/low watermarks count total
// queued-plus-unsent bytes across the iovec run, same semantics as the
// old flat queue.
//
// Backpressure: when queued-but-unsent output crosses the high
// watermark, the loop stops reading this socket (the kernel receive
// buffer then fills and TCP closes the peer's window — real transport
// backpressure, composing with the gateway's shed/deadline admission
// which bounds what the server itself will buy into). Reading resumes
// once the backlog drains below the low watermark.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "support/buffer_pool.h"

namespace mobivine::wire {

/// Power-of-two byte ring for the read side. The decoder needs frames
/// contiguous, so Contiguous() linearizes wrapped data once per read
/// pass (in place — no allocation; the common case, head before tail,
/// is a no-op returning an interior pointer). WriteWindow/CommitWrite
/// let the socket read() land directly in the ring, skipping the
/// stack-chunk-then-memcpy hop.
///
/// The generation counter is the zero-copy decode contract: any
/// string_view into Contiguous() is valid only while generation() is
/// unchanged. Growing, linearizing and consuming all bump it — consume
/// marks the recycle horizon (those bytes may be overwritten by the next
/// append), grow/linearize move the storage itself.
class ByteRing {
 public:
  explicit ByteRing(std::size_t capacity_hint = 16 * 1024);

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Append bytes, growing (doubling) as needed.
  void Append(const std::uint8_t* data, std::size_t n);

  /// Drop n bytes from the front (n <= size()). Bumps the generation:
  /// views into the dropped range are past the recycle horizon.
  void Consume(std::size_t n);

  /// Pointer to size() contiguous readable bytes, linearizing (in place)
  /// if the data wraps. Valid until the next Append/Consume/WriteWindow.
  [[nodiscard]] const std::uint8_t* Contiguous();

  /// Writable tail window for direct socket reads: ensures at least
  /// `min_free` bytes are free (growing if not), then returns the
  /// contiguous writable run and its length in *available. Follow with
  /// CommitWrite(n) for the bytes actually read.
  [[nodiscard]] std::uint8_t* WriteWindow(std::size_t min_free,
                                          std::size_t* available);
  void CommitWrite(std::size_t n) { size_ += n; }

  /// Bumped whenever readable bytes may move or be reclaimed; see the
  /// class comment. The staleness guard for zero-copy request views.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  void Grow(std::size_t needed);

  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  ///< read position
  std::size_t size_ = 0;  ///< bytes stored
  std::uint64_t generation_ = 0;
};

class ReactorLoop;

class Connection {
 public:
  Connection(int fd, std::uint64_t id, std::weak_ptr<ReactorLoop> loop)
      : fd_(fd), id_(id), loop_(std::move(loop)) {}

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::weak_ptr<ReactorLoop>& loop() const {
    return loop_;
  }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  void MarkClosed() { closed_.store(true, std::memory_order_release); }

  ByteRing& input() { return input_; }

  /// Move an encoded frame into the output queue (any thread) — the
  /// buffer changes hands, no bytes are copied. Returns the queued byte
  /// total so the caller can decide to notify the loop; returns 0 when
  /// the connection is already closed (the frame returns to its pool).
  std::size_t QueueOutput(support::PooledBuffer&& frame) {
    if (closed()) return 0;
    const std::size_t frame_bytes = frame.bytes().size();
    std::lock_guard<std::mutex> lock(out_mutex_);
    out_queue_.push_back(std::move(frame));
    out_queue_bytes_ += frame_bytes;
    const std::size_t total = out_queue_bytes_ + unsent_write_bytes_;
    pending_out_.store(total, std::memory_order_relaxed);
    return total;
  }

  /// Loop thread: move queued frames onto the loop-side write run (the
  /// writev iovec source). Returns the bytes taken.
  std::size_t TakeQueued(std::vector<support::PooledBuffer>& into) {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (out_queue_.empty()) return 0;
    const std::size_t taken = out_queue_bytes_;
    if (into.empty()) {
      into.swap(out_queue_);  // both vectors keep their capacity
    } else {
      for (support::PooledBuffer& frame : out_queue_) {
        into.push_back(std::move(frame));
      }
      out_queue_.clear();
    }
    out_queue_bytes_ = 0;
    return taken;
  }

  /// Loop thread: record how much of the write run remains unsent, so
  /// QueueOutput's watermark total counts bytes the kernel refused too.
  void SetUnsentWriteBytes(std::size_t n) {
    std::lock_guard<std::mutex> lock(out_mutex_);
    unsent_write_bytes_ = n;
    pending_out_.store(out_queue_bytes_ + n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t pending_output_bytes() const {
    return pending_out_.load(std::memory_order_relaxed);
  }

  /// Dedupe loop notifications: first caller since the last drain wins.
  [[nodiscard]] bool ClaimNotify() {
    return !notify_pending_.exchange(true, std::memory_order_acq_rel);
  }
  void ClearNotify() { notify_pending_.store(false, std::memory_order_release); }

  // Loop-thread-only state (no synchronization needed).
  /// The write run being drained into the socket: buffers [write_start,
  /// size) are pending, with write_offset bytes of the front one already
  /// sent; write_bytes is the pending total. Fully written buffers are
  /// released back to the pool as writev advances.
  std::vector<support::PooledBuffer> write_bufs;
  std::size_t write_start = 0;
  std::size_t write_offset = 0;
  std::size_t write_bytes = 0;
  bool out_armed = false;   ///< EPOLLOUT currently registered for this fd
  bool paused = false;      ///< reading stopped by the output watermark

 private:
  const int fd_;
  const std::uint64_t id_;
  const std::weak_ptr<ReactorLoop> loop_;
  std::atomic<bool> closed_{false};
  ByteRing input_;

  std::mutex out_mutex_;
  std::vector<support::PooledBuffer> out_queue_;  ///< written by any thread
  std::size_t out_queue_bytes_ = 0;
  std::size_t unsent_write_bytes_ = 0;
  std::atomic<std::size_t> pending_out_{0};
  std::atomic<bool> notify_pending_{false};
};

}  // namespace mobivine::wire
