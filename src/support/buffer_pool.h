// Size-classed frame-buffer pool for the wire hot path.
//
// Every encoded frame used to live in a fresh std::vector — one malloc
// and one free per request on both sides of the socket. The pool keeps
// released buffers on per-size-class freelists so a steady-state
// encode/decode cycle allocates nothing: Acquire() hands back a cleared
// vector whose capacity already covers the requested size, and the
// PooledBuffer RAII handle returns it when the frame has been written.
//
// One tier: a shelf per size class, bounded in depth and in parked
// bytes, with one lock taken per acquire and one per return. Frames are
// typically encoded on one thread (a gateway shard worker) and released
// on another (the event loop that finished the writev), so the shelf is
// the hand-off point. There is no per-thread cache in front of it. On
// perfbench (seed 3, 6 s) such a cache served 122k of wire_mixed's 278k
// acquires, 195k of push_fanout's 223k and 5.2k of script_composite's
// 10.3k, but a buffer released on a thread that seldom acquires (the
// wire loop, for every response) sat in that thread's cache, and each
// thread could park ~3 MiB beyond the shelves. With shelves alone the
// whole process parks at most 256 x 512 B + 4 x 1 MiB = 4.125 MiB
// (ParkedBytes()).
//
// Stats are relaxed atomics, snapshotable while serving. `misses` counts
// fresh heap allocations — the numerator of the wire bench's
// frame-buffer-allocations-per-request metric, which must be zero at
// steady state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace mobivine::support {

class BufferPool;

/// Move-only RAII handle over a pooled byte buffer. bytes() exposes the
/// underlying vector so existing append-style codecs work unchanged; the
/// buffer returns to its pool on destruction (or is simply freed when
/// the handle was created without a pool).
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        buf_(std::move(other.buf_)) {}
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { Release(); }

  [[nodiscard]] std::vector<std::uint8_t>& bytes() { return buf_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

  /// Return the buffer to the pool now (idempotent). The handle is left
  /// empty and unpooled.
  void Release();

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, std::vector<std::uint8_t>&& buf)
      : pool_(pool), buf_(std::move(buf)) {}

  BufferPool* pool_ = nullptr;
  std::vector<std::uint8_t> buf_;
};

struct BufferPoolStats {
  std::uint64_t hits = 0;     ///< Acquire served from a shelf
  std::uint64_t misses = 0;   ///< Acquire had to heap-allocate
  std::uint64_t returns = 0;  ///< buffers accepted back into the pool
  std::uint64_t trims = 0;    ///< buffers dropped (freelist full / oversize)
};

class BufferPool {
 public:
  /// Size classes: smallest class covering the request is acquired.
  /// Requests above the largest class are served unpooled (miss + trim).
  static constexpr std::size_t kClassSizes[] = {512, 4u << 10, 64u << 10,
                                                256u << 10, 1u << 20};
  static constexpr std::size_t kClassCount =
      sizeof(kClassSizes) / sizeof(kClassSizes[0]);
  /// Shelf depth must cover peak in-flight frames, not just steady
  /// state: a pipelined wire client keeps (threads x window) responses
  /// alive at once, and every pooled buffer beyond the cap is trimmed —
  /// an undersized shelf turns each burst into a miss/trim churn cycle.
  static constexpr std::size_t kMaxGlobalPerClass = 256;
  /// No shelf parks more than this much of its class, counted by the
  /// parked buffers' capacity: a buffer that grew past its class (filed
  /// under the class it can still serve) counts at its grown size. So
  /// the depth cap above binds only the small classes that carry
  /// steady-state frames (512 B, 4 KB); the large classes park at most
  /// 16 / 4 / 1 buffers — without the byte cap the shelves could park
  /// 256 x 1.3 MB. A buffer over 1 MiB is never parked.
  static constexpr std::size_t kMaxParkedBytesPerClass = 1u << 20;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer whose capacity covers at least `size_hint` bytes.
  [[nodiscard]] PooledBuffer Acquire(std::size_t size_hint);

  [[nodiscard]] BufferPoolStats Stats() const {
    BufferPoolStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.returns = returns_.load(std::memory_order_relaxed);
    stats.trims = trims_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Buffers currently parked on the shelves.
  [[nodiscard]] std::size_t PooledCount() const;

  /// Capacity parked on the shelves, in bytes: at most kClassSizes[0] x
  /// kMaxGlobalPerClass + (kClassCount - 1) x kMaxParkedBytesPerClass.
  [[nodiscard]] std::size_t ParkedBytes() const;

  /// The process-wide pool the wire layer uses (never destroyed — safe
  /// from any thread at any point of shutdown).
  static BufferPool& WirePool();

 private:
  friend class PooledBuffer;

  /// Hand a buffer back to its class's shelf, or free it when the shelf
  /// is full or the buffer fits no class. Invoked via PooledBuffer.
  void Return(std::vector<std::uint8_t>&& buf);

  /// Index of the smallest class covering n, or kClassCount when n is
  /// over the largest class (unpooled).
  [[nodiscard]] static std::size_t ClassForAcquire(std::size_t n) {
    for (std::size_t c = 0; c < kClassCount; ++c) {
      if (n <= kClassSizes[c]) return c;
    }
    return kClassCount;
  }

  /// Index of the largest class a returning buffer of this capacity can
  /// serve, or kClassCount when it is under the smallest class.
  [[nodiscard]] static std::size_t ClassForReturn(std::size_t capacity) {
    std::size_t best = kClassCount;
    for (std::size_t c = 0; c < kClassCount; ++c) {
      if (capacity >= kClassSizes[c]) best = c;
    }
    return best;
  }

  struct Shelf {
    mutable std::mutex mutex;
    std::vector<std::vector<std::uint8_t>> buffers;
    std::size_t bytes = 0;  ///< parked capacity, under `mutex`
  };

  Shelf shelves_[kClassCount];
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> returns_{0};
  std::atomic<std::uint64_t> trims_{0};
};

inline void PooledBuffer::Release() {
  if (pool_ != nullptr) {
    pool_->Return(std::move(buf_));
    pool_ = nullptr;
  }
  buf_ = std::vector<std::uint8_t>();
}

}  // namespace mobivine::support
