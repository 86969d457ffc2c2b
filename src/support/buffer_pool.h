// Size-classed frame-buffer pool for the wire hot path.
//
// Every encoded frame used to live in a fresh std::vector — one malloc
// and one free per request on both sides of the socket. The pool keeps
// released buffers on per-size-class freelists so a steady-state
// encode/decode cycle allocates nothing: Acquire() hands back a cleared
// vector whose capacity already covers the requested size, and the
// PooledBuffer RAII handle returns it when the frame has been written.
//
// Two tiers:
//  * a global freelist per size class (mutex-guarded, bounded in depth
//    and in parked bytes) —
//    the cross-thread hand-off tier, since frames are typically encoded
//    on one thread (a gateway shard worker) and released on another (the
//    event loop that finished the writev);
//  * an optional per-thread cache (bounded, lock-free by construction) in
//    front of it, enabled per pool — the process-wide WirePool() enables
//    it, so the common same-thread reuse pattern never touches a lock.
//
// A pool with the thread cache enabled must outlive every thread that
// used it: exiting threads flush their cached buffers back to the global
// freelists. WirePool() is intentionally immortal (never destroyed) so
// this holds trivially; short-lived pools in tests leave the cache off.
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
  std::uint64_t hits = 0;     ///< Acquire served from a freelist / cache
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
  /// Global depth must cover peak in-flight frames, not just steady
  /// state: a pipelined wire client keeps (threads x window) responses
  /// alive at once, and every pooled buffer beyond the cap is trimmed —
  /// an undersized shelf turns each burst into a miss/trim churn cycle.
  static constexpr std::size_t kMaxGlobalPerClass = 256;
  static constexpr std::size_t kMaxThreadCachePerClass = 16;
  /// Neither tier parks more than this much of one class, counted by
  /// the parked buffers' capacity: a buffer that grew past its class
  /// (filed under the class it can still serve) counts at its grown
  /// size. So the depth caps above bind only the small classes that
  /// carry steady-state frames (512 B, 4 KB). The large classes get at
  /// most 16 / 4 / 1 buffers on a shelf, and at most that in a thread
  /// cache — without the byte cap the shelves alone could park
  /// 256 x 1.3 MB. A buffer over 1 MiB is never parked.
  static constexpr std::size_t kMaxParkedBytesPerClass = 1u << 20;

  /// `enable_thread_cache` adds the per-thread tier; see the header
  /// comment for the lifetime requirement it imposes.
  explicit BufferPool(bool enable_thread_cache = false)
      : thread_cache_enabled_(enable_thread_cache) {}

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

  /// Buffers currently parked on the global freelists (not thread caches).
  [[nodiscard]] std::size_t PooledCount() const;

  /// The process-wide pool the wire layer uses (thread cache enabled,
  /// never destroyed — safe from any thread at any point of shutdown).
  static BufferPool& WirePool();

  /// Hand a buffer (back) to the pool. Normally invoked via PooledBuffer;
  /// public so exiting threads can flush their caches to the global tier.
  void Return(std::vector<std::uint8_t>&& buf);

 private:
  friend class PooledBuffer;

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

  void ReturnToGlobal(std::size_t cls, std::vector<std::uint8_t>&& buf);

  struct Shelf {
    mutable std::mutex mutex;
    std::vector<std::vector<std::uint8_t>> buffers;
    std::size_t bytes = 0;  ///< parked capacity, under `mutex`
  };

  const bool thread_cache_enabled_;
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
