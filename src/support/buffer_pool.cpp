#include "support/buffer_pool.h"

namespace mobivine::support {

namespace {

/// Per-thread front tier. Bound to the first thread-cache-enabled pool
/// this thread touches; a second such pool on the same thread bypasses
/// the cache (pointer mismatch) and uses its global freelists directly.
/// On thread exit the cached buffers flush back to the pool's global
/// tier — which is why a thread-cache-enabled pool must outlive its
/// threads (WirePool() never dies, so the wire layer is always safe).
struct ThreadCache {
  BufferPool* pool = nullptr;
  bool draining = false;
  std::size_t counts[BufferPool::kClassCount] = {};
  std::size_t bytes[BufferPool::kClassCount] = {};  ///< parked capacity
  std::vector<std::uint8_t> slots[BufferPool::kClassCount]
                                 [BufferPool::kMaxThreadCachePerClass];

  ~ThreadCache() {
    draining = true;  // Return() must not stash back into this cache
    if (pool == nullptr) return;
    for (std::size_t c = 0; c < BufferPool::kClassCount; ++c) {
      for (std::size_t i = 0; i < counts[c]; ++i) {
        pool->Return(std::move(slots[c][i]));
      }
      counts[c] = 0;
      bytes[c] = 0;
    }
  }
};

thread_local ThreadCache tls_cache;

}  // namespace

PooledBuffer BufferPool::Acquire(std::size_t size_hint) {
  const std::size_t cls = ClassForAcquire(size_hint);
  if (cls == kClassCount) {
    // Over the largest class: serve unpooled (still counted — jumbo
    // frames on the hot path would defeat the zero-alloc goal).
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> buf;
    buf.reserve(size_hint);
    return PooledBuffer(this, std::move(buf));
  }
  if (thread_cache_enabled_) {
    ThreadCache& tls = tls_cache;
    if (tls.pool == nullptr && !tls.draining) tls.pool = this;
    if (tls.pool == this && tls.counts[cls] > 0) {
      std::vector<std::uint8_t> buf =
          std::move(tls.slots[cls][--tls.counts[cls]]);
      tls.bytes[cls] -= buf.capacity();
      buf.clear();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return PooledBuffer(this, std::move(buf));
    }
  }
  {
    Shelf& shelf = shelves_[cls];
    std::lock_guard<std::mutex> lock(shelf.mutex);
    if (!shelf.buffers.empty()) {
      std::vector<std::uint8_t> buf = std::move(shelf.buffers.back());
      shelf.buffers.pop_back();
      shelf.bytes -= buf.capacity();
      buf.clear();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return PooledBuffer(this, std::move(buf));
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> buf;
  buf.reserve(kClassSizes[cls]);
  return PooledBuffer(this, std::move(buf));
}

void BufferPool::Return(std::vector<std::uint8_t>&& buf) {
  const std::size_t cls = ClassForReturn(buf.capacity());
  if (cls == kClassCount || buf.capacity() > kMaxParkedBytesPerClass) {
    // Under the smallest class (never came from here) or over the byte
    // cap, so no tier could park it: let it free.
    trims_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (thread_cache_enabled_) {
    ThreadCache& tls = tls_cache;
    if (tls.pool == nullptr && !tls.draining) tls.pool = this;
    if (tls.pool == this && !tls.draining &&
        tls.counts[cls] < kMaxThreadCachePerClass &&
        tls.bytes[cls] + buf.capacity() <= kMaxParkedBytesPerClass) {
      tls.bytes[cls] += buf.capacity();
      tls.slots[cls][tls.counts[cls]++] = std::move(buf);
      returns_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ReturnToGlobal(cls, std::move(buf));
}

void BufferPool::ReturnToGlobal(std::size_t cls,
                                std::vector<std::uint8_t>&& buf) {
  {
    Shelf& shelf = shelves_[cls];
    std::lock_guard<std::mutex> lock(shelf.mutex);
    if (shelf.buffers.size() < kMaxGlobalPerClass &&
        shelf.bytes + buf.capacity() <= kMaxParkedBytesPerClass) {
      shelf.bytes += buf.capacity();
      shelf.buffers.push_back(std::move(buf));
      returns_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  trims_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t BufferPool::PooledCount() const {
  std::size_t total = 0;
  for (const Shelf& shelf : shelves_) {
    std::lock_guard<std::mutex> lock(shelf.mutex);
    total += shelf.buffers.size();
  }
  return total;
}

BufferPool& BufferPool::WirePool() {
  // Deliberately leaked: in-flight completions and exiting threads may
  // release buffers arbitrarily late in shutdown.
  static BufferPool* pool = new BufferPool(/*enable_thread_cache=*/true);
  return *pool;
}

}  // namespace mobivine::support
