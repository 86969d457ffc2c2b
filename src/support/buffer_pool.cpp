#include "support/buffer_pool.h"

namespace mobivine::support {

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
  // Under the smallest class (never came from here) or over the byte
  // cap, no shelf could park it: let it free.
  if (cls != kClassCount && buf.capacity() <= kMaxParkedBytesPerClass) {
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

std::size_t BufferPool::ParkedBytes() const {
  std::size_t total = 0;
  for (const Shelf& shelf : shelves_) {
    std::lock_guard<std::mutex> lock(shelf.mutex);
    total += shelf.bytes;
  }
  return total;
}

BufferPool& BufferPool::WirePool() {
  // Deliberately leaked: in-flight completions may release buffers
  // arbitrarily late in shutdown.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace mobivine::support
