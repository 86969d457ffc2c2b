// Bounded multi-producer single-consumer queue feeding a shard's worker
// thread. (Formerly misnamed BoundedMpmcQueue — the implementation was
// always single-consumer by design; the name now matches the contract,
// and debug builds assert it.)
//
// Producers (any client thread hitting Gateway::Submit) never block: a
// full or closed queue fails TryPush and the gateway sheds the request —
// backpressure is an admission decision, not a stalled caller. The single
// consumer blocks in Pop until an item or Close() arrives; after Close()
// the consumer drains whatever is already queued, then Pop returns false.
//
// `capacity` is the exact admission bound, not a preallocation. The ring
// starts at kInitialSlots (or `capacity`, if smaller) and doubles under
// the lock when a push finds it full and still below `capacity`, so its
// size follows the deepest the queue has actually been, not the bound a
// deployment configured against bursts. Slots are std::optional and Pop
// destroys the one it empties: a slot never keeps a popped request's
// heap buffers alive, so the heap held by queued work follows the live
// depth. Each growth step moves the queued items once, and there are at
// most ceil(log2(capacity / kInitialSlots)) steps in the queue's lifetime.
//
// A mutex + condvar ring buffer is deliberate: the consumer side performs
// simulated device I/O per item (microseconds to milliseconds), so queue
// synchronization is nowhere near the shard's critical path, and the
// blocking Pop gives an idle shard a real OS wait instead of a spin. The
// depth counter is a separate relaxed atomic so admission-control
// watermark checks never touch the lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace mobivine::gateway {

template <typename T>
class BoundedMpscQueue {
 public:
  /// Ring slots allocated up front; the ring doubles from here on demand.
  static constexpr std::size_t kInitialSlots = 16;

  explicit BoundedMpscQueue(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1),
        ring_(std::min(capacity_, kInitialSlots)) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Non-blocking producer side. False when full or closed (the caller
  /// sheds, and `item` is left untouched); true means the consumer will
  /// eventually pop the item.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || count_ == capacity_) return false;
      if (count_ == ring_.size()) Grow();
      ring_[(head_ + count_) % ring_.size()].emplace(std::move(item));
      ++count_;
      depth_.store(count_, std::memory_order_relaxed);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking consumer side. False only when closed and drained. Must be
  /// called from exactly one thread over the queue's lifetime (the first
  /// popping thread claims the consumer role; debug builds assert it).
  bool Pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    AssertSingleConsumer();
    not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
    if (count_ == 0) return false;
    std::optional<T>& slot = ring_[head_];
    out = std::move(*slot);
    // The move may have handed `out`'s old buffers to the slot; freeing
    // them here is what keeps an emptied slot from holding any heap.
    slot.reset();
    head_ = (head_ + 1) % ring_.size();
    --count_;
    depth_.store(count_, std::memory_order_relaxed);
    return true;
  }

  /// Stop admitting; wake the consumer so it can drain and exit.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Approximate depth for watermark checks (exact under the lock, but
  /// read lock-free by producers deciding whether to shed).
  [[nodiscard]] std::size_t size() const {
    return depth_.load(std::memory_order_relaxed);
  }

  /// The admission bound: pushes fail once this many items are queued.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Slots the ring currently has (kInitialSlots <= slots <= capacity
  /// once the queue has been that deep; never shrinks).
  [[nodiscard]] std::size_t slots() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
  }

 private:
  /// Called under mutex_ with the ring full and count_ < capacity_:
  /// double the ring (capped at capacity_) and unwrap the queued items
  /// to the front of the new one.
  void Grow() {
    std::vector<std::optional<T>> grown(
        std::min(ring_.size() * 2, capacity_));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i].emplace(std::move(*ring_[(head_ + i) % ring_.size()]));
    }
    ring_.swap(grown);
    head_ = 0;
  }

#ifndef NDEBUG
  // Called under mutex_; the first popper claims the consumer role and
  // any later Pop() from a different thread trips the assert.
  void AssertSingleConsumer() {
    if (consumer_ == std::thread::id{}) consumer_ = std::this_thread::get_id();
    assert(consumer_ == std::this_thread::get_id() &&
           "BoundedMpscQueue: Pop() from more than one thread");
  }
  std::thread::id consumer_;
#else
  void AssertSingleConsumer() {}
#endif

  const std::size_t capacity_;
  std::vector<std::optional<T>> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
  std::atomic<std::size_t> depth_{0};
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
};

}  // namespace mobivine::gateway
