// Discrete-event scheduler.
//
// Single-threaded by design: every platform substrate, device model and
// application callback runs on the scheduler's virtual timeline, so runs
// are reproducible bit-for-bit given the same seed. Events scheduled for
// the same instant fire in scheduling order (stable FIFO).
//
// Hot-path layout: callbacks live in a slab of reusable slots with
// inline callable storage (no per-event heap allocation for typical
// capture lists), the priority queue holds trivially copyable
// {time, sequence, slot} records, and cancellation flips a tombstone flag
// on the slot — popping an event is an array load, not a hash lookup.
// EventIds encode {generation, slot} so stale ids from fired or cancelled
// events are rejected without any bookkeeping set.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/clock.h"
#include "support/inline_function.h"

namespace mobivine::sim {

/// Handle for cancelling a scheduled event. Id 0 is never issued.
using EventId = std::uint64_t;

class Scheduler {
 public:
  /// Event callback with inline storage for the capture lists the
  /// substrates use; larger closures spill to the heap transparently.
  using Callback = support::InlineFunction<void(), 48>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `when` (clamped to >= now).
  EventId ScheduleAt(SimTime when, Callback fn);

  /// Schedule `fn` after a virtual delay.
  EventId ScheduleAfter(SimTime delay, Callback fn);

  /// Cancel a pending event. Returns false if it already fired, was
  /// cancelled, or never existed.
  bool Cancel(EventId id);

  /// Advance the clock directly (used by substrates to charge a blocking
  /// API's latency without a callback round-trip). The clock never goes
  /// backwards.
  void AdvanceBy(SimTime delay);

  /// Run the next pending event; returns false if the queue is empty.
  bool Step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t Run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= deadline, then set the clock to the deadline.
  std::size_t RunUntil(SimTime deadline);

  /// Run events for a further `duration` of virtual time.
  std::size_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  /// Drop every pending event unrun (their EventIds go stale). Returns
  /// how many live, uncancelled events were dropped.
  std::size_t Clear();

  std::size_t pending_count() const { return pending_count_; }

 private:
  /// Callback slab entry. `generation` advances every time the slot is
  /// released, so EventIds referring to a previous occupancy fail the
  /// generation check in Cancel().
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    bool active = false;     ///< slot currently owns a queued event
    bool cancelled = false;  ///< tombstone: skip and release when popped
  };
  struct QueuedEvent {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t index);
  bool PopAndRunFront();

  SimTime now_ = SimTime::Zero();
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t pending_count_ = 0;  ///< scheduled, not yet fired/cancelled
};

}  // namespace mobivine::sim
