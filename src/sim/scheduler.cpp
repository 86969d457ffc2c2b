#include "sim/scheduler.h"

#include <utility>

namespace mobivine::sim {

namespace {
constexpr EventId MakeId(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}
}  // namespace

std::uint32_t Scheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::ReleaseSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.Reset();
  slot.active = false;
  slot.cancelled = false;
  ++slot.generation;  // invalidate any EventId still naming this occupancy
  free_slots_.push_back(index);
}

EventId Scheduler::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  const std::uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.active = true;
  queue_.push(QueuedEvent{when, next_sequence_++, index});
  ++pending_count_;
  return MakeId(slot.generation, index);
}

EventId Scheduler::ScheduleAfter(SimTime delay, Callback fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  // Only the live occupancy named by `id` can be cancelled: fired and
  // already-cancelled events fail the generation/flag checks.
  if (!slot.active || slot.cancelled || slot.generation != generation) {
    return false;
  }
  slot.cancelled = true;  // tombstone; the queue entry is dropped when popped
  --pending_count_;
  return true;
}

void Scheduler::AdvanceBy(SimTime delay) {
  if (delay > SimTime::Zero()) now_ += delay;
}

bool Scheduler::PopAndRunFront() {
  while (!queue_.empty()) {
    const QueuedEvent event = queue_.top();
    queue_.pop();
    if (slots_[event.slot].cancelled) {
      ReleaseSlot(event.slot);
      continue;
    }
    now_ = event.when > now_ ? event.when : now_;
    // Move the callback out and release the slot BEFORE invoking: the
    // callback may schedule new events (reusing this slot) and cancelling
    // the fired event from inside its own callback must report false.
    Callback fn = std::move(slots_[event.slot].fn);
    ReleaseSlot(event.slot);
    --pending_count_;
    fn();
    return true;
  }
  return false;
}

bool Scheduler::Step() { return PopAndRunFront(); }

std::size_t Scheduler::Run(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && PopAndRunFront()) ++executed;
  return executed;
}

std::size_t Scheduler::Clear() {
  while (!queue_.empty()) {
    ReleaseSlot(queue_.top().slot);
    queue_.pop();
  }
  const std::size_t dropped = pending_count_;
  pending_count_ = 0;
  return dropped;
}

std::size_t Scheduler::RunUntil(SimTime deadline) {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    // Peek past tombstones so the deadline check sees a live event.
    while (!queue_.empty() && slots_[queue_.top().slot].cancelled) {
      const std::uint32_t index = queue_.top().slot;
      queue_.pop();
      ReleaseSlot(index);
    }
    if (queue_.empty() || queue_.top().when > deadline) break;
    if (PopAndRunFront()) ++executed;
  }
  if (deadline > now_) now_ = deadline;
  return executed;
}

}  // namespace mobivine::sim
