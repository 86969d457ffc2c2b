#include "gateway/push.h"

#include <algorithm>
#include <utility>

#include "support/trace.h"

namespace mobivine::gateway {

const char* ToString(PushTopic topic) {
  switch (topic) {
    case PushTopic::kAll:
      return "all";
    case PushTopic::kProximity:
      return "proximity";
    case PushTopic::kSmsDelivery:
      return "sms-delivery";
    case PushTopic::kCallState:
      return "call-state";
    case PushTopic::kNotification:
      return "notification";
  }
  return "?";
}

PushFeed::PushFeed(std::size_t replay_capacity)
    : replay_capacity_(replay_capacity) {}

std::uint64_t PushFeed::Publish(PushTopic topic, std::uint64_t client_id,
                                std::string body) {
  std::lock_guard<std::mutex> lock(mutex_);
  PushEvent event;
  event.topic = topic;
  event.cursor = next_cursor_++;
  event.client_id = client_id;
  event.body = std::move(body);
  support::trace::Instant("push.publish", "topic",
                          static_cast<std::int64_t>(topic), "cursor",
                          static_cast<std::int64_t>(event.cursor));
  for (const Entry& entry : listeners_) entry.listener(event);
  if (replay_capacity_ == 0) {
    ++counters_.evicted;  // nothing is ever retained
    return event.cursor;
  }
  if (ring_.size() == replay_capacity_) {
    ring_.pop_front();
    ++counters_.evicted;
  }
  const std::uint64_t cursor = event.cursor;
  ring_.push_back(std::move(event));
  return cursor;
}

std::uint64_t PushFeed::AddListener(Listener listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_listener_id_++;
  listeners_.push_back(Entry{id, std::move(listener)});
  return id;
}

void PushFeed::RemoveListener(std::uint64_t id) {
  // Taking the mutex IS the fence: a publish in flight on another thread
  // either finished before we got the lock or starts after we release it
  // with the entry gone.
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [id](const Entry& entry) { return entry.id == id; }),
      listeners_.end());
}

PushFeed::ReplayResult PushFeed::ReplayAfter(std::uint64_t after,
                                             PushTopic topic,
                                             std::uint64_t client_id,
                                             const Listener& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ReplayLocked(after, topic, client_id, fn);
}

std::uint64_t PushFeed::AddListenerAndReplay(std::uint64_t after,
                                             PushTopic topic,
                                             std::uint64_t client_id,
                                             const Listener& replay_fn,
                                             Listener listener,
                                             ReplayResult* result) {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplayResult covered = ReplayLocked(after, topic, client_id, replay_fn);
  if (result != nullptr) *result = covered;
  const std::uint64_t id = next_listener_id_++;
  listeners_.push_back(Entry{id, std::move(listener)});
  return id;
}

PushFeed::ReplayResult PushFeed::ReplayLocked(std::uint64_t after,
                                              PushTopic topic,
                                              std::uint64_t client_id,
                                              const Listener& fn) {
  support::trace::Span span("push.replay");
  span.Tag("after", static_cast<std::int64_t>(after));
  ++counters_.replays;
  ReplayResult result;
  const std::uint64_t last = next_cursor_ - 1;
  // A cursor from the future (typically: a cursor issued by a different
  // worker, after a plan change moved the client here) cannot be
  // replayed against this feed's timeline — clamp to live-from-now.
  result.resume_cursor = std::min(after, last);
  const std::uint64_t first_retained = ring_.empty() ? 0 : ring_.front().cursor;
  if (after < last && (ring_.empty() || after + 1 < first_retained)) {
    // Part (or all) of (after, last] left the ring before this replay.
    result.gap = true;
    result.gap_first = after + 1;
    result.gap_last = ring_.empty() ? last : first_retained - 1;
    result.resume_cursor = result.gap_last;
    ++counters_.replay_gaps;
  }
  // Retained cursors are contiguous, so the first event newer than
  // `after` sits at a computed offset. A live-only subscribe or a resume
  // from an up-to-date cursor visits no event under the lock Publish
  // needs.
  const std::size_t skip =
      ring_.empty() || after < first_retained
          ? 0
          : static_cast<std::size_t>(
                std::min<std::uint64_t>(after - first_retained + 1,
                                        ring_.size()));
  for (auto it = ring_.begin() + static_cast<std::ptrdiff_t>(skip);
       it != ring_.end(); ++it) {
    const PushEvent& event = *it;
    result.resume_cursor = event.cursor;
    if (!MatchesSubscription(event, topic, client_id)) continue;
    fn(event);
    ++result.delivered;
  }
  span.Tag("delivered", static_cast<std::int64_t>(result.delivered));
  return result;
}

std::uint64_t PushFeed::last_cursor() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_cursor_ - 1;
}

PushFeed::Counters PushFeed::GetCounters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters counters = counters_;
  counters.published = next_cursor_ - 1;
  counters.listeners = listeners_.size();
  return counters;
}

}  // namespace mobivine::gateway
