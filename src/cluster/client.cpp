#include "cluster/client.h"

#include <chrono>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "support/trace.h"
#include "wire/await.h"

namespace mobivine::cluster {

namespace {

/// Backoff between route attempts when the plan has not advanced.
constexpr std::uint64_t kRetryBackoffUs = 25'000;
/// Deadline of each plan fetch from the controller.
constexpr std::uint64_t kControlTimeoutUs = 2'000'000;

}  // namespace

std::uint64_t ParseWrongWorkerEpoch(const std::string& body) {
  // Strict by construction (the strtoull predecessor accepted trailing
  // garbage and — worse — saturated overflow to ULLONG_MAX, turning one
  // hostile byte string into a refresh target no controller will ever
  // publish): non-empty, all digits, overflow-checked, or 0.
  if (body.empty()) return 0;
  std::uint64_t value = 0;
  for (const char c : body) {
    if (c < '0' || c > '9') return 0;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return 0;
    }
    value = value * 10 + digit;
  }
  return value;
}

Client::Client(ClientConfig config) : config_(config) {}

Client::~Client() { Stop(); }

bool Client::Start(std::string* error) {
  if (started_.load(std::memory_order_acquire)) {
    if (error) *error = "cluster client already started";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!control_.Connect(config_.controller_port, config_.connect, error)) {
      return false;
    }
  }
  if (!RefreshPlanAtLeast(1)) {
    if (error) *error = "controller has no partition plan (no workers yet)";
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_.Close();
    return false;
  }
  closing_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  return true;
}

void Client::Stop() {
  closing_.store(true, std::memory_order_release);
  started_.store(false, std::memory_order_release);
  std::unordered_map<std::uint64_t, std::shared_ptr<wire::WireClient>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& [worker_id, conn] : conns) conn->Close();
  DrainGraveyard();
  std::lock_guard<std::mutex> lock(control_mutex_);
  control_.Close();
}

ClientStats Client::Stats() const {
  ClientStats stats;
  counters_.LoadInto(stats);
  return stats;
}

std::uint64_t Client::OwnerOf(std::uint64_t client_id) const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan_.members.empty()) return 0;
  return ring_.OwnerFor(client_id);
}

bool Client::Resolve(std::uint64_t client_id, Route* route) {
  std::uint64_t worker_id = 0;
  std::uint16_t data_port = 0;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (plan_.epoch == 0 || ring_.empty()) return false;
    worker_id = ring_.OwnerFor(client_id);
    for (const PlanMember& member : plan_.members) {
      if (member.worker_id == worker_id) {
        data_port = member.data_port;
        break;
      }
    }
    route->epoch = plan_.epoch;
  }
  if (data_port == 0) return false;
  route->worker_id = worker_id;

  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const auto it = conns_.find(worker_id);
    if (it != conns_.end()) {
      if (it->second->connected()) {
        route->conn = it->second;
        return true;
      }
      graveyard_.push_back(std::move(it->second));
      conns_.erase(it);
    }
  }

  // Dial outside conns_mutex_ (a connect can take the full timeout).
  auto conn = std::make_shared<wire::WireClient>();
  std::string error;
  if (!conn->Connect(data_port, config_.connect, &error)) return false;

  std::lock_guard<std::mutex> lock(conns_mutex_);
  auto [it, inserted] = conns_.emplace(worker_id, conn);
  if (!inserted) {
    // Another thread dialed the same worker first; keep theirs.
    conn->Close();
    route->conn = it->second;
    return true;
  }
  route->conn = std::move(conn);
  return true;
}

bool Client::RefreshPlanAtLeast(std::uint64_t min_epoch) {
  if (min_epoch != 0 &&
      plan_epoch_.load(std::memory_order_acquire) >= min_epoch) {
    return true;  // another thread already refreshed past the target
  }
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (min_epoch != 0 &&
      plan_epoch_.load(std::memory_order_acquire) >= min_epoch) {
    return true;
  }
  if (!control_.connected()) {
    std::string error;
    if (!control_.Connect(config_.controller_port, config_.connect, &error)) {
      return false;
    }
  }
  ControlMessage request;
  request.op = ControlOp::kPlanGet;
  ControlMessage reply;
  std::string error;
  if (!control_.Roundtrip(std::move(request), &reply, kControlTimeoutUs,
                         &error)) {
    control_.Close();  // dead control link; next refresh re-dials
    return false;
  }
  if (reply.op != ControlOp::kPlanPush) return false;
  ApplyPlan(reply.plan);
  counters_.Add(ClientCounter::plan_refreshes);
  support::trace::Instant("cluster.client_plan_refresh", "epoch",
                          static_cast<std::int64_t>(reply.plan.epoch));
  return plan_epoch_.load(std::memory_order_acquire) >= min_epoch;
}

void Client::ApplyPlan(const PartitionPlan& plan) {
  std::vector<std::uint64_t> stale;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (plan.epoch <= plan_.epoch) return;
    plan_ = plan;
    ring_.Rebuild(plan_);
    plan_epoch_.store(plan_.epoch, std::memory_order_release);
  }
  // Prune cached connections to workers that left the plan — their
  // sockets may linger half-dead (a drained worker exits eventually);
  // better to drop them now than discover it with a failed call.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    bool planned = false;
    for (const PlanMember& member : plan.members) {
      if (member.worker_id == it->first) {
        planned = true;
        break;
      }
    }
    if (planned) {
      ++it;
    } else {
      graveyard_.push_back(std::move(it->second));
      it = conns_.erase(it);
    }
  }
}

void Client::DropConn(std::uint64_t worker_id,
                      const std::shared_ptr<wire::WireClient>& conn) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = conns_.find(worker_id);
  if (it != conns_.end() && it->second == conn) {
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
  }
}

void Client::DrainGraveyard() {
  std::vector<std::shared_ptr<wire::WireClient>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    dead.swap(graveyard_);
  }
  for (auto& conn : dead) conn->Close();  // joins reader threads
}

bool Client::RouteAttempt(std::uint64_t client_id, int* attempt,
                          Route* route) {
  for (;; ++*attempt) {
    if (closing_.load(std::memory_order_acquire)) return false;
    if (*attempt >= config_.max_attempts) {
      counters_.Add(ClientCounter::exhausted);
      return false;
    }
    if (*attempt > 0) {
      // This can run on a reader thread, delaying that connection's
      // other callbacks by one backoff — acceptable: retries only happen
      // mid-plan-change, when that connection's responses are stalled
      // anyway.
      std::this_thread::sleep_for(
          std::chrono::microseconds(kRetryBackoffUs));
    }
    if (Resolve(client_id, route)) return true;
    counters_.Add(ClientCounter::transport_retries);
    (void)RefreshPlanAtLeast(0);
  }
}

bool Client::Repaired(wire::WireStatus status, std::uint64_t epoch,
                      const Route& route) {
  if (closing_.load(std::memory_order_acquire)) return false;
  if (status == wire::WireStatus::kWrongWorker) {
    // Refresh past the epoch the worker stamped; when we already hold it
    // (a fenced worker whose leave the controller has not processed
    // yet), force a real fetch for the NEXT epoch — retrying the same
    // plan would just bounce off the same fence.
    counters_.Add(ClientCounter::wrong_worker_retries);
    support::trace::Instant("cluster.client_wrong_worker");
    const std::uint64_t held = plan_epoch_.load(std::memory_order_acquire);
    const std::uint64_t want = epoch > held ? epoch : held + 1;
    (void)RefreshPlanAtLeast(want);
    return true;
  }
  if (status == wire::WireStatus::kTransportError) {
    // Transport death: drop the conn (the next attempt re-dials) and
    // refresh — the controller may already know.
    counters_.Add(ClientCounter::transport_retries);
    support::trace::Instant("cluster.client_transport_retry");
    DropConn(route.worker_id, route.conn);
    (void)RefreshPlanAtLeast(0);
    return true;
  }
  return false;
}

namespace {

void FailRoute(std::uint64_t request_id, const Client::Callback& callback) {
  wire::WireResponse failure;
  failure.request_id = request_id;
  failure.status = wire::WireStatus::kTransportError;
  failure.body = "cluster route attempts exhausted";
  callback(failure);
}

}  // namespace

template <typename Frame>
void Client::SubmitAttempt(const Frame& frame, int attempt,
                           Callback callback) {
  Route route;
  if (!RouteAttempt(frame.client_id, &attempt, &route)) {
    FailRoute(frame.request_id, callback);
    return;
  }
  // A failed send fires the retry callback with kTransportError, which
  // re-routes; nothing more to do here.
  wire::WireClient& conn = *route.conn;
  Callback retry = RetryCallback(frame, attempt, std::move(callback), route);
  if constexpr (std::is_same_v<Frame, wire::WireScriptRequest>) {
    (void)conn.SubmitScript(frame, std::move(retry));
  } else {
    (void)conn.Submit(frame, std::move(retry));
  }
}

template <typename Frame>
Client::Callback Client::RetryCallback(const Frame& frame, int attempt,
                                       Callback callback, Route route) {
  // This wrapper runs on the connection's reader thread. Re-routing from
  // there is allowed — RefreshPlanAtLeast and Resolve touch the control
  // channel and OTHER connections; the one thing forbidden is Close()ing
  // this connection, which is why failures park it in the graveyard
  // instead (drained later from user threads). Every status but the two
  // routing failures is terminal — kScriptError included: the sandbox
  // spoke.
  return [this, frame, attempt, route = std::move(route),
          callback =
              std::move(callback)](const wire::WireResponse& reply) mutable {
    const std::uint64_t epoch =
        reply.status == wire::WireStatus::kWrongWorker
            ? ParseWrongWorkerEpoch(reply.body)
            : 0;
    if (Repaired(reply.status, epoch, route)) {
      SubmitAttempt(frame, attempt + 1, std::move(callback));
      return;
    }
    callback(reply);
  };
}

bool Client::Call(const wire::WireRequest& request,
                  wire::WireResponse* response) {
  return wire::AwaitResponse(
      [&](Callback done) { Submit(request, std::move(done)); }, response);
}

bool Client::Submit(const wire::WireRequest& request, Callback callback) {
  counters_.Add(ClientCounter::calls);
  DrainGraveyard();
  SubmitAttempt(request, 0, std::move(callback));
  return true;
}

bool Client::CallScript(const wire::WireScriptRequest& script,
                        wire::WireResponse* response) {
  return wire::AwaitResponse(
      [&](Callback done) { SubmitScript(script, std::move(done)); }, response);
}

bool Client::SubmitScript(const wire::WireScriptRequest& script,
                          Callback callback) {
  counters_.Add(ClientCounter::calls);
  DrainGraveyard();
  SubmitAttempt(script, 0, std::move(callback));
  return true;
}

/// Everything one routed subscription needs to survive repairs: the
/// filter, the user callbacks, the exactly-once ack latch, and — the
/// load-bearing part — the last cursor the stream delivered, which every
/// re-subscribe carries so the new owner's replay ring covers the
/// failover window.
struct Client::PushSub {
  std::uint64_t client_id = 0;
  wire::PushTopic topic = wire::PushTopic::kAll;
  std::atomic<std::uint64_t> last_cursor{0};
  std::atomic<bool> acked{false};  ///< user's on_ack already fired
  wire::WireClient::EventHandler on_event;
  wire::WireClient::AckCallback on_ack;
};

bool Client::Subscribe(std::uint64_t client_id, wire::PushTopic topic,
                       std::uint64_t cursor,
                       wire::WireClient::EventHandler on_event,
                       wire::WireClient::AckCallback on_ack) {
  counters_.Add(ClientCounter::push_subscribes);
  DrainGraveyard();
  auto sub = std::make_shared<PushSub>();
  sub->client_id = client_id;
  sub->topic = topic;
  sub->last_cursor.store(cursor, std::memory_order_relaxed);
  sub->on_event = std::move(on_event);
  sub->on_ack = std::move(on_ack);
  SubscribeAttempt(std::move(sub), 0);
  return true;
}

void Client::FailSubscription(const std::shared_ptr<PushSub>& sub,
                              wire::WireStatus status) {
  if (!sub->acked.exchange(true, std::memory_order_acq_rel)) {
    if (sub->on_ack) {
      wire::WireSubscribeAck dead;
      dead.status = status;
      sub->on_ack(dead);
    }
    return;
  }
  // The stream was already live: the user hears about its death the same
  // way the wire client signals it — one synthetic cursor-0 gap marker.
  if (sub->on_event) {
    wire::WireEvent dead;
    dead.kind = wire::EventKind::kEventsDropped;
    sub->on_event(dead);
  }
}

void Client::SubscribeAttempt(std::shared_ptr<PushSub> sub, int attempt) {
  Route route;
  if (!RouteAttempt(sub->client_id, &attempt, &route)) {
    FailSubscription(sub, wire::WireStatus::kTransportError);
    return;
  }
  wire::WireSubscribe request;
  request.client_id = sub->client_id;
  request.topic = sub->topic;
  request.mode = wire::SubscribeMode::kFromCursor;
  request.cursor = sub->last_cursor.load(std::memory_order_acquire);
  wire::WireClient& conn = *route.conn;
  (void)conn.Subscribe(
      request,
      // Event path (reader thread). Tracks the resume cursor and spots
      // the wire client's synthetic death marker (kEventsDropped with
      // cursor 0 — real shed ranges always carry cursors >= 1).
      [this, sub](const wire::WireEvent& event) {
        if (event.kind == wire::EventKind::kEventsDropped &&
            event.cursor == 0) {
          if (closing_.load(std::memory_order_acquire)) return;
          counters_.Add(ClientCounter::transport_retries);
          counters_.Add(ClientCounter::push_resubscribes);
          support::trace::Instant("cluster.push_resubscribe", "cursor",
                                  static_cast<std::int64_t>(
                                      sub->last_cursor.load(
                                          std::memory_order_relaxed)));
          (void)RefreshPlanAtLeast(0);
          // The dead stream was this repair round's first failure.
          SubscribeAttempt(sub, 1);
          return;
        }
        if (event.cursor >
            sub->last_cursor.load(std::memory_order_relaxed)) {
          sub->last_cursor.store(event.cursor, std::memory_order_release);
        }
        sub->on_event(event);
      },
      // Ack path (reader thread): kOk settles the user's latch; the two
      // routing failures repair exactly like request traffic, except
      // that the epoch rides the ack's start_cursor varint — there is no
      // decimal body to parse.
      [this, sub, attempt, route](const wire::WireSubscribeAck& ack) {
        if (ack.status == wire::WireStatus::kOk) {
          if (ack.start_cursor >
              sub->last_cursor.load(std::memory_order_relaxed)) {
            // The owner's replay already covered past our cursor:
            // adopt its resume point so the NEXT repair doesn't ask
            // for that span again.
            sub->last_cursor.store(ack.start_cursor,
                                   std::memory_order_release);
          }
          if (!sub->acked.exchange(true, std::memory_order_acq_rel) &&
              sub->on_ack) {
            sub->on_ack(ack);
          }
          return;
        }
        if (Repaired(ack.status, ack.start_cursor, route)) {
          counters_.Add(ClientCounter::push_resubscribes);
          SubscribeAttempt(sub, attempt + 1);
          return;
        }
        // Typed rejection (malformed subscribe etc.), or stopping.
        FailSubscription(sub, ack.status);
      });
  // A failed send already fired the ack callback with kTransportError,
  // which re-routed above; nothing more to do.
}

std::size_t Client::SubmitBatch(const std::vector<wire::WireRequest>& requests,
                                const Callback& callback) {
  counters_.Add(ClientCounter::calls, requests.size());
  DrainGraveyard();
  // Group by owning worker so each connection gets one contiguous
  // write; every request keeps its own retry wrapper.
  struct Group {
    std::shared_ptr<wire::WireClient> conn;
    std::vector<wire::WireRequest> requests;
    std::vector<Callback> callbacks;
  };
  std::unordered_map<std::uint64_t, Group> groups;
  const auto shared = std::make_shared<const Callback>(callback);
  for (const wire::WireRequest& request : requests) {
    Callback once = [shared](const wire::WireResponse& reply) {
      (*shared)(reply);
    };
    int attempt = 0;
    Route route;
    if (!RouteAttempt(request.client_id, &attempt, &route)) {
      FailRoute(request.request_id, once);
      continue;
    }
    Group& group = groups[route.worker_id];
    if (!group.conn) group.conn = route.conn;
    group.callbacks.push_back(
        RetryCallback(request, attempt, std::move(once), std::move(route)));
    group.requests.push_back(request);
  }
  for (auto& [worker_id, group] : groups) {
    // A failed write fires the parked retry callbacks with
    // kTransportError, which re-route — every request's callback still
    // fires exactly once.
    (void)group.conn->SubmitBatch(group.requests, std::move(group.callbacks));
  }
  return requests.size();
}

}  // namespace mobivine::cluster
