#include "cluster/worker_agent.h"

#include <chrono>
#include <utility>

#include "support/trace.h"

namespace mobivine::cluster {

namespace {

/// Deadline of each control roundtrip (register, leave).
constexpr std::uint64_t kControlTimeoutUs = 2'000'000;
/// Bound on Gateway::Drain during the handover.
constexpr std::uint64_t kDrainTimeoutUs = 2'000'000;

}  // namespace

WorkerAgent::WorkerAgent(gateway::Gateway& gateway, WorkerAgentConfig config)
    : gateway_(gateway),
      config_(config),
      channel_([this](const ControlMessage* push) { OnPush(push); }) {}

WorkerAgent::~WorkerAgent() { Stop(); }

bool WorkerAgent::Start(std::uint16_t data_port, std::string* error) {
  if (thread_.joinable()) {
    if (error) *error = "worker agent already started";
    return false;
  }
  if (config_.worker_id == 0) {
    if (error) *error = "worker_id must be >= 1";
    return false;
  }
  data_port_ = data_port;
  if (!channel_.Connect(config_.controller_port, config_.connect, error)) {
    return false;
  }
  if (!RegisterWithController(error)) {
    channel_.Close();
    return false;
  }
  thread_ = std::thread([this] { Run(); });
  return true;
}

void WorkerAgent::Stop() {
  Raise(kStopEvent);
  if (thread_.joinable()) thread_.join();
  channel_.Close();
  std::lock_guard<std::mutex> lock(mutex_);
  events_ = 0;  // a later Start begins clean
}

bool WorkerAgent::LeaveAndDrain() {
  if (!thread_.joinable()) return false;
  Raise(kLeaveEvent);
  std::unique_lock<std::mutex> lock(mutex_);
  // The agent thread wakes at once, or when it finishes the blocking step
  // it is in; the drain itself is bounded by kDrainTimeoutUs. Pad the
  // wait so a slow drain reports failure rather than racing this timeout.
  const auto wait = std::chrono::microseconds(
      kDrainTimeoutUs + 4 * config_.heartbeat_interval_us + 1'000'000);
  cv_.wait_for(lock, wait, [this] { return drain_done_; });
  return drain_done_ && drain_ok_;
}

bool WorkerAgent::Owns(std::uint64_t client_id,
                       std::uint64_t* plan_epoch) const {
  if (plan_epoch) *plan_epoch = plan_epoch_.load(std::memory_order_acquire);
  if (draining_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(plan_mutex_);
  // No plan yet: behave like the standalone server this process was
  // before it joined a cluster — refuse nothing.
  if (plan_.epoch == 0 || ring_.empty()) return true;
  return ring_.OwnerFor(client_id) == config_.worker_id;
}

void WorkerAgent::ApplyPlan(const PartitionPlan& plan) {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan.epoch <= plan_.epoch) return;  // stale push; epochs only advance
  plan_ = plan;
  ring_.Rebuild(plan_);
  plan_epoch_.store(plan_.epoch, std::memory_order_release);
  support::trace::Instant("cluster.plan_applied");
}

bool WorkerAgent::RegisterWithController(std::string* error) {
  ControlMessage request;
  request.op = ControlOp::kRegister;
  request.worker_id = config_.worker_id;
  request.data_port = data_port_;
  ControlMessage reply;
  if (!channel_.Roundtrip(std::move(request), &reply, kControlTimeoutUs,
                          error)) {
    return false;
  }
  if (reply.op != ControlOp::kRegisterAck ||
      reply.status != AckStatus::kOk) {
    if (error) {
      *error = "controller rejected registration: " +
               (reply.message.empty() ? std::string(ToString(reply.op))
                                      : reply.message);
    }
    return false;
  }
  ApplyPlan(reply.plan);
  return true;
}

void WorkerAgent::Raise(unsigned event, std::uint64_t drain_epoch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events_ |= event;
    if (event == kDrainEvent) drain_epoch_ = drain_epoch;
  }
  cv_.notify_all();
}

void WorkerAgent::OnPush(const ControlMessage* push) {
  if (push == nullptr) {
    Raise(kLinkDownEvent);
  } else if (push->op == ControlOp::kPlanPush) {
    ApplyPlan(push->plan);
  } else if (push->op == ControlOp::kDrain) {
    // After our kLeave, or controller-initiated.
    Raise(kDrainEvent, push->epoch);
  } else if (push->op == ControlOp::kHeartbeatAck &&
             push->status == AckStatus::kRejected) {
    // The controller declared us dead (we're a zombie to it); a plain
    // heartbeat cannot resurrect us — re-register.
    Raise(kRejectedEvent);
  }
}

void WorkerAgent::Run() {
  support::trace::SetCurrentThreadName("cluster-agent");
  // A thread's trace label is exported with its first event. Mark the
  // start of the agent's track here: an agent that only heartbeats would
  // otherwise record nothing and leave "cluster-agent" out of the trace.
  support::trace::Instant(
      "cluster.agent_start", "epoch",
      static_cast<std::int64_t>(plan_epoch_.load(std::memory_order_acquire)));
  const auto interval =
      std::chrono::microseconds(config_.heartbeat_interval_us);
  // When the next heartbeat is due, or (link down) the next reconnect.
  auto due = std::chrono::steady_clock::now() + interval;
  while (true) {
    unsigned events = 0;
    std::uint64_t drain_epoch = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_until(lock, due, [this] { return events_ != 0; });
      events = std::exchange(events_, 0u);
      drain_epoch = drain_epoch_;
    }
    if (events & kStopEvent) return;
    if (events & kLeaveEvent) {
      // Graceful handover: tell the controller first so the plan changes
      // (and clients re-route) while we still finish in-flight work. Its
      // kLeaveAck carries the post-leave epoch, as does the kDrain that
      // follows. Drain regardless: the gateway must go quiet before the
      // process exits even if the controller vanished.
      ControlMessage leave;
      leave.op = ControlOp::kLeave;
      leave.worker_id = config_.worker_id;
      ControlMessage reply;
      std::string error;
      return DrainAndAck(
          channel_.Roundtrip(std::move(leave), &reply, kControlTimeoutUs,
                             &error)
              ? reply.epoch
              : plan_epoch_.load(std::memory_order_acquire));
    }
    if (events & kDrainEvent) return DrainAndAck(drain_epoch);

    const auto now = std::chrono::steady_clock::now();
    std::string error;
    if (!channel_.connected()) {
      // Controller link died: reconnect + re-register under the same id.
      // The controller books it as a rejoin (we were declared dead) or a
      // replace (we beat the detector); either bumps the epoch and
      // re-routes clients back here.
      if (channel_.Connect(config_.controller_port, config_.connect,
                           &error) &&
          RegisterWithController(&error)) {
        support::trace::Instant("cluster.agent_reconnect");
      } else {
        channel_.Close();
        // That Close raised kLinkDownEvent for the link just dropped:
        // the next attempt waits one interval.
        std::lock_guard<std::mutex> lock(mutex_);
        events_ &= ~static_cast<unsigned>(kLinkDownEvent);
      }
      due = std::chrono::steady_clock::now() + interval;
      continue;
    }
    if ((events & kRejectedEvent) && !RegisterWithController(&error)) {
      channel_.Close();  // reconnect on the next pass
      continue;
    }
    if (now < due) continue;
    ControlMessage beat;
    beat.op = ControlOp::kHeartbeat;
    beat.worker_id = config_.worker_id;
    beat.epoch = plan_epoch_.load(std::memory_order_acquire);
    if (!channel_.Send(beat, &error)) {
      channel_.Close();
      continue;
    }
    due = now + interval;
  }
}

void WorkerAgent::DrainAndAck(std::uint64_t epoch) {
  // Fence first: Owns() now answers false, so the wire server turns new
  // requests away with kWrongWorker while the gateway finishes the rest.
  draining_.store(true, std::memory_order_release);
  support::trace::Instant("cluster.drain_begin");
  const bool ok =
      gateway_.Drain(std::chrono::microseconds(kDrainTimeoutUs));
  support::trace::Instant(ok ? "cluster.drain_done" : "cluster.drain_timeout");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_done_ = true;
    drain_ok_ = ok;
  }
  cv_.notify_all();
  ControlMessage ack;
  ack.op = ControlOp::kDrainAck;
  ack.worker_id = config_.worker_id;
  ack.epoch = epoch;
  (void)channel_.Send(ack);
}

}  // namespace mobivine::cluster
