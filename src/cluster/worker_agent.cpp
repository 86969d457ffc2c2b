#include "cluster/worker_agent.h"

#include <chrono>

#include "cluster/membership.h"
#include "support/trace.h"

namespace mobivine::cluster {

WorkerAgent::WorkerAgent(gateway::Gateway& gateway, WorkerAgentConfig config)
    : gateway_(gateway), config_(config) {}

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
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void WorkerAgent::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  channel_.Close();
}

bool WorkerAgent::LeaveAndDrain() {
  if (!thread_.joinable()) return false;
  leave_requested_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(drain_mutex_);
  // The agent thread notices the flag within one heartbeat interval; the
  // drain itself is bounded by drain_timeout_us. Pad the wait so a slow
  // drain reports failure rather than racing this timeout.
  const auto wait = std::chrono::microseconds(
      config_.drain_timeout_us + 4 * config_.heartbeat_interval_us +
      1'000'000);
  drain_cv_.wait_for(lock, wait, [this] { return drain_done_; });
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

WorkerAgentStats WorkerAgent::Stats() const {
  WorkerAgentStats stats;
  stats.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  stats.plan_updates = plan_updates_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  return stats;
}

void WorkerAgent::ApplyPlan(const PartitionPlan& plan) {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan.epoch <= plan_.epoch) return;  // stale push; epochs only advance
  plan_ = plan;
  ring_.Rebuild(plan_);
  plan_epoch_.store(plan_.epoch, std::memory_order_release);
  plan_updates_.fetch_add(1, std::memory_order_relaxed);
  support::trace::Instant("cluster.plan_applied");
}

bool WorkerAgent::RegisterWithController(std::string* error) {
  ControlMessage request;
  request.op = ControlOp::kRegister;
  request.worker_id = config_.worker_id;
  request.data_port = data_port_;
  ControlMessage reply;
  const std::uint64_t timeout_us = 2'000'000;
  if (!channel_.Roundtrip(std::move(request), &reply, timeout_us, error)) {
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

void WorkerAgent::Run() {
  support::trace::SetCurrentThreadName("cluster-agent");
  // A thread's trace label is exported with its first event. Mark the
  // start of the agent's track here: an agent that only heartbeats would
  // otherwise record nothing and leave "cluster-agent" out of the trace.
  support::trace::Instant(
      "cluster.agent_start", "epoch",
      static_cast<std::int64_t>(plan_epoch_.load(std::memory_order_acquire)));
  std::uint64_t next_heartbeat_us = NowMicros() + config_.heartbeat_interval_us;
  while (!stop_.load(std::memory_order_acquire)) {
    if (leave_requested_.exchange(false, std::memory_order_acq_rel)) {
      // Graceful handover: tell the controller first so the plan changes
      // (and clients re-route) while we still finish in-flight work.
      ControlMessage leave;
      leave.op = ControlOp::kLeave;
      leave.worker_id = config_.worker_id;
      ControlMessage reply;
      std::string error;
      const bool acked = channel_.Roundtrip(
          std::move(leave), &reply, 2'000'000, &error,
          [this](const ControlMessage& push) {
            if (push.op == ControlOp::kPlanPush) ApplyPlan(push.plan);
          });
      // Wait (briefly) for the controller's kDrain so the ack carries the
      // post-leave epoch; drain regardless — the gateway must go quiet
      // before the process exits even if the controller vanished.
      std::uint64_t drain_epoch = plan_epoch_.load(std::memory_order_acquire);
      if (acked) {
        const std::uint64_t deadline = NowMicros() + 1'000'000;
        ControlMessage incoming;
        while (NowMicros() < deadline) {
          bool timed_out = false;
          if (!channel_.Receive(&incoming, 50'000, &error, &timed_out)) {
            if (timed_out) continue;
            break;
          }
          if (incoming.op == ControlOp::kPlanPush) {
            ApplyPlan(incoming.plan);
          } else if (incoming.op == ControlOp::kDrain) {
            drain_epoch = incoming.epoch;
            break;
          }
        }
      }
      DrainNow();
      ControlMessage ack;
      ack.op = ControlOp::kDrainAck;
      ack.worker_id = config_.worker_id;
      ack.epoch = drain_epoch;
      if (channel_.connected()) (void)channel_.Send(ack);
      return;  // agent retires; Stop() joins us
    }

    if (!channel_.connected()) {
      // Controller link died: reconnect + re-register under the same id.
      // The controller books it as a rejoin (we were declared dead) or a
      // replace (we beat the detector); either bumps the epoch and
      // re-routes clients back here.
      std::string error;
      if (channel_.Connect(config_.controller_port, config_.connect,
                           &error) &&
          RegisterWithController(&error)) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        support::trace::Instant("cluster.agent_reconnect");
        next_heartbeat_us = NowMicros() + config_.heartbeat_interval_us;
      } else {
        channel_.Close();
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.heartbeat_interval_us));
      }
      continue;
    }

    const std::uint64_t now = NowMicros();
    if (now >= next_heartbeat_us) {
      ControlMessage beat;
      beat.op = ControlOp::kHeartbeat;
      beat.worker_id = config_.worker_id;
      beat.epoch = plan_epoch_.load(std::memory_order_acquire);
      std::string error;
      if (!channel_.Send(beat, &error)) {
        channel_.Close();
        continue;
      }
      heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
      next_heartbeat_us = now + config_.heartbeat_interval_us;
    }

    // Sleep on the socket until the next beat is due; anything that
    // arrives meanwhile (plan pushes, heartbeat acks, a controller-
    // initiated drain) is handled inline.
    const std::uint64_t now2 = NowMicros();
    const std::uint64_t wait_us =
        next_heartbeat_us > now2 ? next_heartbeat_us - now2 : 1;
    ControlMessage incoming;
    std::string error;
    bool timed_out = false;
    if (!channel_.Receive(&incoming, wait_us, &error, &timed_out)) {
      if (!timed_out) channel_.Close();  // transport death => reconnect
      continue;
    }
    switch (incoming.op) {
      case ControlOp::kPlanPush:
        ApplyPlan(incoming.plan);
        break;
      case ControlOp::kHeartbeatAck:
        if (incoming.status == AckStatus::kRejected) {
          // The controller declared us dead (we're a zombie to it); a
          // plain heartbeat cannot resurrect us — re-register.
          std::string reg_error;
          if (!RegisterWithController(&reg_error)) channel_.Close();
        } else if (incoming.epoch >
                   plan_epoch_.load(std::memory_order_acquire)) {
          // We missed a push; ask for the current plan (the reply is a
          // kPlanPush handled on a later iteration).
          ControlMessage get;
          get.op = ControlOp::kPlanGet;
          get.worker_id = config_.worker_id;
          (void)channel_.Send(get, &error);
        }
        break;
      case ControlOp::kDrain: {
        // Controller-initiated drain (it processed our leave before we
        // asked, or an operator is rotating us out).
        DrainNow();
        ControlMessage ack;
        ack.op = ControlOp::kDrainAck;
        ack.worker_id = config_.worker_id;
        ack.epoch = incoming.epoch;
        (void)channel_.Send(ack, &error);
        return;
      }
      default:
        break;  // acks and errors we don't act on
    }
  }
}

void WorkerAgent::DrainNow() {
  // Fence first: Owns() now answers false, so the wire server turns new
  // requests away with kWrongWorker while the gateway finishes the rest.
  draining_.store(true, std::memory_order_release);
  support::trace::Instant("cluster.drain_begin");
  const bool ok =
      gateway_.Drain(std::chrono::microseconds(config_.drain_timeout_us));
  support::trace::Instant(ok ? "cluster.drain_done" : "cluster.drain_timeout");
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_done_ = true;
    drain_ok_ = ok;
  }
  drain_cv_.notify_all();
}

}  // namespace mobivine::cluster
