#include "cluster/controller.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/buffer_pool.h"
#include "support/trace.h"

namespace mobivine::cluster {

Controller::Controller(ControllerConfig config)
    : config_(config),
      membership_(config.membership),
      reactor_({.port = config.port,
                .tick_us = std::max<std::uint64_t>(
                    config.membership.heartbeat_interval_us / 2, 1),
                .thread_name = "cluster-ctrl"},
               {this}) {}

Controller::~Controller() { Stop(); }

bool Controller::Start(std::string* error) { return reactor_.Start(error); }

void Controller::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  reactor_.Stop();
}

void Controller::OnTick() {
  if (membership_.Tick(NowMicros())) {
    // Count silence-detected deaths (connection-close deaths are booked
    // in OnClose).
    counters_.Add(ControllerCounter::deaths);
    support::trace::Instant("cluster.worker_dead");
    BroadcastPlan();
  }
  PublishGauges();
}

void Controller::PublishGauges() {
  counters_.Set(ControllerCounter::epoch, membership_.plan().epoch);
  counters_.Set(ControllerCounter::workers_alive, membership_.alive_count());
  counters_.Set(ControllerCounter::workers_suspect,
                membership_.suspect_count());
}

void Controller::OnClose(const std::shared_ptr<wire::Connection>& conn) {
  const auto it = peers_.find(conn.get());
  if (it == peers_.end()) return;
  const std::uint64_t worker_id = it->second->worker_id;
  peers_.erase(it);
  if (worker_id == 0 || stopping_.load(std::memory_order_relaxed)) return;
  // A registered worker's socket died without a kLeave: that is a death,
  // detected at kernel speed — remove it from the plan now rather than
  // waiting out the heartbeat sweep.
  if (membership_.Remove(worker_id, WorkerHealth::kDead)) {
    counters_.Add(ControllerCounter::deaths);
    support::trace::Instant("cluster.worker_dead", "worker",
                            static_cast<std::int64_t>(worker_id));
    PublishGauges();
    BroadcastPlan();
  }
}

void Controller::SendTo(Peer& peer, const ControlMessage& message) {
  if (peer.conn->closed()) return;
  if (message.op == ControlOp::kPlanPush) {
    counters_.Add(ControllerCounter::plan_pushes);
  }
  support::PooledBuffer frame =
      support::BufferPool::WirePool().Acquire(kControlFrameHint);
  EncodeControl(message, frame.bytes());
  if (wire::Reactor::Send(peer.conn, std::move(frame)) >
      config_.max_output_backlog) {
    // A control peer that stopped reading must not wedge the plane.
    wire::Reactor::Close(peer.conn);
  }
}

void Controller::BroadcastPlan(const Peer* except) {
  ControlMessage push;
  push.op = ControlOp::kPlanPush;
  push.correlation_id = 0;  // unsolicited
  push.plan = membership_.plan();
  push.epoch = push.plan.epoch;
  support::trace::Instant("cluster.plan_push", "epoch",
                          static_cast<std::int64_t>(push.plan.epoch));
  // A send may drop its peer (and so edit peers_): walk a copy.
  std::vector<std::shared_ptr<Peer>> subscribers;
  for (const auto& [conn, peer] : peers_) {
    if (peer->subscribed && peer.get() != except) subscribers.push_back(peer);
  }
  for (const std::shared_ptr<Peer>& peer : subscribers) SendTo(*peer, push);
}

bool Controller::OnFrame(const std::shared_ptr<wire::Connection>& conn,
                         const wire::FrameView& frame) {
  std::shared_ptr<Peer>& slot = peers_[conn.get()];
  if (!slot) slot = std::make_shared<Peer>(Peer{conn});
  const std::shared_ptr<Peer> peer = slot;  // survives a close below
  if (frame.type == wire::FrameType::kControl) {
    ControlMessage message;
    std::string error;
    if (!DecodeControl(frame.payload, frame.payload_size, &message, &error)) {
      counters_.Add(ControllerCounter::control_errors);
      ControlMessage reply;
      reply.op = ControlOp::kError;
      (void)wire::PeekPayloadId(frame.payload, frame.payload_size,
                                &reply.correlation_id);
      reply.message = error;
      SendTo(*peer, reply);
      return true;
    }
    HandleControl(*peer, message);
    return true;
  }
  // The controller serves no data; answer kRequest in-band so a
  // misdirected data client gets a typed error, and tolerate anything
  // else (forward compatibility — same stance as the data plane).
  if (frame.type == wire::FrameType::kRequest) {
    counters_.Add(ControllerCounter::control_errors);
    wire::WireResponse response;
    (void)wire::PeekPayloadId(frame.payload, frame.payload_size,
                              &response.request_id);
    response.status = wire::WireStatus::kUnsupportedFrame;
    support::PooledBuffer out =
        support::BufferPool::WirePool().Acquire(kControlFrameHint);
    wire::EncodeResponse(response, "controller serves control frames only",
                         out.bytes());
    (void)wire::Reactor::Send(conn, std::move(out));
  }
  return true;
}

void Controller::HandleControl(Peer& peer, const ControlMessage& message) {
  support::trace::Span span("cluster.control");
  span.Tag("op", static_cast<std::int64_t>(message.op));
  const std::uint64_t now_us = NowMicros();
  switch (message.op) {
    case ControlOp::kRegister: {
      const RegisterOutcome outcome = membership_.Register(
          message.worker_id, static_cast<std::uint16_t>(message.data_port),
          now_us);
      ControlMessage ack;
      ack.op = ControlOp::kRegisterAck;
      ack.correlation_id = message.correlation_id;
      if (outcome == RegisterOutcome::kRejected) {
        ack.status = AckStatus::kRejected;
        ack.message = "worker_id must be nonzero";
        counters_.Add(ControllerCounter::control_errors);
        SendTo(peer, ack);
        return;
      }
      counters_.Add(ControllerCounter::registers);
      if (outcome == RegisterOutcome::kRejoined) {
        counters_.Add(ControllerCounter::rejoins);
      }
      if (outcome == RegisterOutcome::kReplaced) {
        counters_.Add(ControllerCounter::replaces);
      }
      peer.worker_id = message.worker_id;
      peer.subscribed = true;
      ack.plan = membership_.plan();
      ack.epoch = ack.plan.epoch;
      PublishGauges();
      SendTo(peer, ack);
      // Everyone else learns about the join via an unsolicited push (the
      // joiner just got the plan in its ack).
      BroadcastPlan(&peer);
      return;
    }
    case ControlOp::kHeartbeat: {
      counters_.Add(ControllerCounter::heartbeats);
      const bool known = membership_.Heartbeat(message.worker_id, now_us);
      ControlMessage ack;
      ack.op = ControlOp::kHeartbeatAck;
      ack.correlation_id = message.correlation_id;
      ack.epoch = membership_.plan().epoch;
      // kRejected tells a zombie (declared dead while it was wedged) to
      // re-register instead of heartbeating into the void.
      ack.status = known ? AckStatus::kOk : AckStatus::kRejected;
      SendTo(peer, ack);
      return;
    }
    case ControlOp::kPlanGet: {
      peer.subscribed = true;  // plan watchers get future pushes too
      ControlMessage reply;
      reply.op = ControlOp::kPlanPush;
      reply.correlation_id = message.correlation_id;
      reply.plan = membership_.plan();
      reply.epoch = reply.plan.epoch;
      SendTo(peer, reply);
      return;
    }
    case ControlOp::kLeave: {
      counters_.Add(ControllerCounter::leaves);
      const std::uint64_t worker_id =
          message.worker_id != 0 ? message.worker_id : peer.worker_id;
      peer.worker_id = 0;  // the close that follows is not a death
      const bool changed = membership_.Remove(worker_id, WorkerHealth::kLeft);
      ControlMessage ack;
      ack.op = ControlOp::kLeaveAck;
      ack.correlation_id = message.correlation_id;
      ack.epoch = membership_.plan().epoch;
      SendTo(peer, ack);
      if (changed) {
        PublishGauges();
        BroadcastPlan();
      }
      // Tell the leaver to drain: it already stopped being routed to by
      // the new plan; kDrain bounds the handover of in-flight work.
      ControlMessage drain;
      drain.op = ControlOp::kDrain;
      drain.epoch = membership_.plan().epoch;
      counters_.Add(ControllerCounter::drains_sent);
      SendTo(peer, drain);
      return;
    }
    case ControlOp::kDrainAck:
      counters_.Add(ControllerCounter::drain_acks);
      return;
    case ControlOp::kError:
      counters_.Add(ControllerCounter::control_errors);
      return;
    case ControlOp::kRegisterAck:
    case ControlOp::kHeartbeatAck:
    case ControlOp::kPlanPush:
    case ControlOp::kLeaveAck:
    case ControlOp::kDrain:
      // Server-to-peer ops arriving at the controller: a confused peer.
      counters_.Add(ControllerCounter::control_errors);
      return;
  }
}

ControllerStatsSnapshot Controller::Stats() const {
  ControllerStatsSnapshot snap;
  counters_.LoadInto(snap);
  wire::ReactorStats transport;
  reactor_.LoadStats(transport);
  snap.connections = transport.connections_open;
  // A framing error closes the connection in the reactor, before any
  // frame reaches OnFrame.
  snap.control_errors += transport.protocol_errors;
  return snap;
}

support::MetricsRegistry::Registration Controller::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        support::ExportCounters(sink, kControllerCounters, Stats());
      });
}

}  // namespace mobivine::cluster
