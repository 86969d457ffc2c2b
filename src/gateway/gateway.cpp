#include "gateway/gateway.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>

#include "android/android_platform.h"
#include "core/meter.h"
#include "core/proxy.h"
#include "core/registry.h"
#include "gateway/mpsc_queue.h"
#include "iphone/iphone_platform.h"
#include "s60/s60_platform.h"
#include "sim/geo_track.h"
#include "support/logging.h"
#include "support/seed.h"
#include "support/trace.h"
#include "webview/bridge.h"

namespace mobivine::gateway {

namespace {

/// Errors worth re-executing: the underlying condition (lost packet,
/// radio glitch, failed GPS fix) is sampled fresh on every attempt.
[[nodiscard]] bool IsTransient(core::ErrorCode code) {
  switch (code) {
    case core::ErrorCode::kTimeout:
    case core::ErrorCode::kRadioFailure:
    case core::ErrorCode::kNetwork:
    case core::ErrorCode::kUnreachable:
    case core::ErrorCode::kLocationUnavailable:
      return true;
    default:
      return false;
  }
}

/// The kOverloaded message for a shed. Admit loads `stopping_` once and
/// passes that value both to its admission decision and here, so the
/// reason cannot flip if Stop() lands mid-submit.
[[nodiscard]] const char* ShedMessage(bool stopping, bool quota) {
  if (stopping) return "gateway is stopping";
  return quota ? "tenant over admission quota"
               : "shard queue above shed watermark";
}

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

constexpr int kMeterOpCount = static_cast<int>(core::Op::kCount_);
/// Virtual time one MiniJS step charges to the shard's clock: the WebView
/// bridge's 2009-handset js_step.
constexpr sim::SimTime kScriptStepCost = webview::BridgeCost{}.js_step;

/// A work item as it sits in a shard queue: the payload — an invocation
/// or an M-Script execution — plus the admission stamps.
struct QueuedRequest {
  std::variant<Request, ScriptRequest> work;
  /// Resolved TenantTable slot (stamped at submit so the worker and the
  /// occupancy release never re-hash the tenant id).
  std::uint32_t tenant_slot = 0;
  Clock::time_point submitted_at{};
  Clock::time_point deadline = kNoDeadline;
};

/// The completion type of a payload: Response for a Request,
/// ScriptResponse for a ScriptRequest (read off its on_complete).
template <typename Result>
Result ResultOf(const std::function<void(const Result&)>&);
template <typename Work>
using ResultFor = decltype(ResultOf(std::declval<Work&>().on_complete));

template <typename Result>
void InvokeCompletion(const std::function<void(const Result&)>& fn,
                      const Result& response) {
  if (!fn) return;
  try {
    fn(response);
  } catch (const std::exception& e) {
    // A throwing completion callback must not take down the worker.
    MOBIVINE_LOG_ERROR << "gateway: completion callback threw: " << e.what();
  }
}

/// Submit `work` through `submit` and block until its completion fires.
template <typename Work, typename SubmitFn>
ResultFor<Work> CallAndWait(Work work, SubmitFn submit) {
  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ResultFor<Work> response;
  } rendezvous;
  work.on_complete = [&rendezvous](const ResultFor<Work>& response) {
    // Notify under the lock: the waiter owns `rendezvous` on its stack, so
    // the callback must not touch it after the waiter can observe done —
    // holding the mutex through the notify pins the waiter in wait().
    std::lock_guard<std::mutex> lock(rendezvous.mutex);
    rendezvous.response = response;
    rendezvous.done = true;
    rendezvous.cv.notify_one();
  };
  submit(std::move(work));
  std::unique_lock<std::mutex> lock(rendezvous.mutex);
  rendezvous.cv.wait(lock, [&rendezvous] { return rendezvous.done; });
  return rendezvous.response;
}

/// Owning copy of a borrowed request's operands (everything but the
/// completion callback, which Admit installs).
Request Materialize(const BorrowedRequest& request) {
  Request owned;
  owned.client_id = request.client_id;
  owned.tenant = request.tenant;
  owned.platform = request.platform;
  owned.op = request.op;
  owned.target.assign(request.target.data(), request.target.size());
  owned.payload.assign(request.payload.data(), request.payload.size());
  owned.content_type.assign(request.content_type.data(),
                            request.content_type.size());
  owned.properties.reserve(request.property_count);
  for (std::size_t i = 0; i < request.property_count; ++i) {
    owned.properties.push_back(ToOwned(request.properties[i]));
  }
  owned.timeout = request.timeout;
  owned.retry = request.retry;
  return owned;
}

/// The start-up check of the op table against the semantic plane: each
/// row's method exists in the loaded descriptors and takes the row's
/// parameter count. Throws ProxyError(kUnsupported) naming the row.
void CheckOpTable(const core::DescriptorStore& store) {
  for (const OpInfo& op : kOps) {
    const std::string row = std::string("op table row ") + op.name + " (" +
                            op.interface_name + "." + op.method + ")";
    const core::ProxyDescriptor* descriptor = store.Find(op.interface_name);
    const core::MethodSpec* method =
        descriptor == nullptr ? nullptr
                              : descriptor->semantic().FindMethod(op.method);
    if (method == nullptr) {
      throw core::ProxyError(core::ErrorCode::kUnsupported,
                             row + ": no such semantic-plane method");
    }
    if (method->parameters.size() != op.parameters) {
      throw core::ProxyError(
          core::ErrorCode::kUnsupported,
          row + ": the table says " + std::to_string(op.parameters) +
              " parameters, the semantic plane declares " +
              std::to_string(method->parameters.size()));
    }
  }
}

void ExportLatency(support::MetricsSink& sink, const std::string& base,
                   const support::HistogramSnapshot& latency) {
  sink.Gauge(base + "latency_p50_us",
             static_cast<double>(latency.Percentile(0.50)));
  sink.Gauge(base + "latency_p95_us",
             static_cast<double>(latency.Percentile(0.95)));
  sink.Gauge(base + "latency_p99_us",
             static_cast<double>(latency.Percentile(0.99)));
}

}  // namespace

const char* ToString(Platform platform) {
  const auto index = static_cast<std::size_t>(platform);
  return index < kPlatformCount ? kPlatformNames[index] : "?";
}

const char* ToString(Op op) {
  const OpInfo* info = FindOp(op);
  return info != nullptr ? info->name : "?";
}

// ---------------------------------------------------------------------------
// Shard: one worker thread owning a complete single-threaded MobiVine world
// ---------------------------------------------------------------------------

class Gateway::Shard {
 public:
  /// Why an admission attempt did not queue the request. Quota and
  /// queue-full both surface kOverloaded to the caller; they are kept
  /// apart so stats and traces can tell "the shard is full" from "this
  /// tenant exceeded its weighted share".
  enum class Admission { kAdmitted, kQueueFull, kQuota };

  Shard(const GatewayConfig& config, const TenantTable& tenants,
        std::uint32_t index, std::shared_ptr<ParseCache> parse_cache)
      : index_(index),
        queue_(config.queue_capacity),
        shed_watermark_(std::min(config.shed_watermark == 0
                                     ? config.queue_capacity
                                     : config.shed_watermark,
                                 config.queue_capacity)),
        default_retry_(config.default_retry),
        tenants_(tenants),
        feed_(config.push_replay_capacity),
        sms_bridge_(*this),
        registry_(config.store) {
    tenant_caps_.reserve(tenants_.size());
    for (std::size_t slot = 0; slot < tenants_.size(); ++slot) {
      tenant_caps_.push_back(tenants_.QueueCap(slot, shed_watermark_));
    }
    tenant_occupancy_ =
        std::make_unique<std::atomic<std::uint32_t>[]>(tenants_.size());
    device::DeviceConfig device_config = config.device_template;
    device_config.seed += index;  // decorrelate shards, stay deterministic
    device_ = std::make_unique<device::MobileDevice>(device_config);
    device_->gps().set_track(
        sim::GeoTrack::Stationary(28.5245, 77.1855, 210.0));
    device_->modem().RegisterSubscriber(kGatewaySmsPeer);
    device_->network().RegisterHost(
        kGatewayHttpHost, [](const device::HttpRequest& http_request) {
          return device::HttpResponse::Ok(http_request.body.empty()
                                              ? "pong"
                                              : http_request.body);
        });

    android_ = std::make_unique<android::AndroidPlatform>(*device_);
    android_->grantPermission(android::permissions::kFineLocation);
    android_->grantPermission(android::permissions::kSendSms);
    android_->grantPermission(android::permissions::kInternet);
    s60_ = std::make_unique<s60::S60Platform>(*device_);
    s60_->grantPermission(s60::permissions::kLocation);
    s60_->grantPermission(s60::permissions::kSmsSend);
    s60_->grantPermission(s60::permissions::kHttp);
    iphone_ = std::make_unique<iphone::IPhonePlatform>(*device_);
    if (config.failover.enabled()) {
      failover_ =
          std::make_unique<FailoverEngine>(config.failover, stats_, index);
    }

    // One Location/Sms/Http proxy per platform binding. With M-Failover
    // the engine is every proxy's fault gate, so injected faults surface
    // through the same binding-dispatch path as real ones.
    const auto create_proxies = [this](Platform platform, auto& binding) {
      const std::size_t i = PlatformIndex(platform);
      Proxy(ProxyFamily::kLocation, i) = registry_.CreateLocationProxy(binding);
      Proxy(ProxyFamily::kSms, i) = registry_.CreateSmsProxy(binding);
      Proxy(ProxyFamily::kHttp, i) = registry_.CreateHttpProxy(binding);
      if (failover_ == nullptr) return;
      for (auto& family : proxies_) {
        family[i]->installFaultGate(failover_.get(), ToString(platform));
      }
    };
    create_proxies(Platform::kAndroid, *android_);
    create_proxies(Platform::kS60, *s60_);
    create_proxies(Platform::kIphone, *iphone_);
    for (ProxyFamily family : {ProxyFamily::kLocation, ProxyFamily::kSms}) {
      Proxy(family, PlatformIndex(Platform::kAndroid))
          ->setProperty("context", &android_->application_context());
    }

    // M-Script: the engine's host ops close over this shard's proxies, so
    // a script's invocations hit the exact metered, fault-gated,
    // descriptor-validated surface kRequest traffic does. All callbacks
    // run on the worker thread only.
    ScriptHostOps host_ops;
    host_ops.invoke = [this](Platform platform, Op op,
                             const std::string& target,
                             const std::string& payload,
                             const std::string& content_type) {
      Request request;
      request.op = op;
      request.target = target;
      request.payload = payload;
      request.content_type = content_type;
      return ExecuteOnce(request, platform);
    };
    host_ops.set_property = [this](Platform platform, Op op,
                                   const std::string& name,
                                   const std::string& value) {
      core::MProxy& proxy = ProxyFor(platform, op);
      // Snapshot each proxy once per script, on first touch; RunScript
      // restores every touched proxy after the run, so script property
      // writes never leak into later traffic on this shard.
      const bool seen = std::any_of(
          script_touched_.begin(), script_touched_.end(),
          [&proxy](const auto& entry) { return entry.first == &proxy; });
      if (!seen) {
        script_touched_.emplace_back(&proxy, proxy.snapshotProperties());
      }
      proxy.setProperty(name, core::PropertyValue(value));
    };
    host_ops.get_property = [this](Platform platform, Op op,
                                   const std::string& name) -> std::string {
      core::MProxy& proxy = ProxyFor(platform, op);
      if (auto s = proxy.getProperty<std::string>(name)) return *s;
      if (auto i = proxy.getProperty<long long>(name)) {
        return std::to_string(*i);
      }
      if (auto d = proxy.getProperty<double>(name)) return std::to_string(*d);
      if (auto b = proxy.getProperty<bool>(name)) return *b ? "true" : "false";
      return std::string();
    };
    host_ops.charge_steps = [this](std::uint64_t steps) {
      device_->scheduler().AdvanceBy(kScriptStepCost *
                                     static_cast<std::int64_t>(steps));
    };
    host_ops.virtual_now_us = [this] { return VirtualNowUs(); };
    script_engine_ = std::make_unique<ScriptEngine>(
        std::move(host_ops), config.script, std::move(parse_cache));

    // Everything above happened on the constructing thread; the thread
    // start below is the handoff point (happens-before), after which the
    // device, platforms and proxies are touched only by the worker.
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  ~Shard() {
    Close();
    Join();
  }

  /// The admission checks, run on the submitting thread before anything
  /// is materialized: the global shed watermark first, then the tenant's
  /// weighted slot cap. Records the depth seen for the high-water mark.
  /// Advisory — the queue can still fill (or the tenant's slots free up)
  /// before TrySubmit, so the push itself remains the authoritative
  /// admission.
  [[nodiscard]] Admission ProbeAdmission(std::size_t slot) {
    const std::size_t depth = queue_.size();
    stats_.ObserveDepth(depth);
    if (depth >= shed_watermark_) return Admission::kQueueFull;
    if (tenant_occupancy_[slot].load(std::memory_order_relaxed) >=
        tenant_caps_[slot]) {
      return Admission::kQuota;
    }
    return Admission::kAdmitted;
  }

  /// The authoritative push. On anything but kAdmitted the item is left
  /// intact in `queued` (TryPush only moves on success) so the caller can
  /// shed it. The occupancy counter is reserved *before* the push and
  /// released on failure, so concurrent submitters can momentarily
  /// observe cap-full and shed, but a tenant can never exceed its cap.
  Admission TrySubmit(QueuedRequest& queued) {
    if (queue_.size() >= shed_watermark_) return Admission::kQueueFull;
    const std::size_t slot = queued.tenant_slot;
    const std::uint32_t prev =
        tenant_occupancy_[slot].fetch_add(1, std::memory_order_relaxed);
    if (prev >= tenant_caps_[slot]) {
      tenant_occupancy_[slot].fetch_sub(1, std::memory_order_relaxed);
      return Admission::kQuota;
    }
    if (!queue_.TryPush(std::move(queued))) {
      tenant_occupancy_[slot].fetch_sub(1, std::memory_order_relaxed);
      return Admission::kQueueFull;
    }
    stats_.Add(ShardCounter::accepted);
    tenants_.stats(slot).Add(TenantCounter::accepted);
    return Admission::kAdmitted;
  }

  void Close() { queue_.Close(); }

  void Join() {
    if (worker_.joinable()) worker_.join();
  }

  [[nodiscard]] ShardSnapshot Snapshot() const {
    return stats_.Snapshot(queue_.size());
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  ShardStats& stats() { return stats_; }

  PushFeed& feed() { return feed_; }

  /// Sum this shard's nine proxy meters into the caller's accumulators
  /// (M-Scope metrics source). Meter counters are relaxed atomics, so
  /// reading them while the worker serves is safe.
  void AddMeterCounts(std::array<std::uint64_t, kMeterOpCount>& counts,
                      std::uint64_t& charged_us) const {
    for (const auto& family : proxies_) {
      for (const auto& proxy : family) {
        const core::OverheadMeter& meter = proxy->meter();
        for (int op = 0; op < kMeterOpCount; ++op) {
          counts[static_cast<std::size_t>(op)] +=
              meter.count(static_cast<core::Op>(op));
        }
        charged_us += static_cast<std::uint64_t>(meter.charged().micros());
      }
    }
  }

 private:
  /// Routes the uniform SmsListener callback surface into the shard's
  /// push feed. One long-lived instance per shard, handed to every
  /// sendTextMessage dispatch — the bindings retain it for the delivery
  /// broadcasts that fire later (during RunAll or a later serve), so it
  /// must outlive every in-flight message, which shard ownership gives.
  class SmsDeliveryBridge : public core::SmsListener {
   public:
    explicit SmsDeliveryBridge(Shard& shard) : shard_(shard) {}
    void smsStatusChanged(long long message_id,
                          core::SmsDeliveryStatus status) override {
      shard_.PublishSmsStatus(message_id, status);
    }

   private:
    Shard& shard_;
  };

  /// Worker-thread only (bindings fire callbacks on the serving thread).
  /// The kSubmitted callback fires inside sendTextMessage, while the
  /// originating request is still the one being served — that is when a
  /// message id gets bound to its client; later delivery broadcasts for
  /// the same id (which fire while a DIFFERENT request is current) look
  /// the owner up instead of trusting serving_client_id_.
  void PublishSmsStatus(long long message_id,
                        core::SmsDeliveryStatus status) {
    std::uint64_t client = serving_client_id_;
    const auto it = sms_owners_.find(message_id);
    if (it != sms_owners_.end()) {
      client = it->second;
    } else {
      sms_owners_.emplace(message_id, client);
    }
    // Delivered/failed are terminal — drop the binding so the map stays
    // bounded by in-flight messages.
    if (status != core::SmsDeliveryStatus::kSubmitted) {
      sms_owners_.erase(message_id);
    }
    feed_.Publish(PushTopic::kSmsDelivery, client,
                  std::to_string(message_id) + ":" + core::ToString(status));
  }

  static constexpr std::size_t PlatformIndex(Platform platform) {
    return static_cast<std::size_t>(platform);
  }

  /// M-Scope virtual clock source for this shard's worker thread: spans
  /// recorded on it carry the shard scheduler's virtual timestamps.
  static std::uint64_t VirtualNow(void* ctx) {
    auto* shard = static_cast<Shard*>(ctx);
    return static_cast<std::uint64_t>(shard->device_->scheduler().now().micros());
  }

  /// The shard's virtual clock, as the µs the breakers and hedge
  /// profiles run on.
  [[nodiscard]] std::uint64_t VirtualNowUs() const {
    return static_cast<std::uint64_t>(device_->scheduler().now().micros());
  }

  void WorkerLoop() {
    support::trace::SetCurrentThreadName("shard-" + std::to_string(index_));
    support::trace::SetThreadVirtualClock(&Shard::VirtualNow, this);
    QueuedRequest queued;
    while (queue_.Pop(queued)) {
      std::visit([&](auto& work) { Serve(queued, work); }, queued.work);
      // The tenant's slot reservation ends at *completion*, not dequeue:
      // the cap bounds outstanding (queued + in-service) work per
      // tenant. Releasing at dequeue would let a flooding tenant with
      // cap 1 keep one request queued while another is being served —
      // effectively two pipeline slots — and interleave itself between
      // every other tenant's requests. FIFO service then converts the
      // outstanding-work bound into weight-proportional served
      // throughput under backlog.
      tenant_occupancy_[queued.tenant_slot].fetch_sub(
          1, std::memory_order_relaxed);
    }
    support::trace::SetThreadVirtualClock(nullptr, nullptr);
  }

  /// One dequeued item, invocation or script: the shared dequeue work
  /// (queue wait, deadline check), the payload's own body, the device
  /// drain, then the one Finish.
  template <typename Work>
  void Serve(const QueuedRequest& queued, Work& work) {
    constexpr bool kScript = std::is_same_v<Work, ScriptRequest>;
    support::trace::Span span(kScript ? "script.run" : "gateway.serve");
    span.Tag("shard", index_);
    serving_client_id_ = work.client_id;
    ResultFor<Work> response;
    const Clock::time_point dequeued_at = Clock::now();
    // Queue wait starts on the submitting thread and ends here; record it
    // as a complete event with caller-supplied bounds.
    support::trace::CompleteEvent("gateway.queue_wait", queued.submitted_at,
                                  dequeued_at, "shard", index_);
    if (dequeued_at >= queued.deadline) {
      support::trace::Instant("gateway.deadline_expired", "shard", index_);
      response.error = core::ErrorCode::kDeadlineExceeded;
      response.message = "deadline expired in queue";
    } else {
      if constexpr (kScript) {
        response = RunScript(work, span);
      } else {
        RunRequest(queued, work, response);
      }
      // Drain device-side follow-ups (delivery intents, polling ticks)
      // before the next item so per-item virtual work stays bounded.
      device_->RunAll();
    }
    Finish(queued, work, response);
  }

  /// The request body: retry rounds under the request's policy and
  /// deadline. Leaves the outcome in `response` for Finish to book.
  void RunRequest(const QueuedRequest& queued, const Request& request,
                  Response& response) {
    const RetryPolicy& policy =
        request.retry.max_attempts > 0 ? request.retry : default_retry_;
    // max_attempts bounds retry ROUNDS. Without M-Failover a round is
    // exactly one dispatch, so this is the pre-failover contract; with it
    // a round is one failover sweep across the shard's platforms, and
    // Response::attempts reports the total dispatches issued.
    const int max_rounds = std::max(policy.max_attempts, 1);
    std::chrono::microseconds backoff =
        std::max(policy.initial_backoff, std::chrono::microseconds(1));
    int round = 0;
    while (true) {
      // The backoff-fits check below predicts the deadline will survive
      // the sleep, but sleep_for may overshoot: re-check so an expired
      // request never starts another attempt.
      if (response.attempts > 0 && Clock::now() >= queued.deadline) {
        support::trace::Instant("gateway.deadline_expired", "shard", index_);
        response.error = core::ErrorCode::kDeadlineExceeded;
        response.message = "deadline expired between retry attempts";
        break;
      }
      ++round;
      const SweepOutcome sweep = RunSweep(request, queued.deadline, response);
      if (sweep.final) break;  // success, or a non-retryable failure
      // The whole sweep failed transiently: spend a retry round on it.
      if (round >= max_rounds) {
        if (sweep.all_backends) {
          // Failover actually swept the shard's platforms (or breakers
          // sidelined them) and none could serve: the caller's platform
          // choice is not the story, the shard-wide outage is.
          response.error = core::ErrorCode::kAllBackendsFailed;
          response.message =
              std::string("all backends failed; last error: ") +
              sweep.last_message;
        } else {
          response.error = sweep.last_code;
          response.message = sweep.last_message;
        }
        break;
      }
      if (Clock::now() + backoff >= queued.deadline) {
        // Transient and rounds remain, but the deadline cannot absorb
        // the next backoff: the request ran out of time, not attempts.
        // That is a deadline outcome, not a failure of the last error's
        // kind — misclassifying it as the transient error lies to the
        // caller and books it as failed instead of timed_out.
        response.error = core::ErrorCode::kDeadlineExceeded;
        response.message =
            std::string("deadline exhausted during retry; last error: ") +
            sweep.last_message;
        break;
      }
      stats_.Add(ShardCounter::retries);
      tenants_.stats(queued.tenant_slot).Add(TenantCounter::retries);
      {
        support::trace::Span backoff_span("gateway.backoff");
        backoff_span.Tag("backoff_us", backoff.count());
        backoff_span.Tag("shard", index_);
        std::this_thread::sleep_for(backoff);
        // Mirror the wait onto the shard's virtual timeline so
        // device-side timers (delivery reports, polling) progress
        // during the backoff — and open circuit breakers cool down.
        device_->scheduler().AdvanceBy(
            sim::SimTime::Micros(backoff.count()));
      }
      const auto grown = static_cast<std::int64_t>(
          static_cast<double>(backoff.count()) * policy.multiplier);
      backoff = std::min(std::chrono::microseconds(std::max<std::int64_t>(
                             grown, backoff.count() + 1)),
                         policy.max_backoff);
    }
  }

  /// The script body: one sandboxed execution. Never retried — a
  /// composite may have performed side effects (an SMS send) before
  /// failing, and retry is expressible in-language since host errors are
  /// catchable.
  ScriptResponse RunScript(const ScriptRequest& script,
                           support::trace::Span& span) {
    stats_.Add(ShardCounter::scripts);
    ScriptResponse response = script_engine_->Execute(script);
    stats_.Add(response.cache_hit ? ShardCounter::script_cache_hits
                                  : ShardCounter::script_cache_misses);
    span.Tag("steps", static_cast<std::int64_t>(response.steps));
    span.Tag("invocations", static_cast<std::int64_t>(response.invocations));
    // Undo the script's property writes (reverse order, mirroring nested
    // ScopedPropertyRestore) whatever the outcome — including throws the
    // script caught and recovered from.
    for (auto it = script_touched_.rbegin(); it != script_touched_.rend();
         ++it) {
      it->first->restoreProperties(std::move(it->second));
    }
    script_touched_.clear();
    stats_.Add(ShardCounter::script_steps, response.steps);
    stats_.Add(ShardCounter::script_invocations, response.invocations);
    if (response.script_error) stats_.Add(ShardCounter::script_errors);
    if (response.budget_kill) stats_.Add(ShardCounter::script_budget_kills);
    return response;
  }

  /// The one completion path. Classifies the final response once — ok /
  /// kDeadlineExceeded / anything else == ok / timed_out / failed — and
  /// books that band on the shard and the tenant plane alike, so the two
  /// cannot disagree. Booking precedes the callback, so a caller woken by
  /// it (Call) already sees the outcome counted.
  template <typename Work>
  void Finish(const QueuedRequest& queued, Work& work,
              ResultFor<Work>& response) {
    response.shard = index_;
    response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - queued.submitted_at);
    TenantStats& tenant = tenants_.stats(queued.tenant_slot);
    if (response.ok) {
      stats_.Add(ShardCounter::ok);
      tenant.Add(TenantCounter::ok);
    } else if (response.error == core::ErrorCode::kDeadlineExceeded) {
      stats_.Add(ShardCounter::timed_out);
      tenant.Add(TenantCounter::timed_out);
    } else {
      stats_.Add(ShardCounter::failed);
      tenant.Add(TenantCounter::failed);
    }
    const auto micros = static_cast<std::uint64_t>(response.latency.count());
    stats_.RecordLatency(micros);
    tenant.RecordLatency(micros);
    support::trace::Span complete_span("gateway.complete");
    complete_span.Tag("shard", index_);
    if constexpr (std::is_same_v<Work, Request>) {
      complete_span.Tag("attempts", response.attempts);
    }
    InvokeCompletion(work.on_complete, response);
  }

  /// What one failover sweep (one retry round) left behind when it did
  /// not finalize the response.
  struct SweepOutcome {
    bool final = false;  ///< response final (success or terminal failure)
    /// The sweep genuinely exhausted the shard's platforms (>= 2
    /// platforms dispatched-and-failed, or breakers sidelined some):
    /// label exhaustion kAllBackendsFailed instead of the last error.
    bool all_backends = false;
    core::ErrorCode last_code = core::ErrorCode::kUnknown;
    std::string last_message;
  };

  /// One retry round. Without M-Failover: exactly one dispatch on the
  /// request's platform. With it: a sweep over the shard's platforms —
  /// primary first, then the rest in enum order — skipping open
  /// breakers, re-dispatching transient failures (failover) and hanging
  /// dispatches (hedge), first success wins.
  SweepOutcome RunSweep(const Request& request, Clock::time_point deadline,
                        Response& response) {
    SweepOutcome out;
    const Platform primary = request.platform;
    const bool multi =
        failover_ != nullptr &&
        (failover_->config().failover || failover_->config().hedging);
    Platform candidates[kPlatformCount];
    std::size_t candidate_count = 0;
    candidates[candidate_count++] = primary;
    if (multi) {
      for (std::size_t i = 0; i < kPlatformCount; ++i) {
        const auto platform = static_cast<Platform>(i);
        if (platform != primary) candidates[candidate_count++] = platform;
      }
    }

    std::size_t breaker_skipped = 0;
    std::size_t dispatched = 0;
    bool next_is_hedge = false;
    for (std::size_t i = 0; i < candidate_count; ++i) {
      const Platform platform = candidates[i];
      const std::size_t platform_index = PlatformIndex(platform);
      if (failover_ != nullptr &&
          !failover_->BreakerAllows(platform_index, VirtualNowUs())) {
        ++breaker_skipped;
        support::trace::Instant("gateway.breaker_skip", "platform",
                                static_cast<std::int64_t>(platform_index));
        continue;
      }
      const bool is_redispatch = dispatched > 0;
      const bool is_hedge = is_redispatch && next_is_hedge;
      std::optional<support::trace::Span> redispatch_span;
      if (is_redispatch) {
        stats_.Add(is_hedge ? ShardCounter::hedges_fired
                            : ShardCounter::failovers);
        redispatch_span.emplace(is_hedge ? "gateway.hedge"
                                         : "gateway.failover");
        redispatch_span->Tag("shard", index_);
        redispatch_span->Tag("to_platform",
                             static_cast<std::int64_t>(platform_index));
      }
      if (failover_ != nullptr) {
        // Patience budget for a hanging dispatch: the hedge threshold
        // when another candidate could take over, otherwise the hang cap
        // bounded by whatever wall-clock deadline remains.
        std::uint64_t budget;
        if (failover_->config().hedging && i + 1 < candidate_count) {
          budget = failover_->HedgeThresholdUs(platform_index);
        } else {
          budget = kHangCapUs;
          if (deadline != kNoDeadline) {
            const auto remaining =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline - Clock::now())
                    .count();
            budget = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
                remaining, 1, static_cast<std::int64_t>(budget)));
          }
        }
        failover_->set_hang_budget_us(budget);
      }
      ++dispatched;
      ++response.attempts;
      const std::uint64_t virt_start = VirtualNowUs();
      try {
        support::trace::Span attempt_span("gateway.attempt");
        attempt_span.Tag("n", response.attempts);
        attempt_span.Tag("shard", index_);
        response.payload = ExecuteOnce(request, platform);
        response.ok = true;
        response.served_platform = platform;
        if (is_hedge) stats_.Add(ShardCounter::hedges_won);
        if (failover_ != nullptr) {
          failover_->OnDispatchSuccess(platform_index,
                                       VirtualNowUs() - virt_start);
        }
        out.final = true;
        return out;
      } catch (const core::ProxyError& error) {
        if (is_redispatch && error.native_type() == "gateway.setProperty") {
          // The request's properties don't port to this platform (e.g. an
          // s60-only property on android) — that makes the candidate
          // ineligible for THIS request, not unhealthy: skip it without
          // charging its breaker. On the primary the same throw is the
          // caller's own error and stays terminal (below).
          continue;
        }
        const bool hung = error.native_type() == "fault.hang";
        const bool transient = IsTransient(error.code());
        if (failover_ != nullptr && transient) {
          failover_->OnDispatchFailure(platform_index, VirtualNowUs());
        }
        if (!transient) {
          response.error = error.code();
          response.message = error.what();
          out.final = true;
          return out;
        }
        out.last_code = error.code();
        out.last_message = error.what();
        // A hang can be hedged even when plain failover is off; any
        // other transient failure moves on only under failover.
        next_is_hedge = hung && multi && failover_->config().hedging;
        const bool sweep_on =
            multi && (failover_->config().failover || next_is_hedge);
        if (!sweep_on) break;  // retry rounds take it from here
      } catch (const std::exception& e) {
        response.error = core::ErrorCode::kUnknown;
        response.message = e.what();
        out.final = true;
        return out;
      }
    }
    if (dispatched == 0) {
      // Every candidate sat behind an open breaker. Retry rounds still
      // apply: the backoff advances the virtual clock, which is exactly
      // what lets a breaker reach half-open.
      out.last_code = core::ErrorCode::kAllBackendsFailed;
      out.last_message = "all circuit breakers open";
      out.all_backends = true;
      return out;
    }
    out.all_backends = multi && (dispatched >= 2 || breaker_skipped > 0);
    return out;
  }

  /// One dispatch on the real proxy surface of `platform`. Throws
  /// ProxyError on failure.
  std::string ExecuteOnce(const Request& request, Platform platform) {
    core::MProxy& proxy = ProxyFor(platform, request.op);
    // Request-scoped properties are applied to a shard-shared, long-lived
    // proxy; without save/restore they would leak into every later
    // request served on it (including on throw, e.g. a property-driven
    // LocationException). Snapshot only when there is something to apply.
    std::optional<core::ScopedPropertyRestore> restore;
    if (!request.properties.empty()) restore.emplace(proxy);
    try {
      for (const auto& [name, value] : request.properties) {
        proxy.setProperty(name, value);
      }
    } catch (const core::ProxyError& error) {
      // Tag property-application failures so the failover sweep can tell
      // "this candidate can't take these properties" from a dispatch
      // failure of the op itself.
      throw core::ProxyError(error.code(), error.what(), error.platform(),
                             "gateway.setProperty");
    }
    switch (request.op) {
      case Op::kGetLocation: {
        const core::Location location =
            static_cast<core::LocationProxy&>(proxy).getLocation();
        return std::to_string(location.latitude) + "," +
               std::to_string(location.longitude);
      }
      case Op::kSendSms:
        // The bridge listener turns submit/delivery broadcasts into
        // kSmsDelivery push events on this shard's feed.
        return std::to_string(
            static_cast<core::SmsProxy&>(proxy).sendTextMessage(
                request.target, request.payload, &sms_bridge_));
      case Op::kHttpGet:
        return static_cast<core::HttpProxy&>(proxy).get(request.target).body;
      case Op::kHttpPost:
        return static_cast<core::HttpProxy&>(proxy)
            .post(request.target, request.payload,
                  request.content_type.empty() ? "text/plain"
                                               : request.content_type)
            .body;
      case Op::kSegmentCount:
        return std::to_string(
            static_cast<core::SmsProxy&>(proxy).segmentCount(
                request.payload));
    }
    throw core::ProxyError(core::ErrorCode::kUnsupported, "unknown op");
  }

  core::MProxy& ProxyFor(Platform platform, Op op) {
    const OpInfo* info = FindOp(op);
    if (info == nullptr) {
      throw core::ProxyError(core::ErrorCode::kUnsupported, "unknown op");
    }
    return *Proxy(info->family, PlatformIndex(platform));
  }

  std::unique_ptr<core::MProxy>& Proxy(ProxyFamily family,
                                       std::size_t platform_index) {
    return proxies_[static_cast<std::size_t>(family)][platform_index];
  }

  const std::uint32_t index_;
  BoundedMpscQueue<QueuedRequest> queue_;
  const std::size_t shed_watermark_;
  const RetryPolicy default_retry_;
  /// The gateway-owned tenant directory (admission weights + the shared
  /// per-tenant stats blocks; outlives every shard).
  const TenantTable& tenants_;
  /// Per-tenant queue-slot caps on THIS shard, derived from the weights
  /// and this shard's watermark at construction.
  std::vector<std::size_t> tenant_caps_;
  /// Outstanding (queued + in-service) requests per tenant here: ++ at
  /// admission, -- at completion (see WorkerLoop). Writers are
  /// submitting threads and the worker.
  std::unique_ptr<std::atomic<std::uint32_t>[]> tenant_occupancy_;
  ShardStats stats_;
  PushFeed feed_;
  SmsDeliveryBridge sms_bridge_;
  /// Client id of the request currently being served; worker-only.
  std::uint64_t serving_client_id_ = 0;
  /// In-flight message id -> originating client; worker-only, entries
  /// dropped on terminal delivery status.
  std::unordered_map<long long, std::uint64_t> sms_owners_;
  /// Null unless GatewayConfig::failover.enabled(); worker-thread-only
  /// after construction (its ShardStats writes are the shared part).
  std::unique_ptr<FailoverEngine> failover_;
  /// M-Script engine; worker-thread-only after construction.
  std::unique_ptr<ScriptEngine> script_engine_;
  /// Proxies the current script touched via setProperty, with their
  /// pre-script bags; worker-only, emptied after every script.
  std::vector<std::pair<core::MProxy*, core::PropertyBag>> script_touched_;

  // The shard-private single-threaded MobiVine world.
  std::unique_ptr<device::MobileDevice> device_;
  std::unique_ptr<android::AndroidPlatform> android_;
  std::unique_ptr<s60::S60Platform> s60_;
  std::unique_ptr<iphone::IPhonePlatform> iphone_;
  core::ProxyRegistry registry_;
  /// ExecuteOnce downcasts by op: kLocation holds LocationProxy, kSms
  /// SmsProxy, kHttp HttpProxy.
  std::unique_ptr<core::MProxy> proxies_[kProxyFamilyCount][kPlatformCount];

  std::thread worker_;  // last member: starts after the world is built
};

// ---------------------------------------------------------------------------
// Gateway
// ---------------------------------------------------------------------------

Gateway::Gateway(GatewayConfig config)
    : config_(std::move(config)), tenant_table_(config_.tenants) {
  // Both checks run before any shard thread starts: a table that has
  // drifted from the descriptors, or a fault rule that can never fire,
  // fails start-up instead of serving.
  if (config_.store != nullptr) CheckOpTable(*config_.store);
  if (std::string problem = FaultPlanProblem(config_.failover.fault_plan);
      !problem.empty()) {
    throw core::ProxyError(core::ErrorCode::kIllegalArgument, problem);
  }
  const int shard_count = std::max(config_.shards, 1);
  // One parse cache for the gateway: client ids, not sources, pick the
  // shard, so per-shard caches would each parse and hold the same hot
  // programs.
  const auto parse_cache =
      std::make_shared<ParseCache>(config_.script.parse_cache_entries);
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config_, tenant_table_, static_cast<std::uint32_t>(i), parse_cache));
  }
}

Gateway::~Gateway() { Stop(); }

std::uint32_t Gateway::ShardFor(std::uint64_t client_id) const {
  // Finalizing mix so nearby client ids still spread across shards.
  return static_cast<std::uint32_t>(support::Mix64(client_id) %
                                    shards_.size());
}

PushFeed& Gateway::FeedForShard(std::uint32_t shard) {
  return shards_[shard]->feed();
}

PushFeed& Gateway::FeedFor(std::uint64_t client_id) {
  return FeedForShard(ShardFor(client_id));
}

std::uint64_t Gateway::PublishEvent(std::uint64_t client_id, PushTopic topic,
                                    std::string body) {
  return FeedFor(client_id).Publish(topic, client_id, std::move(body));
}

int Gateway::shard_count() const { return static_cast<int>(shards_.size()); }

std::size_t Gateway::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue_depth();
  return total;
}

template <typename Result, typename Build>
bool Gateway::Admit(const char* span_name, std::uint64_t client_id,
                    std::uint32_t tenant, std::chrono::microseconds timeout,
                    std::function<void(const Result&)>& on_complete,
                    Build&& build) {
  support::trace::Span span(span_name);
  const std::uint32_t index = ShardFor(client_id);
  span.Tag("shard", index);
  Shard& shard = *shards_[index];
  const std::size_t slot = tenant_table_.SlotFor(tenant);
  TenantStats& tenant_stats = tenant_table_.stats(slot);
  tenant_stats.Add(TenantCounter::submitted);

  const bool stopping = stopping_.load(std::memory_order_relaxed);
  Shard::Admission admission =
      stopping ? Shard::Admission::kQueueFull : shard.ProbeAdmission(slot);
  if (admission == Shard::Admission::kAdmitted) {
    // Admission first, materialization second: a shed decision must not
    // cost a string copy — the wire layer hands views into its input ring
    // precisely so the overload path stays allocation-free.
    QueuedRequest queued{build(), static_cast<std::uint32_t>(slot),
                         Clock::now()};
    if (timeout.count() > 0) queued.deadline = queued.submitted_at + timeout;
    auto& work = std::get<std::invoke_result_t<Build&>>(queued.work);
    work.on_complete = std::move(on_complete);
    admission = shard.TrySubmit(queued);
    if (admission == Shard::Admission::kAdmitted) {
      span.Tag("admitted", 1);
      return true;
    }
    // Lost the race for the last slot; TrySubmit left the item intact.
    on_complete = std::move(work.on_complete);
  }
  // Shed on the submitting thread: typed overload error, no queueing.
  span.Tag("admitted", 0);
  support::trace::Instant("gateway.shed", "shard", index);
  shard.stats().Add(ShardCounter::shed);
  tenant_stats.Add(TenantCounter::shed);
  const bool quota = admission == Shard::Admission::kQuota;
  if (quota) {
    support::trace::Instant("gateway.quota_shed", "shard", index);
    tenant_stats.Add(TenantCounter::quota_shed);
  }
  Result response;
  response.error = core::ErrorCode::kOverloaded;
  response.message = ShedMessage(stopping, quota);
  response.shard = index;
  InvokeCompletion(on_complete, response);
  return false;
}

bool Gateway::Submit(Request request) {
  auto on_complete = std::move(request.on_complete);
  return Admit("gateway.submit", request.client_id, request.tenant,
               request.timeout, on_complete,
               [&request] { return std::move(request); });
}

bool Gateway::Submit(const BorrowedRequest& request,
                     std::function<void(const Response&)> on_complete) {
  return Admit("gateway.submit", request.client_id, request.tenant,
               request.timeout, on_complete,
               [&request] { return Materialize(request); });
}

bool Gateway::SubmitScript(ScriptRequest request) {
  auto on_complete = std::move(request.on_complete);
  return Admit("gateway.submit_script", request.client_id, request.tenant,
               request.timeout, on_complete,
               [&request] { return std::move(request); });
}

Response Gateway::Call(Request request) {
  return CallAndWait(std::move(request),
                     [this](Request r) { Submit(std::move(r)); });
}

ScriptResponse Gateway::CallScript(ScriptRequest request) {
  return CallAndWait(std::move(request),
                     [this](ScriptRequest r) { SubmitScript(std::move(r)); });
}

void Gateway::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->Close();
  for (auto& shard : shards_) shard->Join();
}

GatewaySnapshot Gateway::Stats() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) snapshots.push_back(shard->Snapshot());
  return Aggregate(std::move(snapshots));
}

std::vector<TenantSnapshot> Gateway::TenantStatsSnapshot() const {
  return tenant_table_.Snapshot();
}

bool Gateway::Drain(std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const GatewaySnapshot snapshot = Stats();
    // completed (ok + failed + timed_out) catches up to accepted exactly
    // when no admitted request is queued or in flight. The caller must
    // have fenced new admissions; otherwise this races fresh traffic and
    // simply keeps waiting.
    if (snapshot.totals.completed() >= snapshot.totals.accepted) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

support::MetricsRegistry::Registration Gateway::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        const GatewaySnapshot snapshot = Stats();
        support::ExportCounters(sink, kShardCounters, snapshot.totals);
        ExportLatency(sink, "", snapshot.totals.latency);
        for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
          support::ExportCounters(sink, kShardCounters, snapshot.shards[i],
                                  "shard." + std::to_string(i) + ".");
        }
        // Per-tenant serving counters under tenant.<name>.* — the
        // admission-isolation plane. Quiescent, every tenant reconciles
        // exactly: ok + failed + timed_out + shed == submitted.
        for (const TenantSnapshot& t : tenant_table_.Snapshot()) {
          const std::string base = "tenant." + t.name + ".";
          support::ExportCounters(sink, kTenantCounters, t, base);
          ExportLatency(sink, base, t.latency);
        }
        // M-Push feed totals across shards — the notifier/feeder plane's
        // health: how much was published, how much the replay rings have
        // already forgotten, how many live listeners are attached.
        PushFeed::Counters push;
        for (const auto& shard : shards_) {
          support::AddCounters(kPushCounters, shard->feed().GetCounters(),
                               push);
        }
        support::ExportCounters(sink, kPushCounters, push, "push.");
        // Per-proxy OverheadMeter counts summed across every shard's nine
        // proxies: the paper's de-fragmentation-overhead attribution, as a
        // live metric.
        std::array<std::uint64_t, kMeterOpCount> counts{};
        std::uint64_t charged_us = 0;
        for (const auto& shard : shards_) {
          shard->AddMeterCounts(counts, charged_us);
        }
        for (int op = 0; op < kMeterOpCount; ++op) {
          sink.Counter(
              std::string("op.") + core::ToString(static_cast<core::Op>(op)),
              counts[static_cast<std::size_t>(op)]);
        }
        sink.Counter("op.charged_virtual_us", charged_us);
      });
}

}  // namespace mobivine::gateway
