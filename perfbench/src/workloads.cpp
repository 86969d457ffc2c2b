// The serving-path benchmark: seeded open-loop traffic from one process
// into a 2-shard gateway behind a 1-loop wire server.
//
// One generator thread (the main thread) sends every operation at its
// scheduled time, whatever the system's state: an open loop, so a stall
// shows as latency on every operation due during it. Latency is timed
// from the due time, not from the send. The load never uses more than
// nproc threads: the generator plus one reader thread per connection.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "capacity.h"
#include "check.h"
#include "gateway/gateway.h"
#include "samples.h"
#include "support/seed.h"
#include "wire/client.h"
#include "wire/server.h"

namespace perfbench {

const WorkloadSpec* FindWorkload(std::string_view name) {
  // name, kind, ref_rate, p99_limit_us, max_rate, connections
  static const WorkloadSpec kSpecs[] = {
      {"wire_mixed", Kind::kMixed, 45'000, 5'000, 400'000, 2},
      {"script_composite", Kind::kScript, 1'500, 20'000, 60'000, 2},
      {"push_fanout", Kind::kPush, 4'000, 5'000, 60'000, 1},
      {"wire_retry", Kind::kRetry, 30'000, 5'000, 400'000, 1},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.mixed = MakeMixedInputs(seed, kPoolSize);
  inputs.scripts = MakeScriptInputs(seed, kPoolSize);
  inputs.push = MakePushInputs(seed, kPoolSize);
  inputs.digest = InputDigest(inputs.mixed, inputs.scripts, inputs.push);
  return inputs;
}

namespace {

using namespace mobivine;
using gateway::Platform;

constexpr std::size_t kMaxOps = std::size_t{1} << 22;
constexpr std::size_t kMaxStamps = std::size_t{1} << 21;
constexpr int kMaxPhases = 64;
constexpr int kFanout = kSubsPerClient;
/// Requests per second riding along on the push connections.
constexpr double kPushTrickleRate = 500;
/// Latency percentiles and CPU per operation are taken per window of this
/// length, then aggregated over the windows.
constexpr std::int64_t kWindowNs = 500'000'000;
/// Spans kept per recording thread in a traced run.
constexpr std::size_t kSpansPerLog = 300'000;
/// Op ids of push deliveries live above request ids.
constexpr std::uint64_t kStampIdBase = std::uint64_t{1} << 40;

void SleepUntil(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = ns / 1'000'000'000;
  ts.tv_nsec = ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Precise wake-ups for the generator while it drives a phase: the
/// default 50 us timer slack would add that much to every due time.
/// Threads started meanwhile would inherit it, so it is scoped to the loop.
class PreciseTimers {
 public:
  PreciseTimers() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  }
  ~PreciseTimers() {
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
  }
  PreciseTimers(const PreciseTimers&) = delete;
  PreciseTimers& operator=(const PreciseTimers&) = delete;

 private:
  int saved_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Host-wide stolen and total jiffies (first line of /proc/stat); zeros
/// where the file is unreadable, which keeps every window.
void ReadSteal(std::uint64_t* steal, std::uint64_t* total) {
  *steal = *total = 0;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return;
  unsigned long long v[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    *steal = v[7];
    for (unsigned long long x : v) *total += x;
  }
  std::fclose(file);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Merge per-thread sets and take one percentile (in the samples' unit),
/// aggregated over the phase's windows (WindowedPercentileOf).
Percentile Pct(const std::vector<SampleSet>& sets, double q,
               const std::vector<bool>* keep = nullptr,
               std::vector<double>* per_window = nullptr, double across = 0.5) {
  SampleSet all;
  std::size_t total = 0;
  for (const SampleSet& s : sets) total += s.size();
  all.values().reserve(total);
  for (const SampleSet& s : sets) all.Merge(s);
  return WindowedPercentileOf(all.values(), q, per_window, keep, across);
}

std::string CountNote(const Percentile& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "q=%.4f n=%zu", p.quantile, p.count);
  return buf;
}

class Run;

/// One stretch of traffic at one offered rate. Completion counters are
/// written by reader (or shard) threads; the rest by the generator.
struct Phase {
  Phase(Run* owner, int index_in, double rate_in, int writers,
        std::size_t capacity, bool traced_in)
      : run(owner), index(index_in), rate(rate_in), traced(traced_in) {
    for (int i = 0; i < writers; ++i) {
      lat.emplace_back(capacity);
      bystander.emplace_back(capacity);
      if (traced) {
        server.emplace_back(capacity);
        share.emplace_back(capacity);
        attempts.emplace_back(capacity);
      }
    }
    late = SampleSet(capacity);
  }

  Run* run;
  int index;
  double rate;
  bool traced;
  std::vector<SampleSet> lat, bystander, server, share, attempts;
  SampleSet late;  ///< generator lateness, ns
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 0;  ///< 0: the phase is one window
  /// Taken at each window start and at the end of the phase.
  struct Mark {
    double cpu_s;            ///< process CPU time
    std::uint64_t ok;        ///< operations completed correctly
    std::uint64_t steal;     ///< host-wide stolen jiffies
    std::uint64_t jiffies;   ///< host-wide total jiffies
  };
  std::vector<Mark> marks;
  std::vector<bool> keep;  ///< windows measured (see QuietWindows)
  std::uint64_t attempted = 0;  ///< requests/scripts sent
  std::uint64_t bystander_attempted = 0;
  std::uint64_t published = 0;  ///< push events (each fans out kFanout)
  std::uint64_t outstanding_at_end = 0;
  bool overflow = false;
  bool drained = false;
  double send_ns = 0;  ///< inside SubmitBatch / SubmitScript / Submit
  std::uint64_t send_items = 0;
  double publish_ns = 0;  ///< inside PublishEvent
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> bystander_ok{0};
  std::atomic<std::uint64_t> multi_attempt{0};
  std::atomic<std::uint64_t> multi_attempt_ok{0};

  [[nodiscard]] std::uint64_t expected() const {
    return attempted + published * kFanout;
  }
  /// A latency sample tagged with the window its due time falls in.
  [[nodiscard]] std::uint64_t Sample(std::int64_t due, std::int64_t latency) const {
    const std::int64_t w =
        window_ns > 0 ? std::max<std::int64_t>(0, due - start_ns) / window_ns : 0;
    return Tagged(static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(latency));
  }
};

Phase::Mark TakeMark(const Phase& phase) {
  Phase::Mark mark{CpuSeconds(), phase.ok.load(), 0, 0};
  ReadSteal(&mark.steal, &mark.jiffies);
  return mark;
}

/// A window is quiet when the hypervisor stole at most this share of the
/// host's CPU time during it.
constexpr double kMaxStealFrac = 0.02;
/// Which quantile of the per-window values a latency figure reports: the
/// lower quartile. On a shared VM whole windows stall for reasons outside
/// the program; the quieter quarter of the run tracks the program's own
/// latency, and still moves when the program gets slower everywhere.
constexpr double kAcross = 0.25;

/// What a phase measured, once it has drained.
struct PhaseStats {
  Percentile p50, p99, bystander_p99, late_p99;
  std::vector<double> p99_windows;  ///< ns, one per measured window
  std::vector<double> steal;        ///< stolen share of CPU, per window
  std::uint64_t attempted = 0, failed = 0;
  double fail_frac = 0;
  bool backlog_ok = true;
};

/// Completion callback for one request or script: 16 bytes, so the
/// std::function holding it needs no allocation.
struct Done {
  Phase* phase;
  std::uint64_t packed;  ///< seq << 8 | writer index
  void operator()(const wire::WireResponse& response) const;
};

/// One push subscription's state, owned for the whole run: its handler
/// may still fire while its connection closes.
struct Sub {
  Sub(Run* owner, int conn_in, DeliveryChecker checker_in)
      : run(owner), conn(conn_in), checker(checker_in) {}
  Run* run;
  int conn;
  DeliveryChecker checker;
  std::uint64_t end_stamp = 0;  ///< set when its connection is torn down
};

/// Everything one setup builds; torn down client-first, gateway-last.
struct Env {
  std::unique_ptr<core::DescriptorStore> store;
  std::unique_ptr<gateway::Gateway> gateway;
  std::unique_ptr<wire::WireServer> server;
  std::vector<std::unique_ptr<wire::WireClient>> clients;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    for (auto& client : clients) client->Close();
    if (server) server->Stop();
    if (gateway) gateway->Stop();
  }
};

gateway::GatewayConfig GatewayConfigFor(const WorkloadSpec& spec,
                                        const core::DescriptorStore& store,
                                        std::uint64_t seed) {
  gateway::GatewayConfig config;
  config.shards = 2;
  config.store = &store;
  config.script.max_virtual_us = kScriptVirtualBudgetUs;
  // A busy VM can stall a shard thread for tens of milliseconds; at 45k
  // req/s that fills the default 1024-deep queue and sheds a few hundred
  // requests in one run and none in the next. A deep queue turns such a
  // stall into latency, so no request fails at the reference rate. Scripts
  // and push run at a few thousand per second, where 1024 is a second of
  // traffic.
  if (spec.kind == Kind::kMixed || spec.kind == Kind::kRetry) {
    config.queue_capacity = 65'536;
  }
  if (spec.kind == Kind::kRetry) {
    config.failover.fault_plan =
        *support::FaultPlan::Parse("s60:*:error=timeout:p=0.1");
    config.failover.fault_plan.seed =
        support::SeedSequence(seed).Fork("faults").state();
    // Eight attempts make an exhausted retry a 1e-8 event per s60 request.
    // With six, ten runs (~0.9M s60 requests) exhausted about one.
    config.default_retry.max_attempts = 8;
  }
  return config;
}

class Run {
 public:
  Run(const WorkloadSpec& spec, const Options& options)
      : spec_(spec), options_(options) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;
  /// Closing the connections fires callbacks into phases_ and subs_, so
  /// the environment goes first.
  ~Run() { env_.reset(); }

  int Main();

  void OnResponse(Phase& phase, std::uint64_t packed,
                  const wire::WireResponse& response);
  void OnEvent(Sub& sub, const wire::WireEvent& event);

 private:
  double Setup(std::int64_t since_ns);
  void Teardown();
  Phase& NewPhase(double rate, double seconds, int writers, bool traced);
  void Drive(Phase& phase, double seconds);
  void Emit(Phase& phase, std::int64_t due);
  void EmitRequest(Phase& phase, std::int64_t due);
  void FlushRequests(Phase& phase);
  void Drain(Phase& phase, std::int64_t max_ns);
  PhaseStats Summarize(Phase& phase);
  void DriveInProcess(Phase& phase, gateway::Gateway& gw, double seconds);
  int Finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics);
  int MainUntraced();
  int MainTraced();

  const WorkloadSpec& spec_;
  const Options& options_;
  Inputs inputs_;
  std::unique_ptr<Env> env_;
  std::int64_t process_start_ns_ = NowNs();

  // Per-operation tables, indexed by a run-wide sequence number and
  // never reused, so a late completion always finds its own entries.
  std::unique_ptr<std::int64_t[]> due_{new std::int64_t[kMaxOps]};
  std::unique_ptr<std::int64_t[]> sent_{new std::int64_t[kMaxOps]};
  std::uint64_t next_seq_ = 0;
  // Per-stamp tables for push, written before each publish.
  std::unique_ptr<std::int64_t[]> stamp_due_;
  std::unique_ptr<std::uint8_t[]> stamp_phase_;
  std::unique_ptr<std::uint8_t[]> stamp_client_;
  std::uint64_t next_stamp_ = 0;
  std::array<std::uint64_t, kPushClients> push_ids_{};
  std::vector<std::unique_ptr<Sub>> subs_;

  std::vector<std::unique_ptr<Phase>> phases_;
  std::array<std::atomic<Phase*>, kMaxPhases> phase_at_{};

  struct Batch {
    std::vector<wire::WireRequest> requests;
    std::vector<wire::WireClient::Callback> callbacks;
    std::vector<std::uint64_t> seqs;
  };
  std::vector<Batch> batches_;

  std::atomic<std::uint64_t> wrong_{0};
  std::atomic<std::uint64_t> gap_markers_{0};
  std::atomic<std::uint64_t> delivered_{0};

  // Traced runs: one span log per recording thread.
  SpanLog gen_spans_;
  std::vector<SpanLog> reader_spans_;
};

void Done::operator()(const wire::WireResponse& response) const {
  phase->run->OnResponse(*phase, packed, response);
}

void Run::OnResponse(Phase& phase, std::uint64_t packed,
                     const wire::WireResponse& response) {
  const std::int64_t now = NowNs();
  const std::uint64_t seq = packed >> 8;
  const std::size_t writer = packed & 0xff;
  const std::int64_t latency = now - due_[seq];
  const bool status_ok = response.status == wire::WireStatus::kOk;
  Verdict verdict;
  bool bystander = true;
  if (spec_.kind == Kind::kScript) {
    const ScriptInput& input = inputs_.scripts[seq % kPoolSize];
    verdict = CheckScript(input, status_ok, response.body);
    bystander = !input.touches_s60;
  } else {
    const MixedInput& input = inputs_.mixed[seq % kPoolSize];
    verdict = CheckMixed(input, status_ok, response.body);
    bystander = input.request.platform != Platform::kS60;
  }
  phase.lat[writer].Add(phase.Sample(due_[seq], latency));
  if (bystander) {
    phase.bystander[writer].Add(phase.Sample(due_[seq], latency));
    if (verdict == Verdict::kOk) phase.bystander_ok.fetch_add(1);
  }
  if (verdict == Verdict::kOk) phase.ok.fetch_add(1);
  if (verdict == Verdict::kWrong) wrong_.fetch_add(1);
  if (phase.traced) {
    const std::int64_t server_ns =
        static_cast<std::int64_t>(response.latency_micros) * 1000;
    phase.server[writer].Add(response.latency_micros);
    phase.share[writer].Add(
        phase.Sample(due_[seq], std::max<std::int64_t>(0, now - sent_[seq] - server_ns)));
    phase.attempts[writer].Add(response.attempts);
    if (response.attempts > 1) {
      phase.multi_attempt.fetch_add(1);
      if (status_ok) phase.multi_attempt_ok.fetch_add(1);
    }
    SpanLog& log = reader_spans_[writer];
    log.Record(Layer::kOp, seq, due_[seq], now);
    log.Record(Layer::kServer, seq, std::max(sent_[seq], now - server_ns), now);
  }
  phase.completed.fetch_add(1, std::memory_order_release);
}

void Run::OnEvent(Sub& sub, const wire::WireEvent& event) {
  if (event.kind == wire::EventKind::kEventsDropped) {
    // cursor 0 is the client's "connection gone" marker, not a shed range.
    if (event.cursor != 0) {
      sub.checker.OnGap();
      gap_markers_.fetch_add(1);
    }
    return;
  }
  if (event.kind != wire::EventKind::kData) return;
  const std::int64_t now = NowNs();
  std::uint64_t stamp = 0;
  if (!sub.checker.OnData(event.body, &stamp)) {
    wrong_.fetch_add(1);
    return;
  }
  Phase* phase = phase_at_[stamp_phase_[stamp]].load(std::memory_order_acquire);
  const std::int64_t latency = now - stamp_due_[stamp];
  phase->lat[sub.conn].Add(phase->Sample(stamp_due_[stamp], latency));
  phase->bystander[sub.conn].Add(phase->Sample(stamp_due_[stamp], latency));
  if (phase->traced) {
    reader_spans_[sub.conn].Record(Layer::kOp, kStampIdBase + stamp,
                                   stamp_due_[stamp], now);
  }
  phase->ok.fetch_add(1);
  phase->bystander_ok.fetch_add(1);
  delivered_.fetch_add(1);
  phase->completed.fetch_add(1, std::memory_order_release);
}

double Run::Setup(std::int64_t since_ns) {
  env_ = std::make_unique<Env>();
  Env& env = *env_;
  env.store = std::make_unique<core::DescriptorStore>(
      core::DescriptorStore::LoadDirectory(options_.descriptors));
  env.gateway = std::make_unique<gateway::Gateway>(
      GatewayConfigFor(spec_, *env.store, options_.seed));
  wire::WireServerConfig server_config;
  server_config.event_loops = 1;
  env.server = std::make_unique<wire::WireServer>(*env.gateway, server_config);
  std::string error;
  if (!env.server->Start(&error)) {
    throw std::runtime_error("wire server start failed: " + error);
  }
  for (int i = 0; i < spec_.connections; ++i) {
    auto client = std::make_unique<wire::WireClient>();
    if (!client->Connect(env.server->port(), &error)) {
      throw std::runtime_error("connect failed: " + error);
    }
    env.clients.push_back(std::move(client));
  }
  if (spec_.kind == Kind::kPush) {
    // Half the subscribed client ids on each shard.
    int per_shard[2] = {0, 0};
    int found = 0;
    for (std::uint64_t id = 1; found < kPushClients; ++id) {
      const std::uint32_t shard = env.gateway->ShardFor(id);
      if (per_shard[shard] < kPushClients / 2) {
        ++per_shard[shard];
        push_ids_[found++] = id;
      }
    }
    std::atomic<int> acked{0};
    std::atomic<int> refused{0};
    for (int c = 0; c < kPushClients; ++c) {
      for (int k = 0; k < kSubsPerClient; ++k) {
        const int conn = (c * kSubsPerClient + k) % spec_.connections;
        subs_.push_back(std::make_unique<Sub>(
            this, conn,
            DeliveryChecker(stamp_client_.get(), kMaxStamps,
                            static_cast<std::uint8_t>(c), &inputs_.push,
                            next_stamp_)));
        Sub* sub = subs_.back().get();
        wire::WireSubscribe subscribe;
        subscribe.client_id = push_ids_[c];
        subscribe.topic = wire::PushTopic::kNotification;
        subscribe.mode = wire::SubscribeMode::kLiveOnly;
        (void)env.clients[conn]->Subscribe(
            subscribe,
            [sub](const wire::WireEvent& event) { sub->run->OnEvent(*sub, event); },
            [&acked, &refused](const wire::WireSubscribeAck& ack) {
              if (ack.status != wire::WireStatus::kOk) refused.fetch_add(1);
              acked.fetch_add(1);
            });
      }
    }
    const std::int64_t give_up = NowNs() + 5'000'000'000;
    while (acked.load() < kPushClients * kSubsPerClient && NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (acked.load() != kPushClients * kSubsPerClient || refused.load() != 0) {
      throw std::runtime_error("push subscriptions were not all acknowledged");
    }
  }
  // Warm-up: a short stretch at the reference rate, fully drained.
  Phase& warm = NewPhase(spec_.ref_rate, 0.15, spec_.connections, false);
  Drive(warm, 0.15);
  Drain(warm, 5'000'000'000);
  return static_cast<double>(NowNs() - since_ns) / 1e9;
}

void Run::Teardown() {
  for (auto& sub : subs_) {
    if (sub->end_stamp == 0) sub->end_stamp = next_stamp_;
  }
  env_.reset();
}

Phase& Run::NewPhase(double rate, double seconds, int writers, bool traced) {
  const int index = static_cast<int>(phases_.size());
  if (index >= kMaxPhases) throw std::runtime_error("too many phases");
  double per_sec = rate;
  if (spec_.kind == Kind::kPush) per_sec = rate * kFanout + kPushTrickleRate;
  const auto capacity =
      static_cast<std::size_t>(per_sec * seconds * 1.3) + 4096;
  phases_.push_back(
      std::make_unique<Phase>(this, index, rate, writers, capacity, traced));
  phase_at_[index].store(phases_.back().get(), std::memory_order_release);
  return *phases_.back();
}

void Run::EmitRequest(Phase& phase, std::int64_t due) {
  const std::uint64_t seq = next_seq_++;
  due_[seq] = due;
  const MixedInput& input = inputs_.mixed[seq % kPoolSize];
  const std::size_t conn = input.request.client_id % env_->clients.size();
  Batch& batch = batches_[conn];
  batch.requests.push_back(input.request);
  batch.callbacks.emplace_back(Done{&phase, seq << 8 | conn});
  batch.seqs.push_back(seq);
  ++phase.attempted;
  if (input.request.platform != Platform::kS60) ++phase.bystander_attempted;
}

void Run::FlushRequests(Phase& phase) {
  for (std::size_t conn = 0; conn < batches_.size(); ++conn) {
    Batch& batch = batches_[conn];
    if (batch.requests.empty()) continue;
    const std::int64_t t0 = NowNs();
    for (std::uint64_t seq : batch.seqs) {
      phase.late.Add(phase.Sample(due_[seq], std::max<std::int64_t>(0, t0 - due_[seq])));
      sent_[seq] = t0;
      if (phase.traced) gen_spans_.Record(Layer::kGenLate, seq, due_[seq], t0);
    }
    (void)env_->clients[conn]->SubmitBatch(batch.requests,
                                           std::move(batch.callbacks));
    const std::int64_t t1 = NowNs();
    if (phase.traced) {
      gen_spans_.Record(Layer::kWireSend, batch.seqs.front(), t0, t1,
                        static_cast<std::uint32_t>(batch.seqs.size()));
    }
    phase.send_ns += static_cast<double>(t1 - t0);
    phase.send_items += batch.seqs.size();
    batch.requests.clear();
    batch.callbacks.clear();
    batch.seqs.clear();
  }
}

void Run::Emit(Phase& phase, std::int64_t due) {
  switch (spec_.kind) {
    case Kind::kMixed:
    case Kind::kRetry:
      EmitRequest(phase, due);
      return;
    case Kind::kScript: {
      const std::uint64_t seq = next_seq_++;
      due_[seq] = due;
      const ScriptInput& input = inputs_.scripts[seq % kPoolSize];
      const std::size_t conn = input.script.client_id % env_->clients.size();
      const std::int64_t t0 = NowNs();
      phase.late.Add(phase.Sample(due, std::max<std::int64_t>(0, t0 - due)));
      sent_[seq] = t0;
      ++phase.attempted;
      if (!input.touches_s60) ++phase.bystander_attempted;
      (void)env_->clients[conn]->SubmitScript(input.script,
                                              Done{&phase, seq << 8 | conn});
      const std::int64_t t1 = NowNs();
      if (phase.traced) {
        gen_spans_.Record(Layer::kGenLate, seq, due, t0);
        gen_spans_.Record(Layer::kWireSend, seq, t0, t1);
      }
      phase.send_ns += static_cast<double>(t1 - t0);
      ++phase.send_items;
      return;
    }
    case Kind::kPush: {
      const std::uint64_t stamp = next_stamp_++;
      const PushInput& input = inputs_.push[stamp % kPoolSize];
      stamp_due_[stamp] = due;
      stamp_phase_[stamp] = static_cast<std::uint8_t>(phase.index);
      stamp_client_[stamp] = input.client;
      std::string body = PushBody(stamp, inputs_.push);
      const std::int64_t t0 = NowNs();
      phase.late.Add(phase.Sample(due, std::max<std::int64_t>(0, t0 - due)));
      ++phase.published;
      (void)env_->gateway->PublishEvent(push_ids_[input.client],
                                        gateway::PushTopic::kNotification,
                                        std::move(body));
      const std::int64_t t1 = NowNs();
      if (phase.traced) {
        gen_spans_.Record(Layer::kGenLate, kStampIdBase + stamp, due, t0);
        gen_spans_.Record(Layer::kPublish, kStampIdBase + stamp, t0, t1);
      }
      phase.publish_ns += static_cast<double>(t1 - t0);
      return;
    }
  }
}

void Run::Drive(Phase& phase, double seconds) {
  const std::uint64_t phase_seed =
      support::SeedSequence(options_.seed).Fork("phase").Fork(phase.index).state();
  Arrivals primary(phase_seed, phase.rate);
  const PreciseTimers precise;
  std::optional<Arrivals> trickle;
  if (spec_.kind == Kind::kPush) trickle.emplace(phase_seed + 1, kPushTrickleRate);
  const std::int64_t start = NowNs() + 100'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  phase.start_ns = start;
  std::int64_t next_mark = start;
  std::int64_t next = start + primary.NextGapNs();
  std::int64_t next_trickle =
      trickle ? start + trickle->NextGapNs() : std::numeric_limits<std::int64_t>::max();
  // Leave room in the tables for the ops already in a batch.
  const std::uint64_t seq_limit = kMaxOps - 4096;
  const std::uint64_t stamp_limit = kMaxStamps - 4096;
  while (true) {
    const std::int64_t due = std::min(next, next_trickle);
    if (due >= end) break;
    std::int64_t now = NowNs();
    if (due > now) {
      SleepUntil(due);
      now = NowNs();
    }
    if (next_seq_ >= seq_limit || next_stamp_ >= stamp_limit) {
      phase.overflow = true;
      break;
    }
    for (; next <= now && next < end; next += primary.NextGapNs()) Emit(phase, next);
    for (; next_trickle <= now && next_trickle < end;
         next_trickle += trickle->NextGapNs()) {
      EmitRequest(phase, next_trickle);
    }
    FlushRequests(phase);
    if (phase.window_ns > 0 && now >= next_mark) {
      phase.marks.push_back(TakeMark(phase));
      next_mark += phase.window_ns;
    }
  }
  FlushRequests(phase);
  if (phase.window_ns > 0) phase.marks.push_back(TakeMark(phase));
  const std::uint64_t done = phase.completed.load(std::memory_order_acquire);
  phase.outstanding_at_end = phase.expected() > done ? phase.expected() - done : 0;
}

void Run::Drain(Phase& phase, std::int64_t max_ns) {
  const std::int64_t give_up = NowNs() + max_ns;
  std::uint64_t last = phase.completed.load(std::memory_order_acquire);
  std::int64_t last_progress = NowNs();
  while (last < phase.expected()) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const std::int64_t now = NowNs();
    const std::uint64_t done = phase.completed.load(std::memory_order_acquire);
    if (done != last) {
      last = done;
      last_progress = now;
    }
    // Dropped push events never complete: stop once nothing moves.
    if (now > give_up || now - last_progress > 250'000'000) break;
  }
  phase.drained = last >= phase.expected();
}

PhaseStats Run::Summarize(Phase& phase) {
  PhaseStats stats;
  std::vector<double> steal;
  for (std::size_t w = 1; w < phase.marks.size(); ++w) {
    const Phase::Mark& a = phase.marks[w - 1];
    const Phase::Mark& b = phase.marks[w];
    steal.push_back(b.jiffies > a.jiffies
                        ? static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(b.jiffies - a.jiffies)
                        : 0.0);
  }
  phase.keep = QuietWindows(steal, kMaxStealFrac);
  stats.steal = std::move(steal);
  const std::vector<bool>* keep = &phase.keep;
  stats.p50 = Pct(phase.lat, 0.50, keep, nullptr, kAcross);
  stats.p99 = Pct(phase.lat, 0.99, keep, &stats.p99_windows, kAcross);
  stats.bystander_p99 = Pct(phase.bystander, 0.99, keep, nullptr, kAcross);
  stats.late_p99 = WindowedPercentileOf(phase.late.values(), 0.99, nullptr, keep);
  stats.attempted = phase.expected();
  const std::uint64_t ok = phase.ok.load();
  stats.failed = stats.attempted > ok ? stats.attempted - ok : 0;
  if (spec_.kind == Kind::kRetry) {
    // On wire_retry only the bystanders count: s60 requests are the ones
    // the fault plan targets.
    const std::uint64_t attempted = phase.bystander_attempted;
    const std::uint64_t by_ok = phase.bystander_ok.load();
    stats.fail_frac = attempted == 0 ? 1.0
                                     : static_cast<double>(attempted - std::min(attempted, by_ok)) /
                                           static_cast<double>(attempted);
  } else {
    stats.fail_frac = stats.attempted == 0
                          ? 1.0
                          : static_cast<double>(stats.failed) /
                                static_cast<double>(stats.attempted);
  }
  double per_sec = phase.rate;
  if (spec_.kind == Kind::kPush) per_sec = phase.rate * kFanout + kPushTrickleRate;
  const double allowed = std::max(64.0, per_sec * spec_.p99_limit_us / 1e6);
  stats.backlog_ok = !phase.overflow && phase.drained &&
                     static_cast<double>(phase.outstanding_at_end) <= allowed &&
                     stats.late_p99.value / 1000.0 <= spec_.p99_limit_us;
  return stats;
}

int Run::Main() {
  inputs_ = MakeInputs(options_.seed);
  if (spec_.kind == Kind::kPush) {
    stamp_due_.reset(new std::int64_t[kMaxStamps]);
    stamp_phase_.reset(new std::uint8_t[kMaxStamps]);
    stamp_client_.reset(new std::uint8_t[kMaxStamps]);
  }
  batches_.resize(static_cast<std::size_t>(spec_.connections));
  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d input_digest=%016llx\n",
              spec_.name, static_cast<unsigned long long>(options_.seed),
              options_.seconds, options_.trace ? 1 : 0,
              static_cast<unsigned long long>(inputs_.digest));
  return options_.trace ? MainTraced() : MainUntraced();
}

int Run::Finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  PrintMetrics(metrics);
  const HostInfo host = ReadHost(options_.git_sha);
  RunInfo info{spec_.name, options_.seed, options_.seconds, options_.trace,
               inputs_.digest};
  const std::string path = options_.out_dir + "/" + spec_.name + "-seed" +
                           std::to_string(options_.seed) +
                           (options_.trace ? "-trace" : "") + ".json";
  std::string error;
  if (!WriteResultFile(path, host, info, correct, attempted, failed, metrics,
                       &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("host: nproc=%u cpu=\"%s\" build=%s compiler=\"%s\" git=%s\n",
              host.nproc, host.cpu_model.c_str(), host.build_type.c_str(),
              host.compiler.c_str(), host.git_sha.c_str());
  std::printf("wrote %s\n", path.c_str());
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

/// Wrong answers anywhere in the run, after every subscription has been
/// closed out (so lost deliveries are counted too).
std::uint64_t CloseOut(std::vector<std::unique_ptr<Sub>>& subs,
                       std::uint64_t wrong) {
  for (auto& sub : subs) {
    sub->checker.Finish(sub->end_stamp);
    wrong += sub->checker.lost() + sub->checker.wrong();
  }
  return wrong;
}

int Run::MainUntraced() {
  // Set up three times (process start counts toward the first) and keep
  // the last; setup_s is the median.
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) Teardown();
    setups.push_back(Setup(i == 0 ? process_start_ns_ : NowNs()));
  }

  const double ref_seconds = options_.seconds * 0.5;
  Phase& ref = NewPhase(spec_.ref_rate, ref_seconds, spec_.connections, false);
  ref.window_ns = kWindowNs;
  Drive(ref, ref_seconds);
  Drain(ref, 10'000'000'000);
  const double rss_mb = PeakRssMb();
  const PhaseStats stats = Summarize(ref);
  // CPU per completed operation, per window, median over windows.
  std::vector<double> cpu_per_op;
  for (std::size_t w = 1; w < ref.marks.size(); ++w) {
    const Phase::Mark& a = ref.marks[w - 1];
    const Phase::Mark& b = ref.marks[w];
    if (b.ok > a.ok && ref.keep[w - 1]) {
      cpu_per_op.push_back((b.cpu_s - a.cpu_s) * 1e6 / static_cast<double>(b.ok - a.ok));
    }
  }
  const double late_p50_us =
      WindowedPercentileOf(ref.late.values(), 0.50, nullptr, &ref.keep).value / 1000.0;
  if (late_p50_us > spec_.p99_limit_us || ref.overflow) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the generator fell behind its "
                 "schedule (late p50 %.0f us > %.0f us)\n",
                 late_p50_us, spec_.p99_limit_us);
    return 3;
  }

  // Capacity: probes share the rest of the run.
  constexpr int kMaxProbes = 14;
  const double probe_seconds = options_.seconds * 0.5 / kMaxProbes;
  const CapacityResult capacity = SearchCapacity(
      spec_.ref_rate, spec_.max_rate, spec_.p99_limit_us, kMaxProbes,
      [&](double rate) {
        Phase& phase = NewPhase(rate, probe_seconds, spec_.connections, false);
        phase.window_ns = static_cast<std::int64_t>(probe_seconds * 1e9 / 4);
        Drive(phase, probe_seconds);
        Drain(phase, 3'000'000'000);
        const PhaseStats s = Summarize(phase);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Probe{rate, s.p99.value / 1000.0, s.fail_frac, s.backlog_ok,
                     s.late_p99.value / 1000.0, phase.outstanding_at_end};
      });
  for (const Probe& probe : capacity.probes) {
    std::printf("  probe %10.0f/s  p99 %9.1f us  fail %.5f  late %7.1f us  "
                "outstanding %6llu  backlog %s  -> %s\n",
                probe.rate, probe.p99_us, probe.fail_frac, probe.late_p99_us,
                static_cast<unsigned long long>(probe.outstanding),
                probe.backlog_ok ? "ok" : "GROWS",
                Passes(probe, spec_.p99_limit_us) ? "pass" : "fail");
  }
  Teardown();
  const std::uint64_t wrong = CloseOut(subs_, wrong_.load());

  const double unit = spec_.kind == Kind::kPush ? kFanout : 1;
  // Latency, capacity, CPU per operation and failures are printed but not
  // gated: on a shared VM their run-to-run spread is wider than any useful
  // regression bound.
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s", "median of 3 setups"},
      {"latency_p50_us", stats.p50.value / 1000.0, "us", CountNote(stats.p50), false},
      {"latency_p99_us", stats.p99.value / 1000.0, "us", CountNote(stats.p99), false},
      {"capacity_rps", capacity.rate * unit, "1/s",
       std::to_string(capacity.probes.size()) + " probes", false},
      {"cpu_us_per_op", Median(cpu_per_op), "us",
       "getrusage user+sys, median of " + std::to_string(cpu_per_op.size()) +
           " quiet windows",
       false},
      {"peak_rss_mb", rss_mb, "MB", "ru_maxrss after the reference phase"},
      {"bystander_p99_us", stats.bystander_p99.value / 1000.0, "us",
       CountNote(stats.bystander_p99), false},
      {"fail_frac", stats.fail_frac, "ratio",
       spec_.kind == Kind::kRetry ? "bystanders only" : "", false},
  };
  std::printf("steal per %.1f s window (%%):", kWindowNs / 1e9);
  for (double v : stats.steal) std::printf(" %.1f", v * 100);
  std::printf("\np99 per measured window (us):");
  for (double v : stats.p99_windows) std::printf(" %.0f", v / 1000.0);
  std::printf("\ncpu per op per measured window (us):");
  for (double v : cpu_per_op) std::printf(" %.1f", v);
  std::printf("\n");
  std::printf("reference rate %.0f/s: attempted %llu failed %llu fail_frac %.6f "
              "wrong %llu gen.late_p99 %.1f us\n",
              spec_.ref_rate, static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.failed), stats.fail_frac,
              static_cast<unsigned long long>(wrong),
              stats.late_p99.value / 1000.0);
  return Finish(wrong == 0, stats.attempted, stats.failed, metrics);
}

void Run::DriveInProcess(Phase& phase, gateway::Gateway& gw, double seconds) {
  // Borrowed property views into the pool, built once.
  std::vector<std::vector<gateway::BorrowedProperty>> props(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    for (const auto& [name, value] : inputs_.mixed[i].request.properties) {
      gateway::BorrowedProperty p;
      p.name = name;
      if (const std::string* s = value.AsString()) p.value = std::string_view(*s);
      if (const long long* n = value.AsInt()) p.value = *n;
      props[i].push_back(p);
    }
  }
  const std::uint64_t phase_seed =
      support::SeedSequence(options_.seed).Fork("phase").Fork(phase.index).state();
  const double rate = spec_.kind == Kind::kPush ? kPushTrickleRate : phase.rate;
  Arrivals arrivals(phase_seed, rate);
  const PreciseTimers precise;
  const std::int64_t start = NowNs() + 100'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t next = start + arrivals.NextGapNs(); next < end;
       next += arrivals.NextGapNs()) {
    if (next > NowNs()) SleepUntil(next);
    if (next_seq_ >= kMaxOps - 1) {
      phase.overflow = true;
      break;
    }
    const std::uint64_t seq = next_seq_++;
    due_[seq] = next;
    Phase* ph = &phase;
    std::int64_t t0 = 0, t1 = 0;
    ++phase.attempted;
    if (spec_.kind == Kind::kScript) {
      const ScriptInput& input = inputs_.scripts[seq % kPoolSize];
      gateway::ScriptRequest request;
      request.client_id = input.script.client_id;
      request.source = input.script.source;
      request.args = input.script.args;
      request.on_complete = [this, ph, seq](const gateway::ScriptResponse& r) {
        const std::int64_t now = NowNs();
        const Verdict v = CheckScript(inputs_.scripts[seq % kPoolSize], r.ok, r.result);
        ph->lat[r.shard].Add(static_cast<std::uint64_t>(now - due_[seq]));
        if (v == Verdict::kOk) ph->ok.fetch_add(1);
        if (v == Verdict::kWrong) wrong_.fetch_add(1);
        ph->completed.fetch_add(1, std::memory_order_release);
      };
      t0 = NowNs();
      (void)gw.SubmitScript(std::move(request));
      t1 = NowNs();
    } else {
      const std::size_t i = seq % kPoolSize;
      const wire::WireRequest& r = inputs_.mixed[i].request;
      gateway::BorrowedRequest borrowed;
      borrowed.client_id = r.client_id;
      borrowed.platform = r.platform;
      borrowed.op = r.op;
      borrowed.target = r.target;
      borrowed.payload = r.payload;
      borrowed.content_type = r.content_type;
      borrowed.properties = props[i].data();
      borrowed.property_count = props[i].size();
      std::function<void(const gateway::Response&)> done =
          [this, ph, seq](const gateway::Response& r) {
            const std::int64_t now = NowNs();
            const Verdict v =
                CheckMixed(inputs_.mixed[seq % kPoolSize], r.ok, r.payload);
            ph->lat[r.shard].Add(static_cast<std::uint64_t>(now - due_[seq]));
            if (v == Verdict::kOk) ph->ok.fetch_add(1);
            if (v == Verdict::kWrong) wrong_.fetch_add(1);
            ph->completed.fetch_add(1, std::memory_order_release);
          };
      t0 = NowNs();
      (void)gw.Submit(borrowed, std::move(done));
      t1 = NowNs();
    }
    gen_spans_.Record(Layer::kGatewaySubmit, seq, t0, t1);
    phase.late.Add(phase.Sample(next, std::max<std::int64_t>(0, t0 - next)));
    phase.send_ns += static_cast<double>(t1 - t0);
    ++phase.send_items;
  }
}

int Run::MainTraced() {
  (void)Setup(process_start_ns_);
  gen_spans_ = SpanLog(kSpansPerLog);
  for (int i = 0; i < spec_.connections; ++i) reader_spans_.emplace_back(kSpansPerLog);
  SpanLog offline_spans(kSpansPerLog);
  const OfflineLayers offline =
      MeasureOffline(spec_, inputs_, *env_->store, &offline_spans);

  const double leg = options_.seconds * 0.28;
  // Untraced and traced legs at the reference rate, back to back.
  Phase& plain = NewPhase(spec_.ref_rate, leg, spec_.connections, false);
  plain.window_ns = kWindowNs;
  Drive(plain, leg);
  Drain(plain, 10'000'000'000);
  const PhaseStats plain_stats = Summarize(plain);

  const wire::WireStatsSnapshot w0 = env_->server->Stats();
  const gateway::GatewaySnapshot g0 = env_->gateway->Stats();
  const std::uint64_t gaps0 = gap_markers_.load();
  const std::uint64_t delivered0 = delivered_.load();
  Phase& traced = NewPhase(spec_.ref_rate, leg, spec_.connections, true);
  traced.window_ns = kWindowNs;
  Drive(traced, leg);
  Drain(traced, 10'000'000'000);
  const PhaseStats traced_stats = Summarize(traced);
  const wire::WireStatsSnapshot w1 = env_->server->Stats();
  const gateway::GatewaySnapshot g1 = env_->gateway->Stats();
  const std::uint64_t gaps = gap_markers_.load() - gaps0;
  const std::uint64_t delivered = delivered_.load() - delivered0;
  Teardown();

  // In-process leg: the same inputs at the same rate straight into
  // Gateway::Submit, with no wire in between.
  const auto store = std::make_unique<core::DescriptorStore>(
      core::DescriptorStore::LoadDirectory(options_.descriptors));
  Phase& inproc = NewPhase(spec_.ref_rate, leg, 2, false);
  {
    gateway::Gateway gw(GatewayConfigFor(spec_, *store, options_.seed));
    DriveInProcess(inproc, gw, leg);
    Drain(inproc, 10'000'000'000);
    gw.Stop();
  }
  const Percentile inproc_p50 = Pct(inproc.lat, 0.50);
  const std::uint64_t wrong = CloseOut(subs_, wrong_.load());

  auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const gateway::ShardSnapshot& t0 = g0.totals;
  const gateway::ShardSnapshot& t1 = g1.totals;
  double skew_max = 0, skew_sum = 0;
  for (std::size_t s = 0; s < g1.shards.size(); ++s) {
    const double accepted = delta(g1.shards[s].accepted, g0.shards[s].accepted);
    skew_max = std::max(skew_max, accepted);
    skew_sum += accepted;
  }
  const double skew_mean = skew_sum / static_cast<double>(g1.shards.size());
  const double traced_ops = static_cast<double>(traced.ok.load());
  // Taken by the same rule as the untraced p50 it is compared with in the
  // ledger: the lower quartile over the quiet windows.
  const double share_p50 = Pct(traced.share, 0.50, &traced.keep, nullptr, kAcross).value / 1000.0;
  const double untraced_p50 = plain_stats.p50.value / 1000.0;
  const double inproc_p50_us = inproc_p50.value / 1000.0;
  const double scripts = delta(t1.scripts, t0.scripts);
  const double cache = delta(t1.script_cache_hits, t0.script_cache_hits) +
                       delta(t1.script_cache_misses, t0.script_cache_misses);

  std::vector<Metric> metrics = {
      {"wire.encode_ns", offline.encode_ns, "ns", "offline, own frames"},
      {"wire.decode_ns", offline.decode_ns, "ns", "DecodeFrame + body"},
      {"wire.client_send_us", ratio(traced.send_ns, static_cast<double>(traced.send_items)) / 1000.0,
       "us", "per request"},
      {"wire.share_p50_us", share_p50, "us", "client RTT - server latency"},
      {"wire.writev_per_frame", ratio(delta(w1.writev_calls, w0.writev_calls),
                                      delta(w1.frames_out, w0.frames_out) +
                                          delta(w1.events_out, w0.events_out)),
       "ratio", ""},
      {"wire.bytes_per_op", ratio(delta(w1.bytes_in, w0.bytes_in) + delta(w1.bytes_out, w0.bytes_out),
                                  traced_ops),
       "B", ""},
      {"wire.pool_miss_per_op", ratio(delta(w1.pool_misses, w0.pool_misses),
                                      delta(w1.requests_dispatched, w0.requests_dispatched) +
                                          delta(w1.scripts_dispatched, w0.scripts_dispatched)),
       "ratio", ""},
      {"wire.backpressure_stalls", delta(w1.backpressure_stalls, w0.backpressure_stalls), "count", ""},
      {"wire.epollout_arms", delta(w1.epollout_arms, w0.epollout_arms), "count", ""},
      {"gateway.submit_us", ratio(inproc.send_ns, static_cast<double>(inproc.send_items)) / 1000.0,
       "us", "in-process leg"},
      {"gateway.server_p50_us", Pct(traced.server, 0.50).value, "us", "WireResponse.latency_micros"},
      {"gateway.server_p99_us", Pct(traced.server, 0.99).value, "us", CountNote(Pct(traced.server, 0.99))},
      {"gateway.inproc_p50_us", inproc_p50_us, "us", CountNote(inproc_p50)},
      {"gateway.queue_share_p50_us", inproc_p50_us - offline.core_service_us, "us",
       "in-process p50 - core service"},
      {"gateway.max_queue_depth", static_cast<double>(t1.max_queue_depth), "count", ""},
      {"gateway.shed_frac", ratio(delta(t1.shed, t0.shed),
                                  delta(t1.accepted, t0.accepted) + delta(t1.shed, t0.shed)),
       "ratio", ""},
      {"gateway.shard_skew", ratio(skew_max, skew_mean), "ratio", "max/mean accepted"},
      {"gateway.retries_per_op", ratio(delta(t1.retries, t0.retries), delta(t1.accepted, t0.accepted)),
       "ratio", ""},
      {"gateway.faults_injected", delta(t1.faults_injected, t0.faults_injected), "count", ""},
      {"gateway.breaker_opens", delta(t1.breaker_opens, t0.breaker_opens), "count", ""},
      {"gateway.attempts_p99", Pct(traced.attempts, 0.99).value, "count", ""},
      {"gateway.retry_success_frac", ratio(static_cast<double>(traced.multi_attempt_ok.load()),
                                           static_cast<double>(traced.multi_attempt.load())),
       "ratio", std::to_string(traced.multi_attempt.load()) + " multi-attempt"},
      {"core.get_location_us", offline.get_location_us, "us", "standalone world"},
      {"core.send_sms_us", offline.send_sms_us, "us", ""},
      {"core.http_get_us", offline.http_get_us, "us", ""},
      {"core.http_post_us", offline.http_post_us, "us", ""},
      {"core.segment_count_us", offline.segment_count_us, "us", ""},
      {"core.set_property_ns", offline.set_property_ns, "ns", ""},
      {"minijs.parse_us", offline.parse_us, "us", "source pool"},
      {"script.engine_us", offline.engine_us, "us", "warm cache"},
      {"script.inproc_p50_us", spec_.kind == Kind::kScript ? inproc_p50_us : 0, "us", ""},
      {"script.steps_per_op", ratio(delta(t1.script_steps, t0.script_steps), scripts), "count", ""},
      {"script.invocations_per_op", ratio(delta(t1.script_invocations, t0.script_invocations), scripts),
       "count", ""},
      {"script.cache_hit_frac", ratio(delta(t1.script_cache_hits, t0.script_cache_hits), cache), "ratio",
       ""},
      {"script.budget_kills", delta(t1.script_budget_kills, t0.script_budget_kills), "count", ""},
      {"push.publish_us", ratio(traced.publish_ns, static_cast<double>(traced.published)) / 1000.0, "us",
       ""},
      {"push.delivered_frac", ratio(static_cast<double>(delivered),
                                    static_cast<double>(traced.published * kFanout)),
       "ratio", ""},
      {"push.events_dropped", delta(w1.events_dropped, w0.events_dropped), "count", ""},
      {"push.gap_markers", static_cast<double>(gaps), "count", ""},
      {"push.events_per_writev", ratio(delta(w1.events_out, w0.events_out),
                                       delta(w1.writev_calls, w0.writev_calls)),
       "ratio", ""},
      {"gen.late_p99_us", plain_stats.late_p99.value / 1000.0, "us", CountNote(plain_stats.late_p99)},
      {"trace.overhead_frac", ratio(traced_stats.p50.value - plain_stats.p50.value, plain_stats.p50.value),
       "ratio", "traced vs untraced p50"},
      {"ledger.accounted_frac", ratio(share_p50 + inproc_p50_us, untraced_p50), "ratio",
       "(wire share + in-process p50) / untraced p50"},
  };

  // Self time per layer from the spans, beside the counters above.
  std::vector<const SpanLog*> logs = {&gen_spans_, &offline_spans};
  for (const SpanLog& log : reader_spans_) logs.push_back(&log);
  const std::vector<LayerSelf> layers = SelfTimes(logs);
  std::printf("layer self time (benchmark-side spans):\n");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].spans == 0) continue;
    std::printf("  %-18s spans %8llu  items %8llu  self %10.3f us/item\n",
                LayerName(static_cast<Layer>(i)),
                static_cast<unsigned long long>(layers[i].spans),
                static_cast<unsigned long long>(layers[i].items),
                layers[i].self_us / static_cast<double>(layers[i].items));
  }
  std::printf("ledger: untraced p50 %.1f us ~ wire share %.1f + queue %.1f + core %.1f "
              "= %.1f us\n",
              untraced_p50, share_p50, inproc_p50_us - offline.core_service_us,
              offline.core_service_us, share_p50 + inproc_p50_us);
  std::string error;
  const std::string span_path = options_.out_dir + "/" + spec_.name + "-seed" +
                                std::to_string(options_.seed) + "-spans.txt";
  if (!WriteSpans(span_path, logs, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::uint64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::printf("wrote %s (%llu spans over capacity not kept)\n", span_path.c_str(),
              static_cast<unsigned long long>(dropped));
  return Finish(wrong == 0, traced_stats.attempted, traced_stats.failed, metrics);
}

}  // namespace

int RunWorkload(const WorkloadSpec& spec, const Options& options) {
  Run run(spec, options);
  return run.Main();
}

}  // namespace perfbench
