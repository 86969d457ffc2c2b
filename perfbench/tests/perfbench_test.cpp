// The benchmark's own tests: input determinism, the percentile rule,
// the capacity search and the checker.
//
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "capacity.h"
#include "check.h"
#include "gateway/script.h"
#include "samples.h"

namespace perfbench {
namespace {

using mobivine::gateway::Op;
using mobivine::gateway::Platform;

// ---- generator determinism ----

TEST(Inputs, SameSeedSameDigest) {
  const Inputs a = MakeInputs(7);
  const Inputs b = MakeInputs(7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, InputDigest(b.mixed, b.scripts, b.push));
  EXPECT_NE(a.digest, MakeInputs(8).digest);
}

TEST(Inputs, PoolsFollowTheWorkloadSpec) {
  const Inputs in = MakeInputs(3);
  ASSERT_EQ(in.mixed.size(), kPoolSize);
  std::size_t s60 = 0, props = 0, minted = 0;
  for (const MixedInput& m : in.mixed) {
    const auto& r = m.request;
    EXPECT_GE(r.client_id, 1u);
    EXPECT_LE(r.client_id, kClients);
    if (r.platform == Platform::kS60) ++s60;
    if (!r.properties.empty()) {
      ++props;
      EXPECT_EQ(r.platform, Platform::kS60);
      EXPECT_EQ(r.op, Op::kGetLocation);
    }
    if (r.op == Op::kSendSms || r.op == Op::kSegmentCount) {
      EXPECT_GE(r.payload.size(), 1u);
      EXPECT_LE(r.payload.size(), 480u);
    }
    if (r.op == Op::kHttpPost) {
      EXPECT_GE(r.payload.size(), 16u);
      EXPECT_LE(r.payload.size(), 4096u);
    }
  }
  EXPECT_NEAR(static_cast<double>(s60) / kPoolSize, 0.25, 0.02);
  EXPECT_GT(props, 0u);
  for (const ScriptInput& s : in.scripts) minted += s.minted ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(minted) / kPoolSize, 0.02, 0.005);
}

TEST(Inputs, ArrivalsAreSeededPoisson) {
  Arrivals a(11, 50'000), b(11, 50'000);
  double sum = 0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t gap = a.NextGapNs();
    ASSERT_EQ(gap, b.NextGapNs());
    ASSERT_GE(gap, 0);
    sum += static_cast<double>(gap);
  }
  EXPECT_NEAR(sum / kDraws, 20'000.0, 200.0);  // 1 / 50k per second
}

// ---- the percentile rule ----

std::vector<std::uint64_t> OneTo(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Percentile, NominalRankWhenTheTailIsDeepEnough) {
  auto v = OneTo(1000);
  const Percentile p99 = PercentileOf(v, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_DOUBLE_EQ(p99.quantile, 0.99);
  EXPECT_EQ(PercentileOf(v, 0.5).value, 500);
}

TEST(Percentile, CappedSoTenSamplesLieBeyond) {
  auto v = OneTo(100);
  const Percentile p99 = PercentileOf(v, 0.99);
  EXPECT_EQ(p99.value, 90);  // rank 99 capped at 100 - 10
  EXPECT_DOUBLE_EQ(p99.quantile, 0.90);
  auto w = OneTo(11);
  EXPECT_EQ(PercentileOf(w, 0.99).value, 1);
  auto x = OneTo(10);
  EXPECT_EQ(PercentileOf(x, 0.5).count, 0u);  // too few to report
}

TEST(Percentile, WindowedIsTheMedianOverWindows) {
  std::vector<std::uint64_t> tagged;
  // Three windows of 1..1000 scaled by 1, 2 and 100 (a stalled window).
  for (std::uint64_t w : {0, 1, 2}) {
    const std::uint64_t scale = w == 0 ? 1 : w == 1 ? 2 : 100;
    for (std::uint64_t v : OneTo(1000)) tagged.push_back(Tagged(w, v * scale));
  }
  std::vector<double> per_window;
  const Percentile p = WindowedPercentileOf(tagged, 0.99, &per_window);
  ASSERT_EQ(per_window.size(), 3u);
  EXPECT_EQ(per_window[2], 99'000);
  EXPECT_EQ(p.value, 1980);  // the middle window, not the stalled one
  EXPECT_EQ(p.count, 3000u);
}

// ---- capacity search on a synthetic latency curve ----

/// p99 grows slowly to a knee at `knee` rps, then explodes.
Probe Synthetic(double rate, double knee) {
  Probe p;
  p.rate = rate;
  p.p99_us = rate < knee ? 100 + rate / 1000 : 1e6;
  p.backlog_ok = rate < knee;
  return p;
}

TEST(Capacity, FindsTheKneeWithinOneGridStep) {
  for (double knee : {61'000.0, 137'000.0, 299'000.0}) {
    const CapacityResult r = SearchCapacity(
        45'000, 400'000, 5'000, 20,
        [knee](double rate) { return Synthetic(rate, knee); });
    EXPECT_LT(r.rate, knee);
    EXPECT_GE(r.rate * kGridRatio, knee) << "knee " << knee;
  }
}

TEST(Capacity, SearchesDownWhenTheStartFails) {
  const CapacityResult r = SearchCapacity(
      45'000, 400'000, 5'000, 20,
      [](double rate) { return Synthetic(rate, 30'000); });
  EXPECT_LT(r.rate, 30'000);
  EXPECT_GE(r.rate * kGridRatio, 30'000);
}

TEST(Capacity, OneStallDoesNotDecideAStep) {
  int calls = 0;
  const CapacityResult r = SearchCapacity(
      45'000, 400'000, 5'000, 24, [&calls](double rate) {
        Probe p = Synthetic(rate, 137'000);
        if (++calls == 2) p.p99_us = 50'000;  // a stall in one probe
        return p;
      });
  EXPECT_LT(r.rate, 137'000);
  EXPECT_GE(r.rate * kGridRatio, 137'000);
}

TEST(Capacity, FailuresAndBacklogFailAProbe) {
  Probe p = Synthetic(50'000, 100'000);
  EXPECT_TRUE(Passes(p, 5'000));
  p.fail_frac = 0.002;
  EXPECT_FALSE(Passes(p, 5'000));
  p.fail_frac = 0;
  p.backlog_ok = false;
  EXPECT_FALSE(Passes(p, 5'000));
}

// ---- the checker ----

MixedInput Input(Op op, std::string payload, Expect check, std::string expect) {
  MixedInput in;
  in.request.op = op;
  in.request.payload = std::move(payload);
  in.check = check;
  in.expect = std::move(expect);
  return in;
}

TEST(Checker, RejectsCorruptedResponses) {
  const MixedInput post = Input(Op::kHttpPost, "body", Expect::kExact, "body");
  EXPECT_EQ(CheckMixed(post, true, "body"), Verdict::kOk);
  EXPECT_EQ(CheckMixed(post, true, "bodx"), Verdict::kWrong);
  EXPECT_EQ(CheckMixed(post, true, "body "), Verdict::kWrong);
  EXPECT_EQ(CheckMixed(post, false, "body"), Verdict::kFailed);

  const MixedInput location = Input(Op::kGetLocation, "", Expect::kLatLon, "");
  EXPECT_EQ(CheckMixed(location, true, "28.524500,77.185500"), Verdict::kOk);
  EXPECT_EQ(CheckMixed(location, true, "28.5245;77.1855"), Verdict::kWrong);
  EXPECT_EQ(CheckMixed(location, true, "128.5,77.1"), Verdict::kWrong);
  EXPECT_EQ(CheckMixed(location, true, "nan,1"), Verdict::kWrong);

  const MixedInput sms = Input(Op::kSendSms, "hi", Expect::kMessageId, "");
  EXPECT_EQ(CheckMixed(sms, true, "42"), Verdict::kOk);
  EXPECT_EQ(CheckMixed(sms, true, "4x2"), Verdict::kWrong);
  EXPECT_EQ(CheckMixed(sms, true, ""), Verdict::kWrong);
}

TEST(Checker, SegmentCountMatchesTextLength) {
  const Inputs in = MakeInputs(5);
  for (const MixedInput& m : in.mixed) {
    if (m.request.op != Op::kSegmentCount) continue;
    const std::size_t len = m.request.payload.size();
    EXPECT_EQ(m.expect, std::to_string((len + 159) / 160));
    EXPECT_EQ(CheckMixed(m, true, std::to_string((len + 159) / 160 + 1)),
              Verdict::kWrong);
  }
}

TEST(Checker, ScriptResultIsWhatTheEngineComputes) {
  // A fake host: fixed fixes, echoing posts.
  mobivine::gateway::ScriptHostOps ops;
  ops.invoke = [](Platform, Op op, const std::string&, const std::string& payload,
                  const std::string&) {
    return op == Op::kGetLocation ? std::string("28.524500,77.185500") : payload;
  };
  ops.set_property = [](Platform, Op, const std::string&, const std::string&) {};
  ops.get_property = [](Platform, Op, const std::string&) { return std::string(); };
  ops.charge_steps = [](std::uint64_t) {};
  ops.virtual_now_us = [] { return std::uint64_t{0}; };
  mobivine::gateway::ScriptEngine engine(std::move(ops));
  const Inputs in = MakeInputs(9);
  for (std::size_t i = 0; i < 64; ++i) {
    const ScriptInput& s = in.scripts[i];
    mobivine::gateway::ScriptRequest request;
    request.source = s.script.source;
    request.args = s.script.args;
    const auto response = engine.Execute(request);
    ASSERT_TRUE(response.ok) << response.message;
    EXPECT_EQ(CheckScript(s, true, response.result), Verdict::kOk);
    EXPECT_EQ(CheckScript(s, true, response.result + "0"), Verdict::kWrong);
  }
}

TEST(Checker, PushDeliveriesArriveOncePerSubscription) {
  std::vector<PushInput> pool(4);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i].filler = "f" + std::to_string(i);
  // Stamps 0..7 alternate between clients 0 and 1.
  std::vector<std::uint8_t> client = {0, 1, 0, 1, 0, 1, 0, 1};
  DeliveryChecker sub(client.data(), client.size(), 0, &pool);
  std::uint64_t stamp = 0;
  EXPECT_TRUE(sub.OnData(PushBody(0, pool), &stamp));
  EXPECT_EQ(stamp, 0u);
  EXPECT_FALSE(sub.OnData(PushBody(0, pool), &stamp));  // duplicate
  EXPECT_FALSE(sub.OnData(PushBody(1, pool), &stamp));  // another client's
  EXPECT_FALSE(sub.OnData("2|corrupted", &stamp));      // bad body
  sub.OnGap();
  EXPECT_TRUE(sub.OnData(PushBody(6, pool), &stamp));  // 4 covered by the gap
  EXPECT_EQ(sub.covered(), 1u);
  EXPECT_EQ(sub.lost(), 0u);
  sub.Finish(client.size());
  EXPECT_EQ(sub.wrong(), 3u);

  DeliveryChecker lossy(client.data(), client.size(), 1, &pool);
  EXPECT_TRUE(lossy.OnData(PushBody(5, pool), &stamp));  // 1 and 3 lost
  lossy.Finish(client.size());                          // 7 lost
  EXPECT_EQ(lossy.lost(), 3u);
  EXPECT_EQ(lossy.covered(), 0u);
}

}  // namespace
}  // namespace perfbench
