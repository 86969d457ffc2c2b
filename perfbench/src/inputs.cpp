#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "gateway/gateway.h"

namespace perfbench {

namespace {

using mobivine::gateway::Op;
using mobivine::gateway::Platform;
using mobivine::support::SplitMix64;

SplitMix64 Stream(std::uint64_t seed, const char* pool) {
  return mobivine::support::SeedSequence(seed).Fork("perfbench").Fork(pool)
      .stream();
}

/// Zipf(s = 1) rank sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Draw(SplitMix64& rng) const {
    const double u = rng.NextUnit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string Letters(SplitMix64& rng, std::size_t length) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
  std::string text(length, ' ');
  for (char& c : text) c = kAlphabet[rng.NextBelow(sizeof kAlphabet - 1)];
  return text;
}

/// Log-uniform length in [lo, hi].
std::size_t LogUniform(SplitMix64& rng, double lo, double hi) {
  const double v = std::exp(std::log(lo) + rng.NextUnit() * (std::log(hi) - std::log(lo)));
  return std::clamp(static_cast<std::size_t>(v), static_cast<std::size_t>(lo),
                    static_cast<std::size_t>(hi));
}

/// android:s60:iphone = 2:1:1
Platform DrawPlatform(SplitMix64& rng) {
  const std::uint64_t p = rng.NextBelow(4);
  return p < 2 ? Platform::kAndroid : p == 2 ? Platform::kS60 : Platform::kIphone;
}

/// getLocation, sendSms, httpGet x2, httpPost, segmentCount
Op DrawOp(SplitMix64& rng) {
  static constexpr Op kOps[] = {Op::kGetLocation, Op::kSendSms, Op::kHttpGet,
                                Op::kHttpGet,     Op::kHttpPost,
                                Op::kSegmentCount};
  return kOps[rng.NextBelow(6)];
}

const std::string& HttpUrl(const char* path) {
  static const std::string ping =
      std::string("http://") + mobivine::gateway::kGatewayHttpHost + "/ping";
  static const std::string ingest =
      std::string("http://") + mobivine::gateway::kGatewayHttpHost + "/ingest";
  return path[0] == 'p' ? ping : ingest;
}

}  // namespace

std::vector<MixedInput> MakeMixedInputs(std::uint64_t seed, std::size_t count) {
  SplitMix64 rng = Stream(seed, "mixed");
  const Zipf clients(kClients);
  std::vector<MixedInput> inputs(count);
  for (MixedInput& input : inputs) {
    mobivine::wire::WireRequest& r = input.request;
    r.client_id = 1 + clients.Draw(rng);
    r.platform = DrawPlatform(rng);
    r.op = DrawOp(rng);
    switch (r.op) {
      case Op::kGetLocation:
        input.check = Expect::kLatLon;
        // S60 getLocation is the one op whose binding declares request
        // properties; draw them from a bounded value pool.
        if (r.platform == Platform::kS60) {
          r.properties.emplace_back(
              "horizontalAccuracy",
              static_cast<long long>(25 + rng.NextBelow(64)));
          static constexpr const char* kPower[] = {"low", "medium", "high"};
          r.properties.emplace_back("powerConsumption",
                                    std::string(kPower[rng.NextBelow(3)]));
        }
        break;
      case Op::kSendSms:
        r.target = mobivine::gateway::kGatewaySmsPeer;
        r.payload = Letters(rng, 1 + rng.NextBelow(480));
        input.check = Expect::kMessageId;
        break;
      case Op::kHttpGet:
        r.target = HttpUrl("ping");
        input.expect = "pong";
        break;
      case Op::kHttpPost:
        r.target = HttpUrl("ingest");
        r.payload = Letters(rng, LogUniform(rng, 16, 4096));
        r.content_type = "text/plain";
        input.expect = r.payload;
        break;
      case Op::kSegmentCount: {
        r.payload = Letters(rng, 1 + rng.NextBelow(480));
        input.expect = std::to_string((r.payload.size() + 159) / 160);
        break;
      }
    }
  }
  return inputs;
}

std::string ScriptSource(std::uint64_t variant) {
  return "var k = Number(args.k); var lat = 0; var lon = 0; var i = 0;\n"
         "var fix = '';\n"
         "while (i < k) {\n"
         "  fix = mobile.invoke(args.src, 'getLocation');\n"
         "  var c = fix.indexOf(',');\n"
         "  lat = lat + Number(fix.substring(0, c));\n"
         "  lon = lon + Number(fix.substring(c + 1, fix.length));\n"
         "  i = i + 1;\n"
         "}\n"
         "lat = lat / k; lon = lon / k;\n"
         "if (isNaN(lat) || isNaN(lon)) { throw 'bad fix ' + fix; }\n"
         "var n = Number(args.n); var acc = " +
         std::to_string(17 + variant) +
         "; var j = 0;\n"
         "while (j < n) { acc = (acc * 31 + j) % 1000003; j = j + 1; }\n"
         "var report = 'id=' + args.id + ';k=' + k + ';lat=' + lat +\n"
         "             ';lon=' + lon + ';acc=' + acc;\n"
         "var via = 'post';\n"
         "try {\n"
         "  var echo = mobile.invoke(args.dst, 'httpPost', args.url, report,\n"
         "                           'text/plain');\n"
         "  if (echo != report) { throw 'echo mismatch'; }\n"
         "} catch (e) {\n"
         "  mobile.invoke(args.dst, 'sendSms', args.peer, report);\n"
         "  via = 'sms';\n"
         "}\n"
         "args.id + ':' + via + ':' + acc;\n";
}

std::string ScriptResult(std::uint64_t variant, const std::string& id,
                         std::uint64_t n) {
  double acc = static_cast<double>(17 + variant);
  for (std::uint64_t j = 0; j < n; ++j) {
    acc = std::fmod(acc * 31 + static_cast<double>(j), 1000003.0);
  }
  return id + ":post:" + std::to_string(static_cast<long long>(acc));
}

std::vector<ScriptInput> MakeScriptInputs(std::uint64_t seed,
                                          std::size_t count) {
  SplitMix64 rng = Stream(seed, "script");
  const Zipf clients(kClients);
  const Zipf variants(kScriptVariants);
  std::vector<std::string> sources;
  for (int v = 0; v < kScriptVariants; ++v) sources.push_back(ScriptSource(v));
  std::vector<ScriptInput> inputs(count);
  std::uint64_t next_minted = 1000;
  for (std::size_t i = 0; i < count; ++i) {
    ScriptInput& input = inputs[i];
    mobivine::wire::WireScriptRequest& s = input.script;
    s.client_id = 1 + clients.Draw(rng);
    input.minted = rng.NextBelow(50) == 0;  // ~2% miss the parse cache
    const std::uint64_t variant =
        input.minted ? next_minted++ : variants.Draw(rng);
    s.source = input.minted ? ScriptSource(variant) : sources[variant];
    const std::string id = std::to_string(i);
    const std::uint64_t n = 150 + rng.NextBelow(251);
    const std::string k = std::to_string(1 + rng.NextBelow(8));
    const Platform src = DrawPlatform(rng);
    const Platform dst = DrawPlatform(rng);
    input.touches_s60 = src == Platform::kS60 || dst == Platform::kS60;
    s.args = {{"id", id},
              {"k", k},
              {"n", std::to_string(n)},
              {"src", mobivine::gateway::ToString(src)},
              {"dst", mobivine::gateway::ToString(dst)},
              {"url", HttpUrl("ingest")},
              {"peer", mobivine::gateway::kGatewaySmsPeer}};
    input.expect = ScriptResult(variant, id, n);
  }
  return inputs;
}

std::vector<PushInput> MakePushInputs(std::uint64_t seed, std::size_t count) {
  SplitMix64 rng = Stream(seed, "push");
  std::vector<PushInput> inputs(count);
  for (PushInput& input : inputs) {
    input.client = static_cast<std::uint8_t>(rng.NextBelow(kPushClients));
    // The body is "<stamp>|<filler>": 32 B to 2 KB in all.
    input.filler = Letters(rng, LogUniform(rng, 24, 2040));
  }
  return inputs;
}

std::uint64_t InputDigest(const std::vector<MixedInput>& mixed,
                          const std::vector<ScriptInput>& scripts,
                          const std::vector<PushInput>& push) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::string_view bytes) {
    for (char c : bytes) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ull;
  };
  auto num = [&mix](std::uint64_t v) { mix(std::to_string(v)); };
  for (const MixedInput& m : mixed) {
    const auto& r = m.request;
    num(r.client_id);
    num(static_cast<std::uint64_t>(r.platform));
    num(static_cast<std::uint64_t>(r.op));
    mix(r.target);
    mix(r.payload);
    mix(r.content_type);
    for (const auto& [name, value] : r.properties) {
      mix(name);
      if (const std::string* s = value.AsString()) mix(*s);
      if (const long long* i = value.AsInt()) num(static_cast<std::uint64_t>(*i));
    }
    mix(m.expect);
  }
  for (const ScriptInput& s : scripts) {
    num(s.script.client_id);
    mix(s.script.source);
    for (const auto& [name, value] : s.script.args) {
      mix(name);
      mix(value);
    }
    mix(s.expect);
  }
  for (const PushInput& p : push) {
    num(p.client);
    mix(p.filler);
  }
  return h;
}

std::int64_t Arrivals::NextGapNs() {
  // 1 - u is in (0, 1], so the log is finite.
  const double u = 1.0 - rng_.NextUnit();
  return static_cast<std::int64_t>(-std::log(u) * mean_gap_ns_);
}

}  // namespace perfbench
