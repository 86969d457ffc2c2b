// M-Script: server-side composite invocations on a gateway shard.
//
// One wire round trip per invocation is the wrong shape for real
// scenarios — "get location, HTTP-POST it, SMS on failure" is three
// dependent round trips. M-Script extends the paper's M-Plugin idea
// (generated client stubs) to uploaded server procedures: a kScript
// frame carries a small MiniJS program that executes *inside* the
// owning shard, with that shard's proxy registry exposed as host
// objects, and returns one aggregated response.
//
// Sandbox contract (docs/scripting.md has the full reference):
//  * No ambient authority — a script sees exactly the installed host
//    objects (`mobile`, `args`) plus the MiniJS builtins. There is no
//    I/O, no clock, no require().
//  * Step budget — interpreter steps are hard-capped; exhaustion
//    surfaces as a kScriptError ("step limit exceeded") and is not
//    catchable in-script.
//  * Call-depth ceiling — script recursion recurses the AST-walking
//    interpreter on the C++ stack, so `function f(){f()}` would be a
//    stack smash without one; past the interpreter's depth limit the
//    call throws a catchable RangeError (JS "maximum call stack"
//    semantics).
//  * Virtual-time budget — every interpreter step and every host
//    invocation is charged to the shard's virtual clock (the same
//    OverheadMeter plane the proxies charge); exceeding the budget
//    surfaces as kDeadlineExceeded. Because `:wall` fault rules stall
//    the worker *and* advance the virtual clock, a slow backend burns
//    the script's budget exactly like it burns a request deadline.
//  * Result cap — the result's display string is size-capped
//    (kScriptError when exceeded), so a script cannot amplify one
//    frame into an arbitrarily large response.
//  * Exactly-once execution — scripts ride the shard queue's
//    admission/deadline/shed machinery but are never retried by the
//    gateway: a composite may have already performed side effects
//    (an SMS send) before failing, and retry policy is expressible
//    in-language anyway (the host errors are catchable).
//
// Clients may lower any budget per script; the server clamps every
// request to the operator ceilings below, so a hostile client cannot
// buy itself a bigger sandbox.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/errors.h"
#include "gateway/request.h"

namespace mobivine::minijs {
class Program;
}  // namespace mobivine::minijs

namespace mobivine::gateway {

/// Operator ceilings, applied when a request's budget field is 0 and as
/// clamps when it is not. Each interpreter step costs the WebView
/// bridge's 2009-handset js_step (webview::BridgeCost) of virtual time.
struct ScriptLimits {
  std::uint64_t max_steps = 200'000;
  std::uint64_t max_virtual_us = 10'000'000;  // 10 virtual seconds
  std::uint64_t max_result_bytes = 64u << 10;  // == wire kMaxStringBytes
  /// Bound on the whole gateway's parse cache, shared by every shard's
  /// engine: at most this many resident Programs (one LRU, keyed by an
  /// FNV-1a hash of the source) and at most this many doorkeeper hashes
  /// (sources parsed once, not yet admitted). 0 disables caching: every
  /// execution re-parses, the pre-cache behavior.
  std::size_t parse_cache_entries = 128;
};

struct ScriptResponse {
  bool ok = false;
  /// kOk on success; kUnknown with script_error for thrown values and
  /// step/result violations; kDeadlineExceeded for time-budget kills and
  /// queue-deadline expiry; kOverloaded when shed at admission.
  core::ErrorCode error = core::ErrorCode::kUnknown;
  /// True when the failure is a *script* outcome (uncaught throw, step
  /// budget, oversized result) — the wire layer maps this to
  /// WireStatus::kScriptError, everything else through the normal bands.
  bool script_error = false;
  /// True when a sandbox budget fired: step limit, virtual-time budget,
  /// or result cap. Always paired with a typed status above — a budget
  /// kill is never a process fault.
  bool budget_kill = false;
  std::string message;  ///< thrown value's display string / error detail
  std::string result;   ///< final expression's display string on success
  std::uint64_t steps = 0;        ///< interpreter steps executed
  std::uint64_t invocations = 0;  ///< host binding calls performed
  /// True when the engine reused a cached parse of this source (the
  /// execution itself — interpreter, globals, budgets — is fresh either
  /// way). False on a parse miss or when caching is disabled.
  bool cache_hit = false;
  std::uint32_t shard = 0;
  std::chrono::microseconds latency{0};  ///< submit -> completion, wall
};

struct ScriptRequest {
  std::uint64_t client_id = 0;  ///< shard affinity key
  /// Tenant this script bills against — same resolution rules as
  /// Request::tenant (0 / unknown => the built-in default tenant).
  std::uint32_t tenant = 0;
  std::string source;           ///< MiniJS program
  /// Named string arguments, exposed to the script as the `args` object.
  std::vector<std::pair<std::string, std::string>> args;
  /// Wall-clock budget from submission (queue wait + execution); zero
  /// means no deadline. Checked at dequeue like a request.
  std::chrono::microseconds timeout{0};
  std::uint64_t step_budget = 0;        ///< 0: ScriptLimits default
  std::uint64_t virtual_us_budget = 0;  ///< 0: ScriptLimits default
  std::uint64_t max_result_bytes = 0;   ///< 0: ScriptLimits default
  /// Invoked exactly once: on the owning shard's worker thread after
  /// execution, or on the submitting thread when the script is shed.
  std::function<void(const ScriptResponse&)> on_complete;
};

/// The bridge a shard hands the engine. Every callback runs on the
/// shard's worker thread; invoke/get/set route through the shard's
/// long-lived proxies, so fault gates, meters and descriptor validation
/// all apply exactly as they do to kRequest traffic.
struct ScriptHostOps {
  /// Dispatch one binding call. Throws core::ProxyError on failure —
  /// the engine re-enters it into the script as a catchable Error object
  /// {name, message, code, platform}.
  std::function<std::string(Platform, Op, const std::string& target,
                            const std::string& payload,
                            const std::string& content_type)>
      invoke;
  /// setProperty on the proxy serving (platform, op); descriptor-
  /// validated, ProxyError on rejection. The shard snapshots and
  /// restores every touched proxy around the script, so properties
  /// never leak into later traffic.
  std::function<void(Platform, Op, const std::string& name,
                     const std::string& value)>
      set_property;
  /// getProperty display string ("" when unset).
  std::function<std::string(Platform, Op, const std::string& name)>
      get_property;
  /// Charge `steps` interpreter steps onto the shard's virtual clock.
  std::function<void(std::uint64_t steps)> charge_steps;
  /// The shard's virtual clock, in micros (budget accounting).
  std::function<std::uint64_t()> virtual_now_us;
};

/// The parsed-program cache: an LRU from an FNV-1a hash of the source
/// to an immutable AST (shared_ptr<const Program>), so a repeat
/// composite skips the lexer and parser entirely. A Gateway builds one
/// and hands it to every shard's engine — a Program is never mutated by
/// the interpreters that run it, so shards share it instead of each
/// parsing and holding its own copy.
///
/// Admission is on the second sighting. A doorkeeper remembers the hash
/// of a source parsed once; that parse serves its own run and is freed
/// after it. Only when the same source is parsed again does its Program
/// enter the LRU, so its third run is the first hit. One-shot sources
/// cost a hash, not a Program, and a stream of sources each run once
/// only cycles the doorkeeper: it can never evict a resident Program.
/// Once the LRU is full, admission is also by frequency (TinyLFU,
/// Einziger et al. 2017): each doorkeeper slot counts its hash's
/// sightings and each resident Program its admission count plus hits,
/// and a newcomer evicts the LRU victim only if it has been seen more
/// often than the victim has run, so a client that sends each new
/// script twice cannot push out programs that run more. The counts add
/// 8 bytes per doorkeeper slot and at most 8 per entry; every count
/// halves after max(4096, 16 x capacity) counted lookups (hits and
/// repeat sightings), so a program that stops running loses its claim.
/// A Program evicted from the LRU leaves its hash and count in the
/// doorkeeper, so a hot program pushed out under pressure can be
/// re-admitted on its next run unless another hash takes its slot first.
///
/// Thread-safe: one mutex guards the index probe, the source compare,
/// the doorkeeper, the counts and the LRU splice; parsing runs outside
/// it.
class ParseCache {
 public:
  /// `capacity` bounds the resident Programs and, separately, sizes the
  /// doorkeeper's hash slots. 0 disables caching: Get() parses every
  /// time.
  explicit ParseCache(std::size_t capacity);
  ~ParseCache();

  ParseCache(const ParseCache&) = delete;
  ParseCache& operator=(const ParseCache&) = delete;

  struct Lookup {
    std::shared_ptr<const minijs::Program> program;
    bool hit = false;  ///< reused a resident parse (no lexer/parser run)
  };

  /// The Program for `source`: the resident one when its own source
  /// copy matches byte for byte (an FNV collision is a miss, never a
  /// wrong program), else a fresh parse — admitted as most recent when
  /// the doorkeeper has seen the hash before (and, in a full cache, more
  /// often than the victim has run), else returned unshared with the
  /// hash remembered. When two threads parse the same source
  /// at once and one admits it first, the other returns the resident
  /// Program in place of its own. Parse failures throw through and touch
  /// neither the LRU nor the doorkeeper.
  [[nodiscard]] Lookup Get(const std::string& source);

 private:
  struct Entry;

  const std::size_t capacity_;
  std::mutex mutex_;
  /// LRU list, most-recent first, plus the hash index into it.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  /// The doorkeeper: `capacity_` slots, each holding the last hash
  /// parsed and not admitted that maps to it (hash % capacity_) and its
  /// sightings; 0 is empty. A newer hash overwrites an older one in the
  /// same slot, and a zero hash counts as seen, so it is admitted on its
  /// first parse.
  struct Seen {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;
  };
  const std::size_t sample_;  ///< counted lookups between halvings
  std::size_t counts_ = 0;
  std::vector<Seen> seen_;

  /// Bump one count; every `sample_` bumps, halve them all.
  void CountLocked(std::uint32_t& count);
};

/// One engine per shard, single-threaded like everything the shard owns.
/// Each Execute() builds a fresh interpreter: the MiniJS interpreter
/// retains every loaded AST for its lifetime and its globals are mutable,
/// so reuse across scripts would both grow without bound and leak state
/// between clients — exactly what a sandbox must not do.
///
/// What IS shared across executions is the parse, through a ParseCache.
/// Only the syntax tree is reused — budgets, args, globals and step
/// accounting are rebuilt per execution, and programs that fail to parse
/// are never cached.
class ScriptEngine {
 public:
  /// `cache` is the gateway's shared ParseCache; without one the engine
  /// owns a private cache of `limits.parse_cache_entries` programs.
  explicit ScriptEngine(ScriptHostOps ops, ScriptLimits limits = {},
                        std::shared_ptr<ParseCache> cache = nullptr);
  ~ScriptEngine();

  /// Execute on the calling (worker) thread. Fills everything except
  /// shard/latency, which the shard stamps in its completion path.
  [[nodiscard]] ScriptResponse Execute(const ScriptRequest& request);

  const ScriptLimits& limits() const { return limits_; }

 private:
  ScriptHostOps ops_;
  ScriptLimits limits_;
  std::shared_ptr<ParseCache> cache_;
};

/// Parse "android" / "s60" / "iphone" (as ToString(Platform) emits).
/// Throws core::ProxyError(kIllegalArgument) on anything else.
[[nodiscard]] Platform ParsePlatformName(const std::string& name);
/// Parse "getLocation" / "sendSms" / "httpGet" / "httpPost" /
/// "segmentCount" (as ToString(Op) emits). Same error contract.
[[nodiscard]] Op ParseOpName(const std::string& name);

}  // namespace mobivine::gateway
