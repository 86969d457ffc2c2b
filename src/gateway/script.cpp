#include "gateway/script.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "minijs/interpreter.h"
#include "minijs/parser.h"
#include "minijs/value.h"
#include "support/seed.h"
#include "support/trace.h"

namespace mobivine::gateway {

namespace {

/// Virtual-time budget exhaustion. Deliberately NOT a minijs::ScriptError
/// or ThrowSignal: it propagates straight through script try/catch (only
/// ThrowSignal is catchable there), so a hostile script cannot swallow
/// its own budget kill.
struct TimeBudgetExceeded {
  std::uint64_t spent_us = 0;
  std::uint64_t budget_us = 0;
};

/// Clamp a client-supplied budget to the operator ceiling (0 = default).
std::uint64_t ClampBudget(std::uint64_t requested, std::uint64_t ceiling) {
  return requested == 0 ? ceiling : std::min(requested, ceiling);
}

/// `e.code` is the code's name ("timeout"), the spelling the error's
/// message and the docs use, not its enumerator value.
minijs::Value ProxyErrorToValue(const core::ProxyError& error) {
  auto object = minijs::MakeErrorObject("ProxyError", error.what());
  object->Set("code", minijs::Value::String(core::ToString(error.code())));
  object->Set("platform", minijs::Value::String(error.platform()));
  return minijs::Value::Obj(object);
}

std::string ArgAsString(std::vector<minijs::Value>& args, std::size_t index) {
  if (index >= args.size() || args[index].is_nullish()) return std::string();
  return args[index].ToDisplayString();
}

}  // namespace

Platform ParsePlatformName(const std::string& name) {
  for (std::size_t i = 0; i < kPlatformCount; ++i) {
    if (name == kPlatformNames[i]) return static_cast<Platform>(i);
  }
  throw core::ProxyError(core::ErrorCode::kIllegalArgument,
                         "unknown platform '" + name + "'");
}

Op ParseOpName(const std::string& name) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (name == kOps[i].name) return static_cast<Op>(i);
  }
  throw core::ProxyError(core::ErrorCode::kIllegalArgument,
                         "unknown op '" + name + "'");
}

/// One cached parse: the source hash it is indexed under plus the
/// immutable AST. The Program keeps its own copy of the source, which is
/// what a lookup compares, so a hash collision can never execute the
/// wrong program — on mismatch the lookup is a miss, and the entry is
/// replaced once the colliding source is admitted.
struct ParseCache::Entry {
  std::uint64_t hash = 0;
  std::shared_ptr<const minijs::Program> program;
  std::uint32_t uses = 0;  ///< counted sightings: admission, then hits
};

ParseCache::ParseCache(std::size_t capacity)
    : capacity_(capacity),
      sample_(std::max<std::size_t>(4096, 16 * capacity)),
      seen_(capacity) {}

void ParseCache::CountLocked(std::uint32_t& count) {
  ++count;
  if (++counts_ < sample_) return;
  counts_ = 0;
  for (Entry& entry : lru_) entry.uses /= 2;
  for (Seen& slot : seen_) slot.count /= 2;
}

ParseCache::~ParseCache() = default;

ParseCache::Lookup ParseCache::Get(const std::string& source) {
  if (capacity_ == 0) {
    return {std::make_shared<const minijs::Program>(
                minijs::ParseProgram(source)),
            false};
  }
  const std::uint64_t hash = support::Fnv1a64(source);
  // Probe, with the lock held: true when the entry indexed under `hash`
  // holds this exact source, which is then moved to the LRU front.
  const auto resident = [&] {
    const auto it = index_.find(hash);
    if (it != index_.end() && it->second->program->source() == source) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (resident()) {
      CountLocked(lru_.front().uses);
      return {lru_.front().program, true};
    }
  }

  // Parse outside the lock: other shards keep hitting meanwhile. A
  // throw here leaves the LRU and the doorkeeper untouched, so a bad
  // program re-parses — and re-fails — without occupying a slot.
  auto program =
      std::make_shared<const minijs::Program>(minijs::ParseProgram(source));

  std::lock_guard<std::mutex> lock(mutex_);
  // Another thread admitted the same source while this one parsed: keep
  // the resident Program and drop this copy, so shards share one.
  if (resident()) return {lru_.front().program, false};
  Seen& door = seen_[hash % capacity_];
  if (door.hash != hash) {
    // First sighting (or the hash lost its slot since): remember the
    // hash only. This Program serves this run and is freed after it, so
    // a one-shot source holds no LRU entry.
    door = {hash, 1};
    return {std::move(program), false};
  }
  // Second sighting or later. A full cache keeps its victim unless this
  // source has been seen more often than the victim has run (the slot
  // keeps its count, so the next sighting asks again).
  CountLocked(door.count);
  if (lru_.size() >= capacity_ && door.count <= lru_.back().uses) {
    return {std::move(program), false};
  }
  // Admit the parse of the source actually presented.
  lru_.push_front(Entry{hash, std::move(program), door.count});
  index_[hash] = lru_.begin();
  door = {};
  if (lru_.size() > capacity_) {
    const Entry& oldest = lru_.back();
    // A collision replacement redirects the index to the newer entry;
    // only erase when the index still points at the victim.
    const auto idx = index_.find(oldest.hash);
    if (idx != index_.end() && &*idx->second == &oldest) index_.erase(idx);
    // The victim's hash and count stay known: its next run asks for
    // re-admission, unless another hash takes its doorkeeper slot first.
    seen_[oldest.hash % capacity_] = {oldest.hash, oldest.uses};
    lru_.pop_back();
  }
  return {lru_.front().program, false};
}

ScriptEngine::ScriptEngine(ScriptHostOps ops, ScriptLimits limits,
                           std::shared_ptr<ParseCache> cache)
    : ops_(std::move(ops)),
      limits_(limits),
      cache_(cache != nullptr
                 ? std::move(cache)
                 : std::make_shared<ParseCache>(limits.parse_cache_entries)) {}

ScriptEngine::~ScriptEngine() = default;

ScriptResponse ScriptEngine::Execute(const ScriptRequest& request) {
  ScriptResponse response;

  const std::uint64_t step_budget =
      ClampBudget(request.step_budget, limits_.max_steps);
  const std::uint64_t virtual_budget =
      ClampBudget(request.virtual_us_budget, limits_.max_virtual_us);
  const std::uint64_t result_cap =
      ClampBudget(request.max_result_bytes, limits_.max_result_bytes);

  minijs::Interpreter interp;
  interp.set_step_limit(step_budget);

  // Budget hook: charge every step interval onto the shard's virtual
  // clock, then check the script's total virtual spend — which includes
  // whatever the host invocations below charged through the proxy
  // meters and fault gates in between.
  const std::uint64_t virtual_start = ops_.virtual_now_us();
  interp.set_step_observer([this, virtual_start,
                            virtual_budget](std::uint64_t delta) {
    ops_.charge_steps(delta);
    const std::uint64_t spent = ops_.virtual_now_us() - virtual_start;
    if (spent > virtual_budget) {
      throw TimeBudgetExceeded{spent, virtual_budget};
    }
  });

  std::uint64_t invocations = 0;

  // `mobile`: the uniform invocation surface. Host errors are raised as
  // minijs::ScriptError, which CallFunction converts to a catchable
  // script throw — composites can express their own failure handling.
  auto mobile = minijs::Object::Make();
  mobile->set_class_name("Mobile");
  const auto raise = [](const core::ProxyError& error) -> minijs::Value {
    throw minijs::ScriptError(ProxyErrorToValue(error));
  };
  mobile->Set(
      "invoke",
      minijs::MakeHostFunction(
          "invoke", [this, &invocations, raise](
                        minijs::Interpreter&, const minijs::Value&,
                        std::vector<minijs::Value>& args) -> minijs::Value {
            ++invocations;
            try {
              const Platform platform =
                  ParsePlatformName(ArgAsString(args, 0));
              const Op op = ParseOpName(ArgAsString(args, 1));
              return minijs::Value::String(
                  ops_.invoke(platform, op, ArgAsString(args, 2),
                              ArgAsString(args, 3), ArgAsString(args, 4)));
            } catch (const core::ProxyError& error) {
              return raise(error);
            }
          }));
  mobile->Set(
      "setProperty",
      minijs::MakeHostFunction(
          "setProperty", [this, &invocations, raise](
                             minijs::Interpreter&, const minijs::Value&,
                             std::vector<minijs::Value>& args)
                             -> minijs::Value {
            ++invocations;
            try {
              ops_.set_property(ParsePlatformName(ArgAsString(args, 0)),
                                ParseOpName(ArgAsString(args, 1)),
                                ArgAsString(args, 2), ArgAsString(args, 3));
              return minijs::Value::Undefined();
            } catch (const core::ProxyError& error) {
              return raise(error);
            }
          }));
  mobile->Set(
      "getProperty",
      minijs::MakeHostFunction(
          "getProperty", [this, &invocations, raise](
                             minijs::Interpreter&, const minijs::Value&,
                             std::vector<minijs::Value>& args)
                             -> minijs::Value {
            ++invocations;
            try {
              return minijs::Value::String(ops_.get_property(
                  ParsePlatformName(ArgAsString(args, 0)),
                  ParseOpName(ArgAsString(args, 1)), ArgAsString(args, 2)));
            } catch (const core::ProxyError& error) {
              return raise(error);
            }
          }));
  interp.SetGlobal("mobile", minijs::Value::Obj(mobile));

  auto script_args = minijs::Object::Make();
  script_args->set_class_name("Args");
  for (const auto& [name, value] : request.args) {
    script_args->Set(name, minijs::Value::String(value));
  }
  interp.SetGlobal("args", minijs::Value::Obj(script_args));

  const auto finish = [&](bool flush) {
    if (flush) {
      // The final partial interval still gets charged; if that charge
      // blows the time budget the outcome below already stands — a kill
      // thrown from inside a catch block would escape Execute entirely.
      try {
        interp.FlushStepObserver();
      } catch (const TimeBudgetExceeded&) {
      }
    }
    response.steps = interp.steps();
    response.invocations = invocations;
  };

  try {
    // A failed parse throws out of Get() as a miss (cache_hit stays
    // false) and lands in the std::exception handler below.
    ParseCache::Lookup parsed = cache_->Get(request.source);
    response.cache_hit = parsed.hit;
    const minijs::Value value = interp.Run(std::move(parsed.program));
    finish(/*flush=*/true);
    std::string result = value.ToDisplayString();
    if (result.size() > result_cap) {
      response.script_error = true;
      response.budget_kill = true;
      response.error = core::ErrorCode::kUnknown;
      response.message = "result over cap: " + std::to_string(result.size()) +
                         " > " + std::to_string(result_cap) + " bytes";
      support::trace::Instant("script.error", "kind", 1);
      return response;
    }
    response.ok = true;
    response.error = core::ErrorCode::kUnknown;
    response.result = std::move(result);
    return response;
  } catch (const TimeBudgetExceeded& budget) {
    // Flushing would charge more time onto an already-blown budget from
    // inside the observer; the counters are still read.
    finish(/*flush=*/false);
    response.budget_kill = true;
    response.error = core::ErrorCode::kDeadlineExceeded;
    response.message = "script virtual-time budget exceeded: " +
                       std::to_string(budget.spent_us) + "us > " +
                       std::to_string(budget.budget_us) + "us";
    support::trace::Instant("script.error", "kind", 2);
    return response;
  } catch (const minijs::ScriptError& error) {
    // Uncaught script throw, step-limit kill, or a host error the script
    // chose not to catch.
    finish(/*flush=*/true);
    response.script_error = true;
    // The step-limit kill arrives as a ScriptError too; it is the only
    // way steps can exceed the budget (the observer fires *after* the
    // limit check).
    response.budget_kill = interp.steps() > step_budget;
    response.error = core::ErrorCode::kUnknown;
    response.message = error.thrown().ToDisplayString();
    support::trace::Instant("script.error", "kind", 0);
    return response;
  } catch (const std::exception& error) {
    // Lex/parse failures (and anything else the interpreter surfaces as
    // a std::exception): a script bug, reported in-band.
    finish(/*flush=*/false);
    response.script_error = true;
    response.error = core::ErrorCode::kUnknown;
    response.message = error.what();
    support::trace::Instant("script.error", "kind", 3);
    return response;
  }
}

}  // namespace mobivine::gateway
