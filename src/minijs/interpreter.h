// Tree-walking interpreter for MiniJS.
//
// The interpreter owns the global environment and keeps every loaded
// program's AST alive (script closures point into it). Execution counts
// interpreter steps, which the WebView substrate converts to virtual time —
// that is how the JS layer's extra cost shows up in Figure 10's WebView
// column.
//
// Values are reference-counted, so a script can build a cycle (a closure
// stored in the scope it captures, an object that holds itself). The
// interpreter keeps a weak handle on every place such a cycle can close
// and empties them all when it is destroyed; see ~Interpreter().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "minijs/ast.h"
#include "minijs/value.h"

namespace mobivine::minijs {

/// A thrown script value (from `throw` or a host-raised error) that escaped
/// to the C++ caller.
class ScriptError : public std::runtime_error {
 public:
  explicit ScriptError(Value thrown)
      : std::runtime_error("MiniJS uncaught: " + thrown.ToDisplayString()),
        thrown_(std::move(thrown)) {}
  const Value& thrown() const { return thrown_; }

 private:
  Value thrown_;
};

/// Lexical scope chain node.
class Environment {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  /// Declare in THIS scope (var / parameter / function declaration).
  void Define(std::string_view name, Value value);
  /// Lookup through the chain; true if found.
  bool Get(std::string_view name, Value& out) const;
  /// Assign through the chain; falls back to defining a global (sloppy-mode
  /// JS behaviour) and returns false in that case.
  bool Assign(std::string_view name, Value value);

 private:
  friend class Interpreter;

  // std::map (not unordered_map) on purpose: ordered iteration makes
  // global dumps and scope walks deterministic, which the golden-output
  // tests and trace comparisons rely on. Transparent, so a name viewed in
  // a parsed Program is looked up without building a std::string.
  std::map<std::string, Value, std::less<>> variables_;
  std::shared_ptr<Environment> parent_;
  bool tracked_ = false;  // held by its interpreter for teardown
  [[no_unique_address]] detail::CellCount cell_count_;
};

class Interpreter {
 public:
  Interpreter();
  /// Teardown contract: every scope a closure captured and every object a
  /// script stored an object or function into is emptied here, which
  /// breaks any cycle the scripts built. A host must be done with the
  /// values an execution produced before it destroys the interpreter.
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // --- loading and calling ----------------------------------------------
  /// Parse + execute top-level statements in the global scope.
  /// Returns the value of the final expression statement (undefined if the
  /// program ends with a non-expression statement).
  Value Run(std::string_view source);

  /// Execute an already-parsed program. The interpreter retains a
  /// reference for its lifetime (closures point into the AST) but never
  /// mutates it, so one Program may be shared by any number of
  /// interpreters — the seam the gateway's script parse cache uses to
  /// skip re-parsing repeat composites while still giving every
  /// execution a fresh sandbox.
  Value Run(std::shared_ptr<const Program> program);

  /// Call a function value with an explicit `this` and arguments.
  Value Call(const Value& function, const Value& this_value,
             std::vector<Value> arguments);

  /// Look up / define a global.
  [[nodiscard]] Value GetGlobal(const std::string& name) const;
  void SetGlobal(const std::string& name, Value value);

  // --- instrumentation ----------------------------------------------------
  /// Steps executed since construction (one per AST node evaluated).
  std::uint64_t steps() const { return steps_; }
  void ResetSteps() { steps_ = 0; }
  /// Abort with ScriptError after this many steps (runaway guard).
  void set_step_limit(std::uint64_t limit) { step_limit_ = limit; }
  /// Nested script-function call ceiling. The interpreter walks the AST
  /// on the C++ stack, so unbounded script recursion is a real stack
  /// smash, not just a slow loop; past the limit the call throws a
  /// catchable RangeError (JS "maximum call stack" semantics — catching
  /// it is safe because the stack has already unwound to the catch).
  void set_call_depth_limit(std::uint64_t limit) {
    call_depth_limit_ = limit == 0 ? 1 : limit;
  }

  /// Periodic execution observer: invoked from Step() every `interval`
  /// steps with the number of steps executed since the previous
  /// invocation. Hosts use it to charge script execution onto an
  /// external clock (the WebView bridge, a gateway shard's virtual
  /// scheduler) and to enforce time budgets — an observer may throw,
  /// and whatever it throws propagates out of Run()/Call() *without*
  /// being catchable by script-level try/catch (only ThrowSignal is),
  /// so a budget kill cannot be swallowed by a hostile script. Pass a
  /// null observer to detach.
  using StepObserver = std::function<void(std::uint64_t steps_delta)>;
  void set_step_observer(StepObserver observer, std::uint64_t interval = 256) {
    step_observer_ = std::move(observer);
    observer_interval_ = interval == 0 ? 1 : interval;
    steps_since_observe_ = 0;
  }
  /// Deliver any steps accumulated since the last periodic callback to
  /// the observer. Hosts call this after Run()/Call() returns so the
  /// final partial interval is still charged.
  void FlushStepObserver() {
    if (step_observer_ && steps_since_observe_ > 0) {
      const std::uint64_t delta = steps_since_observe_;
      steps_since_observe_ = 0;
      step_observer_(delta);
    }
  }

  /// Lines printed by the built-in print()/log() functions.
  const std::vector<std::string>& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  std::shared_ptr<Environment> globals() { return globals_; }

 private:
  friend struct EvalVisitor;

  /// How a statement finished (an ECMA-262 completion record; a kReturn's
  /// value waits in return_value_). Only a `throw` stays a C++ exception,
  /// ThrowSignal: it must cross Evaluate() and host frames (DESIGN.md §11).
  enum class [[nodiscard]] Completion : std::uint8_t {
    kNormal, kReturn, kBreak, kContinue
  };
  struct ThrowSignal {
    Value value;
  };

  /// The SyntaxError for a jump that left the statement meant to hold it.
  static Value IllegalJump(Completion jump);
  void Step(int line);
  /// Charge allocated bytes as extra steps (1 per 64 bytes), with the
  /// same limit check and observer delivery as Step(). String building
  /// happens inside single AST nodes, so without this a sandboxed
  /// `s = s + s` doubling loop would reach gigabytes in ~30 "steps" —
  /// memory growth must burn the step budget at the rate it allocates.
  void ChargeAllocation(std::size_t bytes);
  Completion ExecuteBlock(StmtList statements,
                          const std::shared_ptr<Environment>& env,
                          const Value& this_value);
  Completion Execute(const Stmt& stmt,
                     const std::shared_ptr<Environment>& env,
                     const Value& this_value);
  Value Evaluate(const Expr& expr, const std::shared_ptr<Environment>& env,
                 const Value& this_value);
  Value CallFunction(const std::shared_ptr<Function>& function,
                     const Value& this_value, std::vector<Value>& arguments);
  Value EvaluateBinary(const BinaryExpr& expr, Value left, Value right);
  /// Store `value` into an identifier, member or index target: the one
  /// store path of `=`, `op=` and prefix/postfix `++`/`--`. Evaluates the
  /// target's object (and key) afresh; a non-object target is a TypeError
  /// and an array index past the end extends the array.
  void Store(const Expr& target, const Value& value,
             const std::shared_ptr<Environment>& env, const Value& this_value);
  /// Built-in members on primitive values and arrays ("abc".length,
  /// arr.push, ...). Returns true when handled.
  bool BuiltinMember(const Value& object, std::string_view name, Value& out);

  /// A script closure over `env`. The capture is one of the two edges a
  /// reference cycle can close through, so `env` is tracked.
  Value MakeClosure(const FunctionExpr& decl,
                    const std::shared_ptr<Environment>& env);
  /// Call before a script stores `value` into `target`: an object or
  /// function stored into an object is the other edge a cycle can close
  /// through, so `target` is tracked (numbers and strings cannot close one).
  void TrackStore(const std::shared_ptr<Object>& target, const Value& value);

  void InstallBuiltins();

  std::uint32_t id_;
  std::vector<std::weak_ptr<Environment>> tracked_scopes_;
  std::vector<std::weak_ptr<Object>> tracked_objects_;
  std::shared_ptr<Environment> globals_;
  std::vector<std::shared_ptr<const Program>> loaded_programs_;
  Value return_value_;  ///< set by `return`, taken by CallFunction
  std::uint64_t steps_ = 0;
  std::uint64_t step_limit_ = 50'000'000;
  std::uint64_t call_depth_ = 0;
  std::uint64_t call_depth_limit_ = 256;
  StepObserver step_observer_;
  std::uint64_t observer_interval_ = 256;
  std::uint64_t steps_since_observe_ = 0;
  std::vector<std::string> output_;
};

}  // namespace mobivine::minijs
