#include "minijs/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "minijs/parser.h"

namespace mobivine::minijs {

namespace {

/// Weakly hold `item` in `items`. Expired handles are dropped whenever the
/// vector is full, and the vector then keeps at least as many free slots
/// as live ones, so a long-lived interpreter stays O(live) in memory and
/// amortised O(1) per call.
template <typename T>
void HoldWeakly(std::vector<std::weak_ptr<T>>& items,
                const std::shared_ptr<T>& item) {
  if (items.size() == items.capacity()) {
    std::erase_if(items, [](const std::weak_ptr<T>& weak) {
      return weak.expired();
    });
    items.reserve(std::max<std::size_t>(16, 2 * items.size()));
  }
  items.push_back(item);
}

std::uint32_t NextInterpreterId() {
  static std::atomic<std::uint32_t> next{0};
  std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id == 0 ? NextInterpreterId() : id;  // 0 means "untracked"
}

}  // namespace

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

void Environment::Define(std::string_view name, Value value) {
  auto it = variables_.lower_bound(name);
  if (it != variables_.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    variables_.emplace_hint(it, std::string(name), std::move(value));
  }
}

bool Environment::Get(std::string_view name, Value& out) const {
  auto it = variables_.find(name);
  if (it != variables_.end()) {
    out = it->second;
    return true;
  }
  return parent_ ? parent_->Get(name, out) : false;
}

bool Environment::Assign(std::string_view name, Value value) {
  auto it = variables_.find(name);
  if (it != variables_.end()) {
    it->second = std::move(value);
    return true;
  }
  if (parent_) return parent_->Assign(name, std::move(value));
  // Sloppy-mode global creation.
  variables_.emplace(std::string(name), std::move(value));
  return false;
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter()
    : id_(NextInterpreterId()), globals_(std::make_shared<Environment>()) {
  InstallBuiltins();
}

Interpreter::~Interpreter() {
  // Every cycle a script can build closes through a captured scope or an
  // object that had an object or function stored into it, and all of
  // those are tracked. Emptying them frees the whole graph, including
  // what hangs off the globals (`mobile`, `args`, ...). Each lock() keeps
  // its target alive while it is emptied; whatever that frees just
  // expires its own handle.
  for (const std::weak_ptr<Object>& weak : tracked_objects_) {
    if (std::shared_ptr<Object> object = weak.lock()) {
      object->elements_.clear();
      object->properties_.clear();
    }
  }
  for (const std::weak_ptr<Environment>& weak : tracked_scopes_) {
    if (std::shared_ptr<Environment> scope = weak.lock()) {
      scope->variables_.clear();
      scope->parent_.reset();
    }
  }
  globals_->variables_.clear();
}

Value Interpreter::MakeClosure(const FunctionExpr& decl,
                               const std::shared_ptr<Environment>& env) {
  if (!env->tracked_) {
    env->tracked_ = true;
    HoldWeakly(tracked_scopes_, env);
  }
  auto function = std::make_shared<Function>();
  function->name = decl.name;
  function->decl = &decl;
  function->closure = env;
  return Value::Func(std::move(function));
}

void Interpreter::TrackStore(const std::shared_ptr<Object>& target,
                             const Value& value) {
  if ((value.is_object() || value.is_function()) &&
      target->tracked_by_ != id_) {
    target->tracked_by_ = id_;
    HoldWeakly(tracked_objects_, target);
  }
}

void Interpreter::Step(int line) {
  (void)line;
  if (++steps_ > step_limit_) {
    throw ScriptError(
        Value::Obj(MakeErrorObject("RangeError", "step limit exceeded")));
  }
  if (step_observer_ && ++steps_since_observe_ >= observer_interval_) {
    const std::uint64_t delta = steps_since_observe_;
    steps_since_observe_ = 0;
    step_observer_(delta);
  }
}

void Interpreter::ChargeAllocation(std::size_t bytes) {
  const std::uint64_t extra = bytes / 64;
  if (extra == 0) return;
  steps_ += extra;
  if (steps_ > step_limit_) {
    throw ScriptError(
        Value::Obj(MakeErrorObject("RangeError", "step limit exceeded")));
  }
  if (step_observer_) {
    steps_since_observe_ += extra;
    if (steps_since_observe_ >= observer_interval_) {
      const std::uint64_t delta = steps_since_observe_;
      steps_since_observe_ = 0;
      step_observer_(delta);
    }
  }
}

/// A `break` or `continue` that left its function, or a `return` that
/// left the program, reached the boundary that should have contained it.
/// JS rejects such a statement at parse time; here it is the same
/// SyntaxError, raised when the statement runs, so a jump never leaves
/// the interpreter as a bare completion.
Value Interpreter::IllegalJump(Completion jump) {
  const char* keyword = jump == Completion::kReturn  ? "return"
                        : jump == Completion::kBreak ? "break"
                                                     : "continue";
  return Value::Obj(MakeErrorObject(
      "SyntaxError", std::string("illegal ") + keyword + " statement"));
}

Value Interpreter::Run(std::string_view source) {
  return Run(std::make_shared<const Program>(ParseProgram(source)));
}

Value Interpreter::Run(std::shared_ptr<const Program> program) {
  const Program& ref = *program;
  // Retain the AST for this interpreter's lifetime: closures created by
  // the run point into it. Shared ownership is what lets a host-side
  // parse cache hand the same immutable Program to many interpreters.
  loaded_programs_.push_back(std::move(program));

  Value last;
  try {
    // Hoist top-level function declarations (JS semantics).
    for (const Stmt* stmt : ref.statements()) {
      if (stmt->kind == StmtKind::kFunctionDecl) {
        (void)Execute(*stmt, globals_, Value::Undefined());
      }
    }
    for (const Stmt* stmt : ref.statements()) {
      if (stmt->kind == StmtKind::kFunctionDecl) continue;
      if (stmt->kind == StmtKind::kExpression) {
        last = Evaluate(*static_cast<const ExpressionStmt&>(*stmt).expression,
                        globals_, Value::Undefined());
      } else {
        last = Value::Undefined();
        const Completion jump = Execute(*stmt, globals_, Value::Undefined());
        if (jump != Completion::kNormal) throw ScriptError(IllegalJump(jump));
      }
    }
  } catch (const ThrowSignal& signal) {
    throw ScriptError(signal.value);
  }
  return last;
}

Value Interpreter::GetGlobal(const std::string& name) const {
  Value out;
  if (globals_->Get(name, out)) return out;
  return Value::Undefined();
}

void Interpreter::SetGlobal(const std::string& name, Value value) {
  globals_->Define(name, std::move(value));
}

Value Interpreter::Call(const Value& function, const Value& this_value,
                        std::vector<Value> arguments) {
  if (!function.is_function()) {
    throw ScriptError(Value::Obj(
        MakeErrorObject("TypeError", "value is not callable")));
  }
  try {
    return CallFunction(function.as_function(), this_value, arguments);
  } catch (const ThrowSignal& signal) {
    throw ScriptError(signal.value);
  }
}

Value Interpreter::CallFunction(const std::shared_ptr<Function>& function,
                                const Value& this_value,
                                std::vector<Value>& arguments) {
  if (function->is_host()) {
    // Host errors re-enter the script world as throwable values so that
    // script-level try/catch sees them (the WebView error-code path).
    try {
      return function->host(*this, this_value, arguments);
    } catch (const ScriptError& error) {
      throw ThrowSignal{error.thrown()};
    }
  }
  if (call_depth_ >= call_depth_limit_) {
    // Script recursion recurses THIS function on the C++ stack; without
    // a ceiling a hostile `function f(){f()}` is a stack smash, not an
    // error. Catchable by design (see set_call_depth_limit).
    throw ThrowSignal{Value::Obj(
        MakeErrorObject("RangeError", "maximum call depth exceeded"))};
  }
  ++call_depth_;
  struct DepthGuard {
    std::uint64_t& depth;
    ~DepthGuard() { --depth; }
  } depth_guard{call_depth_};
  auto env = std::make_shared<Environment>(function->closure);
  const FunctionExpr& decl = *function->decl;
  for (size_t i = 0; i < decl.params.size(); ++i) {
    env->Define(decl.params[i],
                i < arguments.size() ? arguments[i] : Value::Undefined());
  }
  // `arguments` array.
  auto args_array = Object::MakeArray();
  args_array->elements() = arguments;
  env->Define("arguments", Value::Obj(args_array));

  const Completion completion = ExecuteBlock(decl.body, env, this_value);
  if (completion == Completion::kReturn) {
    return std::exchange(return_value_, Value::Undefined());
  }
  if (completion != Completion::kNormal) {
    throw ThrowSignal{IllegalJump(completion)};
  }
  return Value::Undefined();
}

Interpreter::Completion Interpreter::ExecuteBlock(
    StmtList statements, const std::shared_ptr<Environment>& env,
    const Value& this_value) {
  // Hoist function declarations first (JS semantics the proxy scripts use).
  for (const Stmt* stmt : statements) {
    if (stmt->kind == StmtKind::kFunctionDecl) {
      const FunctionExpr& decl =
          *static_cast<const FunctionDeclStmt&>(*stmt).function;
      env->Define(decl.name, MakeClosure(decl, env));
    }
  }
  for (const Stmt* stmt : statements) {
    if (stmt->kind == StmtKind::kFunctionDecl) continue;  // already hoisted
    const Completion completion = Execute(*stmt, env, this_value);
    if (completion != Completion::kNormal) return completion;
  }
  return Completion::kNormal;
}

Interpreter::Completion Interpreter::Execute(
    const Stmt& stmt, const std::shared_ptr<Environment>& env,
    const Value& this_value) {
  Step(stmt.line);
  switch (stmt.kind) {
    case StmtKind::kExpression:
      Evaluate(*static_cast<const ExpressionStmt&>(stmt).expression, env,
               this_value);
      return Completion::kNormal;
    case StmtKind::kVar: {
      const auto& var = static_cast<const VarStmt&>(stmt);
      for (const auto& [name, init] : var.declarations) {
        env->Define(name,
                    init ? Evaluate(*init, env, this_value) : Value::Undefined());
      }
      return Completion::kNormal;
    }
    case StmtKind::kFunctionDecl: {
      const FunctionExpr& decl =
          *static_cast<const FunctionDeclStmt&>(stmt).function;
      env->Define(decl.name, MakeClosure(decl, env));
      return Completion::kNormal;
    }
    case StmtKind::kReturn: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      return_value_ =
          ret.value ? Evaluate(*ret.value, env, this_value) : Value::Undefined();
      return Completion::kReturn;
    }
    case StmtKind::kIf: {
      const auto& branch = static_cast<const IfStmt&>(stmt);
      if (Evaluate(*branch.condition, env, this_value).Truthy()) {
        return Execute(*branch.then_branch, env, this_value);
      }
      return branch.else_branch ? Execute(*branch.else_branch, env, this_value)
                                : Completion::kNormal;
    }
    case StmtKind::kWhile: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      while (Evaluate(*loop.condition, env, this_value).Truthy()) {
        const Completion completion = Execute(*loop.body, env, this_value);
        if (completion == Completion::kBreak) break;
        if (completion == Completion::kReturn) return completion;
      }
      return Completion::kNormal;
    }
    case StmtKind::kFor: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      auto scope = std::make_shared<Environment>(env);
      if (loop.init) (void)Execute(*loop.init, scope, this_value);
      while (!loop.condition ||
             Evaluate(*loop.condition, scope, this_value).Truthy()) {
        const Completion completion = Execute(*loop.body, scope, this_value);
        if (completion == Completion::kBreak) break;
        if (completion == Completion::kReturn) return completion;
        if (loop.update) Evaluate(*loop.update, scope, this_value);
      }
      return Completion::kNormal;
    }
    case StmtKind::kBlock: {
      const auto& block = static_cast<const BlockStmt&>(stmt);
      auto scope = std::make_shared<Environment>(env);
      return ExecuteBlock(block.statements, scope, this_value);
    }
    case StmtKind::kBreak:
      return Completion::kBreak;
    case StmtKind::kContinue:
      return Completion::kContinue;
    case StmtKind::kThrow: {
      const auto& thr = static_cast<const ThrowStmt&>(stmt);
      throw ThrowSignal{Evaluate(*thr.value, env, this_value)};
    }
    case StmtKind::kTry: {
      const auto& trys = static_cast<const TryStmt&>(stmt);
      const auto try_catch = [&] {
        try {
          return Execute(*trys.try_block, env, this_value);
        } catch (const ThrowSignal& signal) {
          if (!trys.catch_block) throw;
          auto scope = std::make_shared<Environment>(env);
          scope->Define(trys.catch_name, signal.value);
          return Execute(*trys.catch_block, scope, this_value);
        }
      };
      if (!trys.finally_block) return try_catch();
      // The completion leaving try or catch — normal, or a throw, return,
      // break or continue — is replayed after `finally`, unless `finally`
      // completes abruptly itself (ECMA-262 TryStatement). Host C++
      // exceptions, budget kills among them, are not caught: they skip
      // `finally` and stay uncatchable.
      std::optional<Value> thrown;
      Completion pending = Completion::kNormal;
      try {
        pending = try_catch();
      } catch (ThrowSignal& signal) {
        thrown = std::move(signal.value);
      }
      // `finally` may call a function whose `return` reuses return_value_.
      Value pending_return = std::exchange(return_value_, Value::Undefined());
      const Completion after = Execute(*trys.finally_block, env, this_value);
      if (after != Completion::kNormal) return after;
      if (thrown) throw ThrowSignal{std::move(*thrown)};
      return_value_ = std::move(pending_return);
      return pending;
    }
  }
  return Completion::kNormal;
}

Value Interpreter::Evaluate(const Expr& expr,
                            const std::shared_ptr<Environment>& env,
                            const Value& this_value) {
  Step(expr.line);
  switch (expr.kind) {
    case ExprKind::kNumber:
      return Value::Number(static_cast<const NumberExpr&>(expr).value);
    case ExprKind::kString:
      return Value::String(
          std::string(static_cast<const StringExpr&>(expr).value));
    case ExprKind::kBool:
      return Value::Boolean(static_cast<const BoolExpr&>(expr).value);
    case ExprKind::kNull:
      return Value::Null();
    case ExprKind::kUndefined:
      return Value::Undefined();
    case ExprKind::kThis:
      return this_value;
    case ExprKind::kIdentifier: {
      const auto& ident = static_cast<const IdentifierExpr&>(expr);
      Value out;
      if (env->Get(ident.name, out)) return out;
      throw ThrowSignal{Value::Obj(MakeErrorObject(
          "ReferenceError", std::string(ident.name) + " is not defined"))};
    }
    case ExprKind::kArray: {
      const auto& array = static_cast<const ArrayExpr&>(expr);
      auto object = Object::MakeArray();
      object->elements().reserve(array.elements.size());
      for (const Expr* element : array.elements) {
        object->elements().push_back(Evaluate(*element, env, this_value));
      }
      return Value::Obj(object);
    }
    case ExprKind::kObjectLiteral: {
      const auto& literal = static_cast<const ObjectLiteralExpr&>(expr);
      auto object = Object::Make();
      for (const Property& property : literal.properties) {
        object->Set(property.key, Evaluate(*property.value, env, this_value));
      }
      return Value::Obj(object);
    }
    case ExprKind::kFunction:
      return MakeClosure(static_cast<const FunctionExpr&>(expr), env);
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::kPreIncrement ||
          unary.op == UnaryOp::kPreDecrement) {
        const double delta = unary.op == UnaryOp::kPreIncrement ? 1.0 : -1.0;
        Value next = Value::Number(
            Evaluate(*unary.operand, env, this_value).ToNumber() + delta);
        Store(*unary.operand, next, env, this_value);
        return next;
      }
      Value operand = Evaluate(*unary.operand, env, this_value);
      switch (unary.op) {
        case UnaryOp::kNot:
          return Value::Boolean(!operand.Truthy());
        case UnaryOp::kNegate:
          return Value::Number(-operand.ToNumber());
        case UnaryOp::kTypeof:
          return Value::String(operand.TypeName());
        default:
          return Value::Undefined();
      }
    }
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      Value left = Evaluate(*binary.left, env, this_value);
      Value right = Evaluate(*binary.right, env, this_value);
      return EvaluateBinary(binary, std::move(left), std::move(right));
    }
    case ExprKind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(expr);
      Value left = Evaluate(*logical.left, env, this_value);
      if (logical.op == LogicalOp::kAnd) {
        return left.Truthy() ? Evaluate(*logical.right, env, this_value)
                             : left;
      }
      return left.Truthy() ? left : Evaluate(*logical.right, env, this_value);
    }
    case ExprKind::kConditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      return Evaluate(*cond.condition, env, this_value).Truthy()
                 ? Evaluate(*cond.then_value, env, this_value)
                 : Evaluate(*cond.else_value, env, this_value);
    }
    case ExprKind::kAssign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      Value value = Evaluate(*assign.value, env, this_value);
      if (assign.op != AssignOp::kAssign) {
        Value current = Evaluate(*assign.target, env, this_value);
        if (assign.op == AssignOp::kAddAssign) {
          // Mirror '+' semantics (string concat or numeric add).
          if (current.is_string() || value.is_string()) {
            value = Value::String(current.ToDisplayString() +
                                  value.ToDisplayString());
          } else {
            value = Value::Number(current.ToNumber() + value.ToNumber());
          }
        } else {
          value = Value::Number(current.ToNumber() - value.ToNumber());
        }
      }
      Store(*assign.target, value, env, this_value);
      return value;
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(expr);
      // Method call: evaluate the receiver once and bind `this`.
      Value callee;
      Value receiver = Value::Undefined();
      if (call.callee->kind == ExprKind::kMember) {
        const auto& member = static_cast<const MemberExpr&>(*call.callee);
        receiver = Evaluate(*member.object, env, this_value);
        if (receiver.is_object() && receiver.as_object()->Has(member.property)) {
          callee = receiver.as_object()->Get(member.property);
        } else if (!BuiltinMember(receiver, member.property, callee)) {
          throw ThrowSignal{Value::Obj(MakeErrorObject(
              "TypeError", std::string(member.property) +
                               " is not a function on " +
                               receiver.ToDisplayString()))};
        }
      } else {
        callee = Evaluate(*call.callee, env, this_value);
      }
      if (!callee.is_function()) {
        throw ThrowSignal{Value::Obj(
            MakeErrorObject("TypeError", "value is not callable"))};
      }
      std::vector<Value> arguments;
      arguments.reserve(call.arguments.size());
      for (const Expr* argument : call.arguments) {
        arguments.push_back(Evaluate(*argument, env, this_value));
      }
      return CallFunction(callee.as_function(), receiver, arguments);
    }
    case ExprKind::kNew: {
      const auto& ctor = static_cast<const NewExpr&>(expr);
      Value callee = Evaluate(*ctor.callee, env, this_value);
      if (!callee.is_function()) {
        throw ThrowSignal{Value::Obj(
            MakeErrorObject("TypeError", "constructor is not callable"))};
      }
      std::vector<Value> arguments;
      arguments.reserve(ctor.arguments.size());
      for (const Expr* argument : ctor.arguments) {
        arguments.push_back(Evaluate(*argument, env, this_value));
      }
      auto instance = Object::Make();
      instance->set_class_name(callee.as_function()->name);
      Value result = CallFunction(callee.as_function(), Value::Obj(instance),
                                  arguments);
      // JS: if the constructor returns an object, that wins.
      return result.is_object() ? result : Value::Obj(instance);
    }
    case ExprKind::kMember: {
      const auto& member = static_cast<const MemberExpr&>(expr);
      Value object = Evaluate(*member.object, env, this_value);
      if (object.is_object() && object.as_object()->Has(member.property)) {
        return object.as_object()->Get(member.property);
      }
      Value out;
      if (BuiltinMember(object, member.property, out)) return out;
      if (object.is_nullish()) {
        throw ThrowSignal{Value::Obj(MakeErrorObject(
            "TypeError", "cannot read property '" +
                             std::string(member.property) + "' of " +
                             object.ToDisplayString()))};
      }
      return Value::Undefined();
    }
    case ExprKind::kIndex: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      Value object = Evaluate(*index.object, env, this_value);
      Value key = Evaluate(*index.index, env, this_value);
      if (object.is_object()) {
        auto target = object.as_object();
        if (target->is_array() && key.is_number()) {
          size_t i = static_cast<size_t>(key.as_number());
          return i < target->elements().size() ? target->elements()[i]
                                               : Value::Undefined();
        }
        return target->Get(key.ToDisplayString());
      }
      if (object.is_string() && key.is_number()) {
        size_t i = static_cast<size_t>(key.as_number());
        const std::string& s = object.as_string();
        return i < s.size() ? Value::String(std::string(1, s[i]))
                            : Value::Undefined();
      }
      throw ThrowSignal{
          Value::Obj(MakeErrorObject("TypeError", "cannot index value"))};
    }
    case ExprKind::kPostfix: {
      const auto& postfix = static_cast<const PostfixExpr&>(expr);
      Value current = Evaluate(*postfix.target, env, this_value);
      const double delta = postfix.op == PostfixOp::kIncrement ? 1.0 : -1.0;
      Store(*postfix.target, Value::Number(current.ToNumber() + delta), env,
            this_value);
      return Value::Number(current.ToNumber());
    }
  }
  return Value::Undefined();
}

void Interpreter::Store(const Expr& target, const Value& value,
                        const std::shared_ptr<Environment>& env,
                        const Value& this_value) {
  if (target.kind == ExprKind::kIdentifier) {
    env->Assign(static_cast<const IdentifierExpr&>(target).name, value);
  } else if (target.kind == ExprKind::kMember) {
    const auto& member = static_cast<const MemberExpr&>(target);
    Value object = Evaluate(*member.object, env, this_value);
    if (!object.is_object()) {
      throw ThrowSignal{Value::Obj(MakeErrorObject(
          "TypeError", "cannot set property '" +
                           std::string(member.property) + "' of " +
                           object.ToDisplayString()))};
    }
    TrackStore(object.as_object(), value);
    object.as_object()->Set(member.property, value);
  } else {  // kIndex: RequireStoreTarget in the parser admits no other
    const auto& index = static_cast<const IndexExpr&>(target);
    Value object = Evaluate(*index.object, env, this_value);
    Value key = Evaluate(*index.index, env, this_value);
    if (!object.is_object()) {
      throw ThrowSignal{Value::Obj(
          MakeErrorObject("TypeError", "cannot index non-object"))};
    }
    const auto& holder = object.as_object();
    TrackStore(holder, value);
    if (holder->is_array() && key.is_number()) {
      size_t i = static_cast<size_t>(key.as_number());
      if (i >= holder->elements().size()) holder->elements().resize(i + 1);
      holder->elements()[i] = value;
    } else {
      holder->Set(key.ToDisplayString(), value);
    }
  }
}

Value Interpreter::EvaluateBinary(const BinaryExpr& expr, Value left,
                                  Value right) {
  switch (expr.op) {
    case BinaryOp::kAdd:
      if (left.is_string() || right.is_string()) {
        std::string joined =
            left.ToDisplayString() + right.ToDisplayString();
        ChargeAllocation(joined.size());
        return Value::String(std::move(joined));
      }
      return Value::Number(left.ToNumber() + right.ToNumber());
    case BinaryOp::kSubtract:
      return Value::Number(left.ToNumber() - right.ToNumber());
    case BinaryOp::kMultiply:
      return Value::Number(left.ToNumber() * right.ToNumber());
    case BinaryOp::kDivide:
      return Value::Number(left.ToNumber() / right.ToNumber());
    case BinaryOp::kModulo:
      return Value::Number(std::fmod(left.ToNumber(), right.ToNumber()));
    case BinaryOp::kEq:
      return Value::Boolean(left.LooseEquals(right));
    case BinaryOp::kNotEq:
      return Value::Boolean(!left.LooseEquals(right));
    case BinaryOp::kStrictEq:
      return Value::Boolean(left.StrictEquals(right));
    case BinaryOp::kStrictNotEq:
      return Value::Boolean(!left.StrictEquals(right));
    case BinaryOp::kLess:
      if (left.is_string() && right.is_string()) {
        return Value::Boolean(left.as_string() < right.as_string());
      }
      return Value::Boolean(left.ToNumber() < right.ToNumber());
    case BinaryOp::kLessEq:
      if (left.is_string() && right.is_string()) {
        return Value::Boolean(left.as_string() <= right.as_string());
      }
      return Value::Boolean(left.ToNumber() <= right.ToNumber());
    case BinaryOp::kGreater:
      if (left.is_string() && right.is_string()) {
        return Value::Boolean(left.as_string() > right.as_string());
      }
      return Value::Boolean(left.ToNumber() > right.ToNumber());
    case BinaryOp::kGreaterEq:
      if (left.is_string() && right.is_string()) {
        return Value::Boolean(left.as_string() >= right.as_string());
      }
      return Value::Boolean(left.ToNumber() >= right.ToNumber());
  }
  return Value::Undefined();
}

bool Interpreter::BuiltinMember(const Value& object, std::string_view name,
                                Value& out) {
  if (object.is_string()) {
    const std::string s = object.as_string();
    if (name == "length") {
      out = Value::Number(static_cast<double>(s.size()));
      return true;
    }
    if (name == "indexOf") {
      out = MakeHostFunction(
          "indexOf", [s](Interpreter&, const Value&, std::vector<Value>& args) {
            const std::string needle =
                args.empty() ? "" : args[0].ToDisplayString();
            size_t pos = s.find(needle);
            return Value::Number(pos == std::string::npos
                                     ? -1.0
                                     : static_cast<double>(pos));
          });
      return true;
    }
    if (name == "substring") {
      out = MakeHostFunction(
          "substring",
          [s](Interpreter&, const Value&, std::vector<Value>& args) {
            long long begin =
                args.empty() ? 0
                             : static_cast<long long>(args[0].ToNumber());
            long long end = args.size() > 1
                                ? static_cast<long long>(args[1].ToNumber())
                                : static_cast<long long>(s.size());
            begin = std::max(0LL, std::min<long long>(begin, s.size()));
            end = std::max(begin, std::min<long long>(end, s.size()));
            return Value::String(s.substr(begin, end - begin));
          });
      return true;
    }
    if (name == "charAt") {
      out = MakeHostFunction(
          "charAt", [s](Interpreter&, const Value&, std::vector<Value>& args) {
            size_t i = args.empty()
                           ? 0
                           : static_cast<size_t>(args[0].ToNumber());
            return i < s.size() ? Value::String(std::string(1, s[i]))
                                : Value::String("");
          });
      return true;
    }
    if (name == "toUpperCase" || name == "toLowerCase") {
      const bool upper = name == "toUpperCase";
      out = MakeHostFunction(
          std::string(name),
          [s, upper](Interpreter&, const Value&, std::vector<Value>&) {
            std::string copy = s;
            for (char& c : copy) {
              c = upper ? static_cast<char>(std::toupper(
                              static_cast<unsigned char>(c)))
                        : static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
            }
            return Value::String(copy);
          });
      return true;
    }
    return false;
  }
  if (object.is_object() && object.as_object()->is_array()) {
    auto array = object.as_object();
    if (name == "length") {
      out = Value::Number(static_cast<double>(array->elements().size()));
      return true;
    }
    if (name == "push") {
      out = MakeHostFunction(
          "push", [array](Interpreter& interp, const Value&,
                          std::vector<Value>& args) {
            for (Value& value : args) {
              interp.TrackStore(array, value);
              array->elements().push_back(value);
            }
            return Value::Number(static_cast<double>(array->elements().size()));
          });
      return true;
    }
    if (name == "pop") {
      out = MakeHostFunction(
          "pop", [array](Interpreter&, const Value&, std::vector<Value>&) {
            if (array->elements().empty()) return Value::Undefined();
            Value back = array->elements().back();
            array->elements().pop_back();
            return back;
          });
      return true;
    }
    if (name == "shift") {
      out = MakeHostFunction(
          "shift", [array](Interpreter&, const Value&, std::vector<Value>&) {
            if (array->elements().empty()) return Value::Undefined();
            Value front = array->elements().front();
            array->elements().erase(array->elements().begin());
            return front;
          });
      return true;
    }
    if (name == "join") {
      out = MakeHostFunction(
          "join", [array](Interpreter&, const Value&, std::vector<Value>& args) {
            const std::string sep =
                args.empty() ? "," : args[0].ToDisplayString();
            std::string result;
            for (size_t i = 0; i < array->elements().size(); ++i) {
              if (i) result += sep;
              result += array->elements()[i].ToDisplayString();
            }
            return Value::String(result);
          });
      return true;
    }
    return false;
  }
  return false;
}

void Interpreter::InstallBuiltins() {
  SetGlobal("print", MakeHostFunction(
                         "print", [this](Interpreter&, const Value&,
                                         std::vector<Value>& args) {
                           std::string line;
                           for (size_t i = 0; i < args.size(); ++i) {
                             if (i) line += ' ';
                             line += args[i].ToDisplayString();
                           }
                           output_.push_back(std::move(line));
                           return Value::Undefined();
                         }));
  SetGlobal("log", GetGlobal("print"));

  SetGlobal("isNaN", MakeHostFunction(
                         "isNaN", [](Interpreter&, const Value&,
                                     std::vector<Value>& args) {
                           return Value::Boolean(
                               args.empty() || std::isnan(args[0].ToNumber()));
                         }));
  SetGlobal("Number", MakeHostFunction("Number", [](Interpreter&, const Value&,
                                                    std::vector<Value>& args) {
              return Value::Number(args.empty() ? 0.0 : args[0].ToNumber());
            }));
  SetGlobal("String", MakeHostFunction("String", [](Interpreter&, const Value&,
                                                    std::vector<Value>& args) {
              return Value::String(args.empty() ? ""
                                                : args[0].ToDisplayString());
            }));
  SetGlobal("Error",
            MakeHostFunction("Error", [](Interpreter&, const Value& self,
                                         std::vector<Value>& args) {
              // Usable both as Error("m") and new Error("m").
              const std::string message =
                  args.empty() ? "" : args[0].ToDisplayString();
              if (self.is_object()) {
                self.as_object()->set_class_name("Error");
                self.as_object()->Set("name", Value::String("Error"));
                self.as_object()->Set("message", Value::String(message));
                return self;
              }
              return Value::Obj(MakeErrorObject("Error", message));
            }));

  auto math = Object::Make();
  math->set_class_name("Math");
  math->Set("abs", MakeHostFunction("abs", [](Interpreter&, const Value&,
                                              std::vector<Value>& args) {
              return Value::Number(
                  args.empty() ? std::nan("") : std::fabs(args[0].ToNumber()));
            }));
  math->Set("floor", MakeHostFunction("floor", [](Interpreter&, const Value&,
                                                  std::vector<Value>& args) {
              return Value::Number(args.empty() ? std::nan("")
                                                : std::floor(args[0].ToNumber()));
            }));
  math->Set("ceil", MakeHostFunction("ceil", [](Interpreter&, const Value&,
                                                std::vector<Value>& args) {
              return Value::Number(args.empty() ? std::nan("")
                                                : std::ceil(args[0].ToNumber()));
            }));
  math->Set("sqrt", MakeHostFunction("sqrt", [](Interpreter&, const Value&,
                                                std::vector<Value>& args) {
              return Value::Number(args.empty() ? std::nan("")
                                                : std::sqrt(args[0].ToNumber()));
            }));
  math->Set("min", MakeHostFunction("min", [](Interpreter&, const Value&,
                                              std::vector<Value>& args) {
              double best = std::numeric_limits<double>::infinity();
              for (const Value& value : args) {
                best = std::min(best, value.ToNumber());
              }
              return Value::Number(best);
            }));
  math->Set("max", MakeHostFunction("max", [](Interpreter&, const Value&,
                                              std::vector<Value>& args) {
              double best = -std::numeric_limits<double>::infinity();
              for (const Value& value : args) {
                best = std::max(best, value.ToNumber());
              }
              return Value::Number(best);
            }));
  math->Set("pow", MakeHostFunction("pow", [](Interpreter&, const Value&,
                                              std::vector<Value>& args) {
              if (args.size() < 2) return Value::Number(std::nan(""));
              return Value::Number(
                  std::pow(args[0].ToNumber(), args[1].ToNumber()));
            }));
  math->Set("PI", Value::Number(3.14159265358979323846));
  SetGlobal("Math", Value::Obj(math));
}

}  // namespace mobivine::minijs
