// Runtime values for MiniJS.
//
// Value is a small tagged union: undefined, null, boolean, number, string,
// object (shared, mutable — includes arrays) and function (script closure
// or C++ host function). Host objects are plain Objects whose properties
// are host functions, which keeps the bridge surface uniform.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mobivine::minijs {

class Interpreter;
class Object;
struct Function;
struct FunctionExpr;
class Environment;

/// Objects and scopes alive in the process. Each thread counts the ones
/// it builds and frees, and this sums them all. Leak tests compare it
/// before and after a batch of scripts: once every interpreter that ran
/// them is gone, the count is back where it started.
[[nodiscard]] std::int64_t LiveHeapCells();

namespace detail {
/// A member that counts its owner in LiveHeapCells().
struct CellCount {
  CellCount() { Add(1); }
  CellCount(const CellCount&) { Add(1); }
  CellCount& operator=(const CellCount&) { return *this; }
  ~CellCount() { Add(-1); }
  static void Add(int delta);
};
}  // namespace detail

class Value {
 public:
  enum class Type {
    kUndefined,
    kNull,
    kBool,
    kNumber,
    kString,
    kObject,
    kFunction
  };

  Value() : data_(UndefinedTag{}) {}
  static Value Undefined() { return Value(); }
  static Value Null() {
    Value v;
    v.data_ = NullTag{};
    return v;
  }
  static Value Boolean(bool b) {
    Value v;
    v.data_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.data_ = std::move(s);
    return v;
  }
  static Value Obj(std::shared_ptr<Object> o) {
    Value v;
    v.data_ = std::move(o);
    return v;
  }
  static Value Func(std::shared_ptr<Function> f) {
    Value v;
    v.data_ = std::move(f);
    return v;
  }

  Type type() const {
    switch (data_.index()) {
      case 0: return Type::kUndefined;
      case 1: return Type::kNull;
      case 2: return Type::kBool;
      case 3: return Type::kNumber;
      case 4: return Type::kString;
      case 5: return Type::kObject;
      case 6: return Type::kFunction;
    }
    return Type::kUndefined;
  }

  bool is_undefined() const { return type() == Type::kUndefined; }
  bool is_null() const { return type() == Type::kNull; }
  bool is_nullish() const { return is_undefined() || is_null(); }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_function() const { return type() == Type::kFunction; }

  bool as_bool() const { return std::get<bool>(data_); }
  double as_number() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const std::shared_ptr<Object>& as_object() const {
    return std::get<std::shared_ptr<Object>>(data_);
  }
  const std::shared_ptr<Function>& as_function() const {
    return std::get<std::shared_ptr<Function>>(data_);
  }

  /// JS truthiness.
  [[nodiscard]] bool Truthy() const;
  /// Numeric coercion (undefined -> NaN, null -> 0, "12" -> 12, ...).
  [[nodiscard]] double ToNumber() const;
  /// Display string ("[object]", "function f", "1.5", ...).
  [[nodiscard]] std::string ToDisplayString() const;
  /// typeof operator result.
  [[nodiscard]] const char* TypeName() const;

  /// === / !== semantics.
  [[nodiscard]] bool StrictEquals(const Value& other) const;
  /// == / != (simplified coercion: number<->string, bool->number,
  /// null==undefined).
  [[nodiscard]] bool LooseEquals(const Value& other) const;

 private:
  struct UndefinedTag {};
  struct NullTag {};
  std::variant<UndefinedTag, NullTag, bool, double, std::string,
               std::shared_ptr<Object>, std::shared_ptr<Function>>
      data_;
};

/// A mutable object. Arrays are Objects with is_array() true and dense
/// element storage; named properties coexist (e.g. custom fields).
class Object {
 public:
  Object() = default;
  static std::shared_ptr<Object> Make() { return std::make_shared<Object>(); }
  static std::shared_ptr<Object> MakeArray() {
    auto o = std::make_shared<Object>();
    o->is_array_ = true;
    return o;
  }

  bool is_array() const { return is_array_; }
  std::vector<Value>& elements() { return elements_; }
  const std::vector<Value>& elements() const { return elements_; }

  /// Ordered (deterministic dumps) and transparent: lookups by a
  /// string_view into a parsed Program allocate nothing.
  using PropertyMap = std::map<std::string, Value, std::less<>>;

  [[nodiscard]] bool Has(std::string_view name) const {
    return properties_.find(name) != properties_.end();
  }
  [[nodiscard]] Value Get(std::string_view name) const {
    auto it = properties_.find(name);
    return it == properties_.end() ? Value::Undefined() : it->second;
  }
  void Set(std::string_view name, Value value) {
    auto it = properties_.lower_bound(name);
    if (it != properties_.end() && it->first == name) {
      it->second = std::move(value);
    } else {
      properties_.emplace_hint(it, std::string(name), std::move(value));
    }
  }
  const PropertyMap& properties() const { return properties_; }

  /// Diagnostic tag ("SmsWrapper", "Error", ...) set by constructors and
  /// the host bridge.
  const std::string& class_name() const { return class_name_; }
  void set_class_name(std::string name) { class_name_ = std::move(name); }

 private:
  friend class Interpreter;

  bool is_array_ = false;
  /// Id of the interpreter that holds this object for teardown (0: none).
  std::uint32_t tracked_by_ = 0;
  std::vector<Value> elements_;
  PropertyMap properties_;
  std::string class_name_;
  [[no_unique_address]] detail::CellCount cell_count_;
};

/// Host function signature: (interpreter, this, args) -> value.
using HostFn =
    std::function<Value(Interpreter&, const Value&, std::vector<Value>&)>;

/// A callable: exactly one of {script closure, host function} is set.
struct Function {
  std::string name;
  // Script function: AST node (owned by the interpreter's loaded programs)
  // plus captured environment.
  const FunctionExpr* decl = nullptr;
  std::shared_ptr<Environment> closure;
  // Host function.
  HostFn host;

  bool is_host() const { return static_cast<bool>(host); }
};

/// Convenience: build a host-function value.
[[nodiscard]] Value MakeHostFunction(std::string name, HostFn fn);

/// Convenience: build an Error-like object {name, message, code}.
[[nodiscard]] std::shared_ptr<Object> MakeErrorObject(const std::string& name,
                                                      const std::string& message,
                                                      int code = 0);

}  // namespace mobivine::minijs
