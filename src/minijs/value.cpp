#include "minijs/value.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>

#include "support/strings.h"

namespace mobivine::minijs {

namespace {

// One counter per thread that ever built a cell. Only its thread writes
// it, so a relaxed load + store is enough and no cache line is shared
// between shards; LiveHeapCells() sums them all. Counters outlive their
// threads (a cell may die on a different thread than it was born on),
// which is why the registry never shrinks and is never destroyed.
struct CellCounter {
  std::atomic<std::int64_t> live{0};
};

std::mutex& RegistryMutex() {
  static auto* mutex = new std::mutex();
  return *mutex;
}

std::deque<CellCounter>& Registry() {
  static auto* registry = new std::deque<CellCounter>();
  return *registry;
}

CellCounter& LocalCounter() {
  thread_local CellCounter* counter = nullptr;
  if (counter == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    counter = &Registry().emplace_back();
  }
  return *counter;
}

}  // namespace

void detail::CellCount::Add(int delta) {
  std::atomic<std::int64_t>& live = LocalCounter().live;
  live.store(live.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

std::int64_t LiveHeapCells() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::int64_t total = 0;
  for (const CellCounter& counter : Registry()) {
    total += counter.live.load(std::memory_order_relaxed);
  }
  return total;
}

bool Value::Truthy() const {
  switch (type()) {
    case Type::kUndefined:
    case Type::kNull:
      return false;
    case Type::kBool:
      return as_bool();
    case Type::kNumber:
      return as_number() != 0.0 && !std::isnan(as_number());
    case Type::kString:
      return !as_string().empty();
    case Type::kObject:
    case Type::kFunction:
      return true;
  }
  return false;
}

double Value::ToNumber() const {
  switch (type()) {
    case Type::kUndefined:
      return std::nan("");
    case Type::kNull:
      return 0.0;
    case Type::kBool:
      return as_bool() ? 1.0 : 0.0;
    case Type::kNumber:
      return as_number();
    case Type::kString: {
      double out = 0.0;
      if (support::ParseDouble(as_string(), out)) return out;
      return std::nan("");
    }
    case Type::kObject:
    case Type::kFunction:
      return std::nan("");
  }
  return std::nan("");
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case Type::kUndefined:
      return "undefined";
    case Type::kNull:
      return "null";
    case Type::kBool:
      return as_bool() ? "true" : "false";
    case Type::kNumber: {
      double d = as_number();
      if (std::isnan(d)) return "NaN";
      // Integers print without a decimal point, like JS.
      if (d == static_cast<long long>(d) && std::abs(d) < 1e15) {
        return std::to_string(static_cast<long long>(d));
      }
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g", d);
      return buffer;
    }
    case Type::kString:
      return as_string();
    case Type::kObject: {
      const auto& object = as_object();
      if (object->is_array()) {
        std::ostringstream out;
        for (size_t i = 0; i < object->elements().size(); ++i) {
          if (i) out << ',';
          out << object->elements()[i].ToDisplayString();
        }
        return out.str();
      }
      if (object->Has("message")) {
        // Error-like objects display name: message.
        std::string name = object->Get("name").ToDisplayString();
        if (name == "undefined") name = "Error";
        return name + ": " + object->Get("message").ToDisplayString();
      }
      return object->class_name().empty()
                 ? "[object]"
                 : "[object " + object->class_name() + "]";
    }
    case Type::kFunction:
      return "function " + as_function()->name;
  }
  return "?";
}

const char* Value::TypeName() const {
  switch (type()) {
    case Type::kUndefined:
      return "undefined";
    case Type::kNull:
      return "object";  // JS quirk: typeof null === "object"
    case Type::kBool:
      return "boolean";
    case Type::kNumber:
      return "number";
    case Type::kString:
      return "string";
    case Type::kObject:
      return "object";
    case Type::kFunction:
      return "function";
  }
  return "undefined";
}

bool Value::StrictEquals(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kUndefined:
    case Type::kNull:
      return true;
    case Type::kBool:
      return as_bool() == other.as_bool();
    case Type::kNumber:
      return as_number() == other.as_number();
    case Type::kString:
      return as_string() == other.as_string();
    case Type::kObject:
      return as_object() == other.as_object();
    case Type::kFunction:
      return as_function() == other.as_function();
  }
  return false;
}

bool Value::LooseEquals(const Value& other) const {
  if (type() == other.type()) return StrictEquals(other);
  if (is_nullish() && other.is_nullish()) return true;
  if (is_nullish() || other.is_nullish()) return false;
  // Object vs anything non-object: not equal in this simplified model.
  if (is_object() || other.is_object() || is_function() ||
      other.is_function()) {
    return false;
  }
  // Remaining mixed primitive comparisons coerce to number.
  const double a = ToNumber();
  const double b = other.ToNumber();
  return !std::isnan(a) && !std::isnan(b) && a == b;
}

Value MakeHostFunction(std::string name, HostFn fn) {
  auto function = std::make_shared<Function>();
  function->name = std::move(name);
  function->host = std::move(fn);
  return Value::Func(std::move(function));
}

std::shared_ptr<Object> MakeErrorObject(const std::string& name,
                                        const std::string& message, int code) {
  auto object = Object::Make();
  object->set_class_name("Error");
  object->Set("name", Value::String(name));
  object->Set("message", Value::String(message));
  object->Set("code", Value::Number(code));
  return object;
}

}  // namespace mobivine::minijs
