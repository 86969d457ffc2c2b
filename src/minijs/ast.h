// MiniJS abstract syntax tree.
//
// A parsed Program is one self-contained block: a few bump-allocated arena
// chunks that hold a copy of the program's source and every node, child
// list and decoded string literal. Nodes are plain structs with a `kind`
// discriminator and nothing to destroy — no vtable, no owning pointers:
// children are `const Expr*` / `const Stmt*`, lists are spans, and
// identifiers and property names are string_views into the Program's own
// source copy. The interpreter switches on kind and static_casts.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "support/arena.h"

namespace mobivine::minijs {

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kNumber,
  kString,
  kBool,
  kNull,
  kUndefined,
  kIdentifier,
  kThis,
  kArray,
  kObjectLiteral,
  kFunction,     // function expression
  kUnary,        // ! - typeof and prefix ++/--
  kBinary,       // arithmetic / comparison
  kLogical,      // && || (short-circuit)
  kConditional,  // ?:
  kAssign,       // = += -=
  kCall,
  kNew,
  kMember,   // obj.name
  kIndex,    // obj[expr]
  kPostfix,  // x++ x--
};

// The user-declared constructor keeps the base out of the ABI's "POD for
// layout" class, so a derived node's one-byte operator packs into the
// base's tail padding (BinaryExpr is 24 bytes, not 32).
struct Expr {
  int line;
  ExprKind kind;

 protected:
  constexpr Expr(ExprKind k, int l) : line(l), kind(k) {}
};

using ExprList = std::span<const Expr* const>;

struct Stmt;
using StmtList = std::span<const Stmt* const>;

struct NumberExpr : Expr {
  double value;
  NumberExpr(double v, int l) : Expr(ExprKind::kNumber, l), value(v) {}
};

struct StringExpr : Expr {
  std::string_view value;  // decoded
  StringExpr(std::string_view v, int l)
      : Expr(ExprKind::kString, l), value(v) {}
};

struct BoolExpr : Expr {
  bool value;
  BoolExpr(bool v, int l) : Expr(ExprKind::kBool, l), value(v) {}
};

struct NullExpr : Expr {
  explicit NullExpr(int l) : Expr(ExprKind::kNull, l) {}
};

struct UndefinedExpr : Expr {
  explicit UndefinedExpr(int l) : Expr(ExprKind::kUndefined, l) {}
};

struct IdentifierExpr : Expr {
  std::string_view name;
  IdentifierExpr(std::string_view n, int l)
      : Expr(ExprKind::kIdentifier, l), name(n) {}
};

struct ThisExpr : Expr {
  explicit ThisExpr(int l) : Expr(ExprKind::kThis, l) {}
};

struct ArrayExpr : Expr {
  ExprList elements;
  ArrayExpr(ExprList e, int l) : Expr(ExprKind::kArray, l), elements(e) {}
};

struct Property {
  std::string_view key;
  const Expr* value;
};

struct ObjectLiteralExpr : Expr {
  std::span<const Property> properties;
  ObjectLiteralExpr(std::span<const Property> p, int l)
      : Expr(ExprKind::kObjectLiteral, l), properties(p) {}
};

struct FunctionExpr : Expr {
  std::string_view name;  // empty for anonymous
  std::span<const std::string_view> params;
  StmtList body;
  FunctionExpr(std::string_view n, std::span<const std::string_view> p,
               StmtList b, int l)
      : Expr(ExprKind::kFunction, l), name(n), params(p), body(b) {}
};

enum class UnaryOp : std::uint8_t {
  kNot,
  kNegate,
  kTypeof,
  kPreIncrement,
  kPreDecrement
};

struct UnaryExpr : Expr {
  UnaryOp op;
  const Expr* operand;
  UnaryExpr(UnaryOp o, const Expr* e, int l)
      : Expr(ExprKind::kUnary, l), op(o), operand(e) {}
};

enum class BinaryOp : std::uint8_t {
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kEq,
  kStrictEq,
  kNotEq,
  kStrictNotEq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
};

struct BinaryExpr : Expr {
  BinaryOp op;
  const Expr* left;
  const Expr* right;
  BinaryExpr(BinaryOp o, const Expr* a, const Expr* b, int l)
      : Expr(ExprKind::kBinary, l), op(o), left(a), right(b) {}
};

enum class LogicalOp : std::uint8_t { kAnd, kOr };

struct LogicalExpr : Expr {
  LogicalOp op;
  const Expr* left;
  const Expr* right;
  LogicalExpr(LogicalOp o, const Expr* a, const Expr* b, int l)
      : Expr(ExprKind::kLogical, l), op(o), left(a), right(b) {}
};

struct ConditionalExpr : Expr {
  const Expr* condition;
  const Expr* then_value;
  const Expr* else_value;
  ConditionalExpr(const Expr* c, const Expr* t, const Expr* e, int l)
      : Expr(ExprKind::kConditional, l),
        condition(c),
        then_value(t),
        else_value(e) {}
};

enum class AssignOp : std::uint8_t { kAssign, kAddAssign, kSubtractAssign };

struct AssignExpr : Expr {
  AssignOp op;
  const Expr* target;  // IdentifierExpr, MemberExpr or IndexExpr
  const Expr* value;
  AssignExpr(AssignOp o, const Expr* t, const Expr* v, int l)
      : Expr(ExprKind::kAssign, l), op(o), target(t), value(v) {}
};

struct CallExpr : Expr {
  const Expr* callee;
  ExprList arguments;
  CallExpr(const Expr* c, ExprList a, int l)
      : Expr(ExprKind::kCall, l), callee(c), arguments(a) {}
};

struct NewExpr : Expr {
  const Expr* callee;
  ExprList arguments;
  NewExpr(const Expr* c, ExprList a, int l)
      : Expr(ExprKind::kNew, l), callee(c), arguments(a) {}
};

struct MemberExpr : Expr {
  const Expr* object;
  std::string_view property;
  MemberExpr(const Expr* o, std::string_view p, int l)
      : Expr(ExprKind::kMember, l), object(o), property(p) {}
};

struct IndexExpr : Expr {
  const Expr* object;
  const Expr* index;
  IndexExpr(const Expr* o, const Expr* i, int l)
      : Expr(ExprKind::kIndex, l), object(o), index(i) {}
};

enum class PostfixOp : std::uint8_t { kIncrement, kDecrement };

struct PostfixExpr : Expr {
  PostfixOp op;
  const Expr* target;
  PostfixExpr(PostfixOp o, const Expr* t, int l)
      : Expr(ExprKind::kPostfix, l), op(o), target(t) {}
};

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kExpression,
  kVar,
  kFunctionDecl,
  kReturn,
  kIf,
  kWhile,
  kFor,
  kBlock,
  kBreak,
  kContinue,
  kThrow,
  kTry,
};

struct Stmt {
  int line;
  StmtKind kind;

 protected:
  constexpr Stmt(StmtKind k, int l) : line(l), kind(k) {}
};

struct ExpressionStmt : Stmt {
  const Expr* expression;
  ExpressionStmt(const Expr* e, int l)
      : Stmt(StmtKind::kExpression, l), expression(e) {}
};

struct Declarator {
  std::string_view name;
  const Expr* init;  // may be null (var x;)
};

struct VarStmt : Stmt {
  /// One statement may declare several variables: var a = 1, b;
  std::span<const Declarator> declarations;
  VarStmt(std::span<const Declarator> d, int l)
      : Stmt(StmtKind::kVar, l), declarations(d) {}
};

struct FunctionDeclStmt : Stmt {
  const FunctionExpr* function;  // carries the name
  FunctionDeclStmt(const FunctionExpr* f, int l)
      : Stmt(StmtKind::kFunctionDecl, l), function(f) {}
};

struct ReturnStmt : Stmt {
  const Expr* value;  // may be null (return;)
  ReturnStmt(const Expr* v, int l) : Stmt(StmtKind::kReturn, l), value(v) {}
};

struct IfStmt : Stmt {
  const Expr* condition;
  const Stmt* then_branch;
  const Stmt* else_branch;  // may be null
  IfStmt(const Expr* c, const Stmt* t, const Stmt* e, int l)
      : Stmt(StmtKind::kIf, l), condition(c), then_branch(t), else_branch(e) {}
};

struct WhileStmt : Stmt {
  const Expr* condition;
  const Stmt* body;
  WhileStmt(const Expr* c, const Stmt* b, int l)
      : Stmt(StmtKind::kWhile, l), condition(c), body(b) {}
};

struct ForStmt : Stmt {
  const Stmt* init;       // VarStmt or ExpressionStmt; may be null
  const Expr* condition;  // may be null (infinite)
  const Expr* update;     // may be null
  const Stmt* body;
  ForStmt(const Stmt* i, const Expr* c, const Expr* u, const Stmt* b, int l)
      : Stmt(StmtKind::kFor, l), init(i), condition(c), update(u), body(b) {}
};

struct BlockStmt : Stmt {
  StmtList statements;
  BlockStmt(StmtList s, int l) : Stmt(StmtKind::kBlock, l), statements(s) {}
};

struct BreakStmt : Stmt {
  explicit BreakStmt(int l) : Stmt(StmtKind::kBreak, l) {}
};

struct ContinueStmt : Stmt {
  explicit ContinueStmt(int l) : Stmt(StmtKind::kContinue, l) {}
};

struct ThrowStmt : Stmt {
  const Expr* value;
  ThrowStmt(const Expr* v, int l) : Stmt(StmtKind::kThrow, l), value(v) {}
};

struct TryStmt : Stmt {
  const Stmt* try_block;
  std::string_view catch_name;  // empty when no catch clause
  const Stmt* catch_block;      // may be null
  const Stmt* finally_block;    // may be null
  TryStmt(const Stmt* t, std::string_view n, const Stmt* c, const Stmt* f,
          int l)
      : Stmt(StmtKind::kTry, l),
        try_block(t),
        catch_name(n),
        catch_block(c),
        finally_block(f) {}
};

static_assert(sizeof(BinaryExpr) == 24 && sizeof(UnaryExpr) == 16,
              "operators pack into the node header's padding");

// --------------------------------------------------------------------------
// Program
// --------------------------------------------------------------------------

/// A parsed program: its top-level statements plus the arena that holds
/// them, every nested node and a copy of the source. Move-only; a moved
/// Program's nodes and names stay valid, and none of them depend on the
/// buffer it was parsed from.
class Program {
 public:
  Program() = default;
  Program(Program&& other) noexcept { *this = std::move(other); }
  Program& operator=(Program&& other) noexcept {
    arena_ = std::move(other.arena_);
    source_ = std::exchange(other.source_, {});
    statements_ = std::exchange(other.statements_, {});
    return *this;
  }

  [[nodiscard]] StmtList statements() const { return statements_; }
  /// The Program's own copy of the text it was parsed from.
  [[nodiscard]] std::string_view source() const { return source_; }
  /// Heap bytes the parse holds (arena chunks, headers included).
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.bytes(); }

 private:
  friend Program ParseProgram(std::string_view source);

  support::Arena arena_;
  std::string_view source_;
  StmtList statements_;
};

}  // namespace mobivine::minijs
