#include "minijs/parser.h"

#include <vector>

#include "minijs/lexer.h"

namespace mobivine::minijs {

namespace {

using ExprPtr = const Expr*;
using StmtPtr = const Stmt*;

/// Builds nodes into `arena`. Names are views into `source`, the text the
/// tokens were lexed from (for a Program: the arena's own copy of it).
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, std::string_view source,
         support::Arena& arena)
      : tokens_(tokens), source_(source), arena_(arena) {}

  StmtList Run() {
    std::vector<StmtPtr> statements;
    while (!Check(TokenType::kEof)) statements.push_back(ParseStatement());
    return List(statements);
  }

 private:
  template <typename T, typename... Args>
  const T* New(Args&&... args) {
    return arena_.New<T>(std::forward<Args>(args)...);
  }
  template <typename T>
  std::span<const T> List(const std::vector<T>& items) {
    return arena_.Copy(std::span<const T>(items));
  }
  /// An identifier or property name: the lexeme's bytes in the source copy.
  std::string_view Name(const Token& token) const {
    return source_.substr(token.offset, token.text.size());
  }
  /// A string literal: a view between the quotes when the decoded text is
  /// byte-identical to them (no escapes), otherwise an arena copy.
  std::string_view Literal(const Token& token) {
    const std::string_view raw =
        source_.substr(token.offset + 1, token.text.size());
    return raw == token.text ? raw : arena_.CopyString(token.text);
  }

  // --- token plumbing ----------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    if (index >= tokens_.size()) index = tokens_.size() - 1;  // kEof
    return tokens_[index];
  }
  bool Check(TokenType type) const { return Peek().type == type; }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    Advance();
    return true;
  }
  const Token& Expect(TokenType type, const char* context) {
    if (!Check(type)) {
      Fail("expected '" + std::string(ToString(type)) + "' " + context +
           ", found '" +
           (Peek().text.empty() ? ToString(Peek().type) : Peek().text) + "'");
    }
    return Advance();
  }
  [[noreturn]] void Fail(const std::string& message) const {
    throw SyntaxError(message, Peek().line, Peek().column);
  }

  // `=`, `op=` and `++`/`--` store only to an identifier, member or index:
  // the interpreter's one store path handles exactly those three.
  void RequireStoreTarget(const Expr& target, const char* message) const {
    if (target.kind != ExprKind::kIdentifier &&
        target.kind != ExprKind::kMember && target.kind != ExprKind::kIndex) {
      Fail(message);
    }
  }

  int Line() const { return Peek().line; }

  // --- statements ---------------------------------------------------------
  StmtPtr ParseStatement() {
    switch (Peek().type) {
      case TokenType::kLeftBrace:
        return ParseBlock();
      case TokenType::kVar:
        return ParseVar();
      case TokenType::kFunction:
        return ParseFunctionDecl();
      case TokenType::kReturn:
        return ParseReturn();
      case TokenType::kIf:
        return ParseIf();
      case TokenType::kWhile:
        return ParseWhile();
      case TokenType::kFor:
        return ParseFor();
      case TokenType::kBreak: {
        int line = Line();
        Advance();
        Expect(TokenType::kSemicolon, "after 'break'");
        return New<BreakStmt>(line);
      }
      case TokenType::kContinue: {
        int line = Line();
        Advance();
        Expect(TokenType::kSemicolon, "after 'continue'");
        return New<ContinueStmt>(line);
      }
      case TokenType::kThrow: {
        int line = Line();
        Advance();
        ExprPtr value = ParseExpression();
        Expect(TokenType::kSemicolon, "after 'throw' expression");
        return New<ThrowStmt>(value, line);
      }
      case TokenType::kTry:
        return ParseTry();
      case TokenType::kSemicolon: {  // empty statement
        int line = Line();
        Advance();
        return New<BlockStmt>(StmtList{}, line);
      }
      default: {
        int line = Line();
        ExprPtr expression = ParseExpression();
        Expect(TokenType::kSemicolon, "after expression statement");
        return New<ExpressionStmt>(expression, line);
      }
    }
  }

  StmtPtr ParseBlock() {
    int line = Line();
    Expect(TokenType::kLeftBrace, "to open block");
    std::vector<StmtPtr> statements;
    while (!Check(TokenType::kRightBrace)) {
      if (Check(TokenType::kEof)) Fail("unterminated block");
      statements.push_back(ParseStatement());
    }
    Expect(TokenType::kRightBrace, "to close block");
    return New<BlockStmt>(List(statements), line);
  }

  StmtPtr ParseVar() {
    int line = Line();
    Expect(TokenType::kVar, "");
    std::vector<Declarator> declarations;
    while (true) {
      const std::string_view name =
          Name(Expect(TokenType::kIdentifier, "in var declaration"));
      ExprPtr init = nullptr;
      if (Match(TokenType::kAssign)) init = ParseAssignment();
      declarations.push_back(Declarator{name, init});
      if (!Match(TokenType::kComma)) break;
    }
    Expect(TokenType::kSemicolon, "after var declaration");
    return New<VarStmt>(List(declarations), line);
  }

  const FunctionExpr* ParseFunctionRest(bool require_name) {
    int line = Line();
    std::string_view name;
    if (Check(TokenType::kIdentifier)) {
      name = Name(Advance());
    } else if (require_name) {
      Fail("function declaration requires a name");
    }
    Expect(TokenType::kLeftParen, "after function name");
    std::vector<std::string_view> params;
    if (!Check(TokenType::kRightParen)) {
      while (true) {
        params.push_back(
            Name(Expect(TokenType::kIdentifier, "in parameter list")));
        if (!Match(TokenType::kComma)) break;
      }
    }
    Expect(TokenType::kRightParen, "after parameter list");
    Expect(TokenType::kLeftBrace, "to open function body");
    std::vector<StmtPtr> body;
    while (!Check(TokenType::kRightBrace)) {
      if (Check(TokenType::kEof)) Fail("unterminated function body");
      body.push_back(ParseStatement());
    }
    Expect(TokenType::kRightBrace, "to close function body");
    return New<FunctionExpr>(name, List(params), List(body), line);
  }

  StmtPtr ParseFunctionDecl() {
    int line = Line();
    Expect(TokenType::kFunction, "");
    return New<FunctionDeclStmt>(ParseFunctionRest(/*require_name=*/true),
                                 line);
  }

  StmtPtr ParseReturn() {
    int line = Line();
    Expect(TokenType::kReturn, "");
    ExprPtr value = nullptr;
    if (!Check(TokenType::kSemicolon)) value = ParseExpression();
    Expect(TokenType::kSemicolon, "after return");
    return New<ReturnStmt>(value, line);
  }

  StmtPtr ParseIf() {
    int line = Line();
    Expect(TokenType::kIf, "");
    Expect(TokenType::kLeftParen, "after 'if'");
    ExprPtr condition = ParseExpression();
    Expect(TokenType::kRightParen, "after if condition");
    StmtPtr then_branch = ParseStatement();
    StmtPtr else_branch = nullptr;
    if (Match(TokenType::kElse)) else_branch = ParseStatement();
    return New<IfStmt>(condition, then_branch, else_branch, line);
  }

  StmtPtr ParseWhile() {
    int line = Line();
    Expect(TokenType::kWhile, "");
    Expect(TokenType::kLeftParen, "after 'while'");
    ExprPtr condition = ParseExpression();
    Expect(TokenType::kRightParen, "after while condition");
    StmtPtr body = ParseStatement();
    return New<WhileStmt>(condition, body, line);
  }

  StmtPtr ParseFor() {
    int line = Line();
    Expect(TokenType::kFor, "");
    Expect(TokenType::kLeftParen, "after 'for'");
    StmtPtr init = nullptr;
    if (Check(TokenType::kVar)) {
      init = ParseVar();  // consumes its ';'
    } else if (Match(TokenType::kSemicolon)) {
      // no init
    } else {
      int init_line = Line();
      ExprPtr expression = ParseExpression();
      Expect(TokenType::kSemicolon, "after for-init");
      init = New<ExpressionStmt>(expression, init_line);
    }
    ExprPtr condition = nullptr;
    if (!Check(TokenType::kSemicolon)) condition = ParseExpression();
    Expect(TokenType::kSemicolon, "after for-condition");
    ExprPtr update = nullptr;
    if (!Check(TokenType::kRightParen)) update = ParseExpression();
    Expect(TokenType::kRightParen, "after for clauses");
    StmtPtr body = ParseStatement();
    return New<ForStmt>(init, condition, update, body, line);
  }

  StmtPtr ParseTry() {
    int line = Line();
    Expect(TokenType::kTry, "");
    StmtPtr try_block = ParseBlock();
    std::string_view catch_name;
    StmtPtr catch_block = nullptr;
    if (Match(TokenType::kCatch)) {
      Expect(TokenType::kLeftParen, "after 'catch'");
      catch_name = Name(Expect(TokenType::kIdentifier, "as catch binding"));
      Expect(TokenType::kRightParen, "after catch binding");
      catch_block = ParseBlock();
    }
    StmtPtr finally_block = nullptr;
    if (Match(TokenType::kFinally)) finally_block = ParseBlock();
    if (!catch_block && !finally_block) {
      Fail("try requires catch or finally");
    }
    return New<TryStmt>(try_block, catch_name, catch_block, finally_block,
                        line);
  }

  // --- expressions ----------------------------------------------------
  ExprPtr ParseExpression() { return ParseAssignment(); }

  ExprPtr ParseAssignment() {
    ExprPtr left = ParseConditional();
    AssignOp op;
    if (Check(TokenType::kAssign)) {
      op = AssignOp::kAssign;
    } else if (Check(TokenType::kPlusAssign)) {
      op = AssignOp::kAddAssign;
    } else if (Check(TokenType::kMinusAssign)) {
      op = AssignOp::kSubtractAssign;
    } else {
      return left;
    }
    RequireStoreTarget(*left, "invalid assignment target");
    int line = Line();
    Advance();
    ExprPtr value = ParseAssignment();
    return New<AssignExpr>(op, left, value, line);
  }

  ExprPtr ParseConditional() {
    ExprPtr condition = ParseLogicalOr();
    if (!Match(TokenType::kQuestion)) return condition;
    int line = Line();
    ExprPtr then_value = ParseAssignment();
    Expect(TokenType::kColon, "in conditional expression");
    ExprPtr else_value = ParseAssignment();
    return New<ConditionalExpr>(condition, then_value, else_value, line);
  }

  ExprPtr ParseLogicalOr() {
    ExprPtr left = ParseLogicalAnd();
    while (Check(TokenType::kOrOr)) {
      int line = Line();
      Advance();
      ExprPtr right = ParseLogicalAnd();
      left = New<LogicalExpr>(LogicalOp::kOr, left, right, line);
    }
    return left;
  }

  ExprPtr ParseLogicalAnd() {
    ExprPtr left = ParseEquality();
    while (Check(TokenType::kAndAnd)) {
      int line = Line();
      Advance();
      ExprPtr right = ParseEquality();
      left = New<LogicalExpr>(LogicalOp::kAnd, left, right, line);
    }
    return left;
  }

  ExprPtr ParseEquality() {
    ExprPtr left = ParseRelational();
    while (true) {
      BinaryOp op;
      if (Check(TokenType::kEq)) {
        op = BinaryOp::kEq;
      } else if (Check(TokenType::kStrictEq)) {
        op = BinaryOp::kStrictEq;
      } else if (Check(TokenType::kNotEq)) {
        op = BinaryOp::kNotEq;
      } else if (Check(TokenType::kStrictNotEq)) {
        op = BinaryOp::kStrictNotEq;
      } else {
        return left;
      }
      int line = Line();
      Advance();
      ExprPtr right = ParseRelational();
      left = New<BinaryExpr>(op, left, right, line);
    }
  }

  ExprPtr ParseRelational() {
    ExprPtr left = ParseAdditive();
    while (true) {
      BinaryOp op;
      if (Check(TokenType::kLess)) {
        op = BinaryOp::kLess;
      } else if (Check(TokenType::kLessEq)) {
        op = BinaryOp::kLessEq;
      } else if (Check(TokenType::kGreater)) {
        op = BinaryOp::kGreater;
      } else if (Check(TokenType::kGreaterEq)) {
        op = BinaryOp::kGreaterEq;
      } else {
        return left;
      }
      int line = Line();
      Advance();
      ExprPtr right = ParseAdditive();
      left = New<BinaryExpr>(op, left, right, line);
    }
  }

  ExprPtr ParseAdditive() {
    ExprPtr left = ParseMultiplicative();
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      BinaryOp op = Check(TokenType::kPlus) ? BinaryOp::kAdd
                                            : BinaryOp::kSubtract;
      int line = Line();
      Advance();
      ExprPtr right = ParseMultiplicative();
      left = New<BinaryExpr>(op, left, right, line);
    }
    return left;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr left = ParseUnary();
    while (Check(TokenType::kStar) || Check(TokenType::kSlash) ||
           Check(TokenType::kPercent)) {
      BinaryOp op = Check(TokenType::kStar)
                        ? BinaryOp::kMultiply
                        : (Check(TokenType::kSlash) ? BinaryOp::kDivide
                                                    : BinaryOp::kModulo);
      int line = Line();
      Advance();
      ExprPtr right = ParseUnary();
      left = New<BinaryExpr>(op, left, right, line);
    }
    return left;
  }

  ExprPtr ParseUnary() {
    int line = Line();
    if (Match(TokenType::kBang)) {
      return New<UnaryExpr>(UnaryOp::kNot, ParseUnary(), line);
    }
    if (Match(TokenType::kMinus)) {
      return New<UnaryExpr>(UnaryOp::kNegate, ParseUnary(), line);
    }
    if (Match(TokenType::kTypeof)) {
      return New<UnaryExpr>(UnaryOp::kTypeof, ParseUnary(), line);
    }
    if (Check(TokenType::kPlusPlus) || Check(TokenType::kMinusMinus)) {
      UnaryOp op = Check(TokenType::kPlusPlus) ? UnaryOp::kPreIncrement
                                               : UnaryOp::kPreDecrement;
      Advance();
      ExprPtr operand = ParseUnary();
      RequireStoreTarget(*operand, "invalid increment/decrement target");
      return New<UnaryExpr>(op, operand, line);
    }
    return ParsePostfix();
  }

  ExprPtr ParsePostfix() {
    ExprPtr expression = ParseCallChain(ParsePrimary());
    if (Check(TokenType::kPlusPlus) || Check(TokenType::kMinusMinus)) {
      PostfixOp op = Check(TokenType::kPlusPlus) ? PostfixOp::kIncrement
                                                 : PostfixOp::kDecrement;
      int line = Line();
      RequireStoreTarget(*expression, "invalid increment/decrement target");
      Advance();
      expression = New<PostfixExpr>(op, expression, line);
    }
    return expression;
  }

  ExprPtr ParseCallChain(ExprPtr base) {
    while (true) {
      if (Check(TokenType::kLeftParen)) {
        int line = Line();
        Advance();
        ExprList arguments = ParseArguments("after call arguments");
        base = New<CallExpr>(base, arguments, line);
      } else if (Check(TokenType::kDot)) {
        int line = Line();
        Advance();
        const std::string_view name =
            Name(Expect(TokenType::kIdentifier, "after '.'"));
        base = New<MemberExpr>(base, name, line);
      } else if (Check(TokenType::kLeftBracket)) {
        int line = Line();
        Advance();
        ExprPtr index = ParseExpression();
        Expect(TokenType::kRightBracket, "after index expression");
        base = New<IndexExpr>(base, index, line);
      } else {
        return base;
      }
    }
  }

  ExprPtr ParsePrimary() {
    int line = Line();
    switch (Peek().type) {
      case TokenType::kNumber: {
        double value = Peek().number;
        Advance();
        return New<NumberExpr>(value, line);
      }
      case TokenType::kString:
        return New<StringExpr>(Literal(Advance()), line);
      case TokenType::kTrue:
        Advance();
        return New<BoolExpr>(true, line);
      case TokenType::kFalse:
        Advance();
        return New<BoolExpr>(false, line);
      case TokenType::kNull:
        Advance();
        return New<NullExpr>(line);
      case TokenType::kUndefined:
        Advance();
        return New<UndefinedExpr>(line);
      case TokenType::kThis:
        Advance();
        return New<ThisExpr>(line);
      case TokenType::kIdentifier:
        return New<IdentifierExpr>(Name(Advance()), line);
      case TokenType::kLeftParen: {
        Advance();
        ExprPtr inner = ParseExpression();
        Expect(TokenType::kRightParen, "after parenthesized expression");
        return inner;
      }
      case TokenType::kLeftBracket: {
        Advance();
        std::vector<ExprPtr> elements;
        if (!Check(TokenType::kRightBracket)) {
          while (true) {
            elements.push_back(ParseAssignment());
            if (!Match(TokenType::kComma)) break;
          }
        }
        Expect(TokenType::kRightBracket, "after array literal");
        return New<ArrayExpr>(List(elements), line);
      }
      case TokenType::kLeftBrace: {
        Advance();
        std::vector<Property> properties;
        if (!Check(TokenType::kRightBrace)) {
          while (true) {
            std::string_view key;
            if (Check(TokenType::kIdentifier)) {
              key = Name(Advance());
            } else if (Check(TokenType::kString)) {
              key = Literal(Advance());
            } else {
              Fail("expected property name in object literal");
            }
            Expect(TokenType::kColon, "after property name");
            properties.push_back(Property{key, ParseAssignment()});
            if (!Match(TokenType::kComma)) break;
          }
        }
        Expect(TokenType::kRightBrace, "after object literal");
        return New<ObjectLiteralExpr>(List(properties), line);
      }
      case TokenType::kFunction: {
        Advance();
        return ParseFunctionRest(/*require_name=*/false);
      }
      case TokenType::kNew: {
        Advance();
        // new Callee(args) — callee may be a member chain but the argument
        // list binds to `new`.
        ExprPtr callee = ParsePrimary();
        while (Check(TokenType::kDot)) {
          int member_line = Line();
          Advance();
          const std::string_view name =
              Name(Expect(TokenType::kIdentifier, "after '.'"));
          callee = New<MemberExpr>(callee, name, member_line);
        }
        ExprList arguments;
        if (Match(TokenType::kLeftParen)) {
          arguments = ParseArguments("after constructor arguments");
        }
        return New<NewExpr>(callee, arguments, line);
      }
      default:
        Fail(std::string("unexpected token '") +
             (Peek().text.empty() ? ToString(Peek().type) : Peek().text) +
             "'");
    }
  }

  /// The comma-separated list after an already-consumed '('.
  ExprList ParseArguments(const char* context) {
    std::vector<ExprPtr> arguments;
    if (!Check(TokenType::kRightParen)) {
      while (true) {
        arguments.push_back(ParseAssignment());
        if (!Match(TokenType::kComma)) break;
      }
    }
    Expect(TokenType::kRightParen, context);
    return List(arguments);
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  std::string_view source_;
  support::Arena& arena_;
};

/// Generous bound on the node bytes one token produces (a top-level
/// `new F;` is the worst case, at about 27); sizes the throwaway arena of
/// the sizing pass so it almost never needs a second chunk.
constexpr std::size_t kMaxNodeBytesPerToken = 32;

}  // namespace

Program ParseProgram(std::string_view source) {
  const std::vector<Token> tokens = Tokenize(source);
  auto build = [&](Program& program) {
    program.source_ = program.arena_.CopyString(source);
    program.statements_ = Parser(tokens, program.source_, program.arena_).Run();
  };
  // Pass 1 builds the Program in a throwaway arena: it raises any
  // SyntaxError and measures the exact bytes the source copy and nodes
  // take. Pass 2 builds it again into one chunk of exactly that size, so
  // a cached Program is a single heap block with no slack.
  Program sizing;
  sizing.arena_.Reserve(source.size() + tokens.size() * kMaxNodeBytesPerToken);
  build(sizing);
  Program program;
  program.arena_.Reserve(sizing.arena_.used());
  build(program);
  return program;
}

}  // namespace mobivine::minijs
