#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "minijs/interpreter.h"
#include "minijs/lexer.h"
#include "minijs/parser.h"

namespace mobivine::minijs {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenKindsAndPositions) {
  auto tokens = Tokenize("var x = 1.5;\nx += 2;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].type, TokenType::kVar);
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[3].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5);
  EXPECT_EQ(tokens[5].line, 2);
  EXPECT_EQ(tokens[6].type, TokenType::kPlusAssign);
  EXPECT_EQ(tokens.back().type, TokenType::kEof);
}

TEST(Lexer, StringsWithEscapes) {
  auto tokens = Tokenize(R"('a\'b' "c\"d\n")");
  EXPECT_EQ(tokens[0].text, "a'b");
  EXPECT_EQ(tokens[1].text, "c\"d\n");
}

TEST(Lexer, CommentsSkipped) {
  auto tokens = Tokenize("a // line\n/* block\nmore */ b");
  ASSERT_EQ(tokens.size(), 3u);  // a, b, EOF
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, MultiCharOperators) {
  auto tokens = Tokenize("=== !== == != <= >= && || ++ --");
  EXPECT_EQ(tokens[0].type, TokenType::kStrictEq);
  EXPECT_EQ(tokens[1].type, TokenType::kStrictNotEq);
  EXPECT_EQ(tokens[2].type, TokenType::kEq);
  EXPECT_EQ(tokens[3].type, TokenType::kNotEq);
  EXPECT_EQ(tokens[4].type, TokenType::kLessEq);
  EXPECT_EQ(tokens[5].type, TokenType::kGreaterEq);
  EXPECT_EQ(tokens[6].type, TokenType::kAndAnd);
  EXPECT_EQ(tokens[7].type, TokenType::kOrOr);
  EXPECT_EQ(tokens[8].type, TokenType::kPlusPlus);
  EXPECT_EQ(tokens[9].type, TokenType::kMinusMinus);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(Tokenize("'unterminated"), LexError);
  EXPECT_THROW(Tokenize("/* never closed"), LexError);
  EXPECT_THROW(Tokenize("a # b"), LexError);
  EXPECT_THROW(Tokenize("a & b"), LexError);
}

TEST(Lexer, NumberForms) {
  auto tokens = Tokenize("0 42 3.25 1e3 2.5e-2");
  EXPECT_DOUBLE_EQ(tokens[0].number, 0);
  EXPECT_DOUBLE_EQ(tokens[1].number, 42);
  EXPECT_DOUBLE_EQ(tokens[2].number, 3.25);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1000);
  EXPECT_DOUBLE_EQ(tokens[4].number, 0.025);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// The perfbench script composite (variant 0): k location fixes, a
// checksum loop, then a post with an SMS fallback. StepPin below runs the
// same text.
std::string CompositeSource() {
  return
      "var k = Number(args.k); var lat = 0; var lon = 0; var i = 0;\n"
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
      "var n = Number(args.n); var acc = 17; var j = 0;\n"
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

TEST(Parser, SyntaxErrorsCarryLocation) {
  try {
    (void)ParseProgram("var = 3;");
    FAIL() << "expected SyntaxError";
  } catch (const SyntaxError& error) {
    EXPECT_EQ(error.line(), 1);
  }
  EXPECT_THROW(ParseProgram("if (x) { "), SyntaxError);
  EXPECT_THROW(ParseProgram("1 + ;"), SyntaxError);
  EXPECT_THROW(ParseProgram("try {}"), SyntaxError);  // needs catch/finally
  EXPECT_THROW(ParseProgram("1 = 2;"), SyntaxError);  // bad assign target
  // Prefix and postfix ++/-- take the same targets as assignment.
  for (const char* source : {"++1;", "++f();", "--(a + b);", "++-x;", "1++;"}) {
    EXPECT_THROW(ParseProgram(source), SyntaxError) << source;
  }
}

TEST(Parser, PrecedenceShape) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  Program program = ParseProgram("1 + 2 * 3;");
  ASSERT_EQ(program.statements().size(), 1u);
  ASSERT_EQ(program.statements()[0]->kind, StmtKind::kExpression);
  const auto& stmt =
      static_cast<const ExpressionStmt&>(*program.statements()[0]);
  ASSERT_EQ(stmt.expression->kind, ExprKind::kBinary);
  const auto& add = static_cast<const BinaryExpr&>(*stmt.expression);
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  ASSERT_EQ(add.left->kind, ExprKind::kNumber);
  EXPECT_DOUBLE_EQ(static_cast<const NumberExpr&>(*add.left).value, 1);
  ASSERT_EQ(add.right->kind, ExprKind::kBinary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.right).op,
            BinaryOp::kMultiply);
}

TEST(Parser, ProgramDoesNotDependOnTheCallersBuffer) {
  // The short source fits a std::string's inline buffer, so a Program that
  // kept views into the caller's string (or into an SSO member of its own)
  // would dangle once that string or the Program moves.
  const std::string shapes[] = {
      "var a='bc';a;",
      "var greeting = 'hello'; var o = {name: greeting, 'tag': 'x\\ty'};"
      " function show(p) { return p.name + '/' + p.tag + '/' + typeof p; }"
      " show(o);",
  };
  const std::string expected[] = {"bc", "hello/x\ty/object"};
  for (int i = 0; i < 2; ++i) {
    Program moved;
    {
      auto buffer = std::make_unique<std::string>(shapes[i]);
      Program parsed = ParseProgram(*buffer);
      std::fill(buffer->begin(), buffer->end(), '#');
      buffer.reset();
      moved = std::move(parsed);
      EXPECT_TRUE(parsed.statements().empty());
    }
    EXPECT_EQ(moved.source(), shapes[i]);
    auto program = std::make_shared<const Program>(std::move(moved));
    Interpreter interp;
    EXPECT_EQ(interp.Run(program).ToDisplayString(), expected[i]);
  }
}

TEST(Parser, ParsedCompositeStaysInItsMemoryBudget) {
  // The budget behind the parse cache's memory: the perfbench composite
  // (885 bytes of source) parses into one arena chunk that holds the
  // source copy and every node with no slack.
  const std::string source = CompositeSource();
  ASSERT_EQ(source.size(), 885u);
  const Program program = ParseProgram(source);
  EXPECT_LE(program.arena_bytes(), 6'300u);
  EXPECT_EQ(program.source(), source);
  EXPECT_NE(program.source().data(), source.data());
}

// ---------------------------------------------------------------------------
// Interpreter: expression semantics
// ---------------------------------------------------------------------------

double RunNumber(const std::string& source) {
  Interpreter interpreter;
  Value result = interpreter.Run(source);
  EXPECT_TRUE(result.is_number()) << source << " -> "
                                  << result.ToDisplayString();
  return result.is_number() ? result.as_number() : 0;
}

std::string RunString(const std::string& source) {
  Interpreter interpreter;
  return interpreter.Run(source).ToDisplayString();
}

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(RunNumber("1 + 2 * 3;"), 7);
  EXPECT_DOUBLE_EQ(RunNumber("(1 + 2) * 3;"), 9);
  EXPECT_DOUBLE_EQ(RunNumber("10 / 4;"), 2.5);
  EXPECT_DOUBLE_EQ(RunNumber("10 % 3;"), 1);
  EXPECT_DOUBLE_EQ(RunNumber("-3 + 1;"), -2);
}

TEST(Interp, StringConcatenation) {
  EXPECT_EQ(RunString("'a' + 'b' + 1;"), "ab1");
  EXPECT_EQ(RunString("1 + 2 + 'x';"), "3x");
}

TEST(Interp, ComparisonsAndEquality) {
  Interpreter interp;
  EXPECT_TRUE(interp.Run("1 < 2;").as_bool());
  EXPECT_TRUE(interp.Run("'abc' < 'abd';").as_bool());
  EXPECT_TRUE(interp.Run("1 == '1';").as_bool());
  EXPECT_FALSE(interp.Run("1 === '1';").as_bool());
  EXPECT_TRUE(interp.Run("null == undefined;").as_bool());
  EXPECT_FALSE(interp.Run("null === undefined;").as_bool());
  EXPECT_TRUE(interp.Run("typeof null;").as_string() == "object");
}

TEST(Interp, LogicalShortCircuit) {
  Interpreter interp;
  interp.Run("var called = false; function f() { called = true; return 1; }");
  interp.Run("false && f();");
  EXPECT_FALSE(interp.GetGlobal("called").as_bool());
  interp.Run("true || f();");
  EXPECT_FALSE(interp.GetGlobal("called").as_bool());
  interp.Run("true && f();");
  EXPECT_TRUE(interp.GetGlobal("called").as_bool());
}

TEST(Interp, Ternary) {
  EXPECT_DOUBLE_EQ(RunNumber("1 < 2 ? 10 : 20;"), 10);
  EXPECT_DOUBLE_EQ(RunNumber("1 > 2 ? 10 : 20;"), 20);
}

TEST(Interp, VarScopingAndClosures) {
  Interpreter interp;
  Value result = interp.Run(R"(
    function counter() {
      var n = 0;
      return function() { n = n + 1; return n; };
    }
    var c1 = counter();
    var c2 = counter();
    c1(); c1(); c2();
  )");
  EXPECT_DOUBLE_EQ(result.as_number(), 1);  // c2's own state
  EXPECT_DOUBLE_EQ(interp.Run("c1();").as_number(), 3);
}

TEST(Interp, WhileAndForLoops) {
  EXPECT_DOUBLE_EQ(
      RunNumber("var s = 0; var i = 0; while (i < 5) { s += i; i++; } s;"),
      10);
  EXPECT_DOUBLE_EQ(
      RunNumber("var s = 0; for (var i = 0; i < 5; i++) { s += i; } s;"), 10);
}

TEST(Interp, BreakAndContinue) {
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    var s = 0;
    for (var i = 0; i < 10; i++) {
      if (i == 3) { continue; }
      if (i == 6) { break; }
      s += i;
    }
    s;
  )"),
                   0 + 1 + 2 + 4 + 5);
  // A `return` leaves every loop of its function.
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    function f() {
      for (var i = 0; i < 5; i++) {
        var j = 0;
        while (true) {
          if (i == 2 && j == 1) { return i * 10 + j; }
          j++;
          if (j > 3) { break; }
        }
      }
      return -1;
    }
    f();
  )"),
                   21);
  // A `break` in an inner loop leaves only that loop.
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    var n = 0;
    for (var i = 0; i < 3; i++) {
      while (true) { break; }
      n++;
    }
    n;
  )"),
                   3);
  // A `continue` in a `while` re-tests its condition.
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    var tests = 0;
    var i = 0;
    function more() { tests++; return i < 3; }
    while (more()) { i++; continue; }
    tests;
  )"),
                   4);
}

TEST(Interp, ObjectsAndArrays) {
  Interpreter interp;
  EXPECT_DOUBLE_EQ(interp.Run("var o = {a: 1, 'b': 2}; o.a + o['b'];")
                       .as_number(),
                   3);
  EXPECT_DOUBLE_EQ(interp.Run("var a = [1, 2, 3]; a[0] + a[2];").as_number(),
                   4);
  EXPECT_DOUBLE_EQ(interp.Run("a.push(9); a.length;").as_number(), 4);
  EXPECT_DOUBLE_EQ(interp.Run("a.pop();").as_number(), 9);
  EXPECT_DOUBLE_EQ(interp.Run("a.shift();").as_number(), 1);
  EXPECT_EQ(interp.Run("[4,5,6].join('-');").as_string(), "4-5-6");
  EXPECT_DOUBLE_EQ(interp.Run("a[10] = 1; a.length;").as_number(), 11);
}

TEST(Interp, StringBuiltins) {
  Interpreter interp;
  EXPECT_DOUBLE_EQ(interp.Run("'hello'.length;").as_number(), 5);
  EXPECT_DOUBLE_EQ(interp.Run("'hello'.indexOf('ll');").as_number(), 2);
  EXPECT_DOUBLE_EQ(interp.Run("'hello'.indexOf('z');").as_number(), -1);
  EXPECT_EQ(interp.Run("'hello'.substring(1, 3);").as_string(), "el");
  EXPECT_EQ(interp.Run("'hello'.charAt(1);").as_string(), "e");
  EXPECT_EQ(interp.Run("'hi'.toUpperCase();").as_string(), "HI");
  EXPECT_EQ(interp.Run("'HI'.toLowerCase();").as_string(), "hi");
}

TEST(Interp, NewAndThis) {
  Interpreter interp;
  Value result = interp.Run(R"(
    function Point(x, y) {
      this.x = x;
      this.y = y;
      this.norm2 = function() { return this.x * this.x + this.y * this.y; };
    }
    var p = new Point(3, 4);
    p.norm2();
  )");
  EXPECT_DOUBLE_EQ(result.as_number(), 25);
}

TEST(Interp, ConstructorReturningObjectWins) {
  Interpreter interp;
  Value result = interp.Run(R"(
    function F() { return {tag: 'explicit'}; }
    var o = new F();
    o.tag;
  )");
  EXPECT_EQ(result.as_string(), "explicit");
}

TEST(Interp, ThrowTryCatchFinally) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    try {
      log.push('try');
      throw new Error('boom');
    } catch (e) {
      log.push('catch:' + e.message);
    } finally {
      log.push('finally');
    }
    log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "try,catch:boom,finally");
}

TEST(Interp, FinallyRunsOnRethrow) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var ran = false;
    function f() {
      try { throw 'x'; } finally { ran = true; }
    }
    try { f(); } catch (e) {}
    ran;
  )");
  EXPECT_TRUE(result.as_bool());
}

// `finally` runs whenever control leaves try or catch, not only on a
// throw: return, break and continue replay after it.
TEST(Interp, FinallyRunsOnReturn) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    function f() {
      try { return 'r'; } finally { log.push('fin'); }
    }
    var r = f();
    r + ':' + log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "r:fin");
  // A function called from `finally` returns too; the pending return
  // survives it.
  EXPECT_EQ(interp.Run(R"(
    function g() { return 'g'; }
    function h() {
      try { return 'f'; } finally { g(); }
    }
    h();
  )").as_string(),
            "f");
}

TEST(Interp, FinallyRunsOnReturnFromCatch) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    function f() {
      try { throw 'x'; } catch (e) { return 'c'; } finally { log.push('fin'); }
    }
    var r = f();
    r + ':' + log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "c:fin");
}

TEST(Interp, FinallyRunsOnContinue) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    for (var i = 0; i < 2; i++) {
      try { continue; } finally { log.push('c' + i); }
      log.push('skipped');
    }
    log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "c0,c1");
}

TEST(Interp, FinallyRunsOnBreak) {
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    while (true) {
      try { break; } finally { log.push('b'); }
    }
    log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "b");
}

TEST(Interp, AbruptFinallyOverridesPendingCompletion) {
  Interpreter interp;
  Value result = interp.Run(R"(
    function f() {
      try { return 1; } finally { return 2; }
    }
    var broke = 'no';
    while (true) {
      try { throw 'lost'; } finally { broke = 'yes'; break; }
    }
    f() + ':' + broke;
  )");
  EXPECT_EQ(result.as_string(), "2:yes");
}

// A `break` or `continue` outside any loop of its function, or a
// `return` outside any function, is a SyntaxError: it never escapes Run()
// as a bare signal, and a function cannot break its caller's loop.
TEST(Interp, StrayJumpsAreSyntaxErrors) {
  for (const char* source :
       {"break;", "continue;", "return 1;", "if (true) { break; }",
        "try { return 1; } finally {}"}) {
    Interpreter interp;
    try {
      interp.Run(source);
      ADD_FAILURE() << "expected ScriptError: " << source;
    } catch (const ScriptError& error) {
      EXPECT_NE(std::string(error.what()).find("SyntaxError"),
                std::string::npos)
          << source << ": " << error.what();
    }
  }
  Interpreter interp;
  Value result = interp.Run(R"(
    var log = [];
    function f() { break; }
    for (var i = 0; i < 2; i++) {
      try { f(); } catch (e) { log.push(e.name); }
      log.push(i);
    }
    log.join(',');
  )");
  EXPECT_EQ(result.as_string(), "SyntaxError,0,SyntaxError,1");
}

// Budget kills are host exceptions, not script completions: they leave
// try without running `finally`, so a script cannot act after its kill.
TEST(Interp, BudgetKillsSkipFinally) {
  const char* source = R"(
    var ran = false;
    try { while (true) {} } finally { ran = true; }
  )";
  Interpreter limited;
  limited.set_step_limit(10'000);
  EXPECT_THROW(limited.Run(source), ScriptError);
  EXPECT_FALSE(limited.GetGlobal("ran").Truthy());

  struct Kill {};
  Interpreter observed;
  observed.set_step_observer([](std::uint64_t) { throw Kill{}; }, 64);
  EXPECT_THROW(observed.Run(source), Kill);
  EXPECT_FALSE(observed.GetGlobal("ran").Truthy());
}

TEST(Interp, UncaughtThrowBecomesScriptError) {
  Interpreter interp;
  try {
    interp.Run("throw new Error('kaboom');");
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& error) {
    EXPECT_NE(std::string(error.what()).find("kaboom"), std::string::npos);
  }
}

TEST(Interp, RuntimeTypeErrors) {
  Interpreter interp;
  EXPECT_THROW(interp.Run("undefinedName;"), ScriptError);
  EXPECT_THROW(interp.Run("null.x;"), ScriptError);
  EXPECT_THROW(interp.Run("var x = 3; x();"), ScriptError);
  EXPECT_THROW(interp.Run("var y = 1; y.z = 2;"), ScriptError);
}

TEST(Interp, FunctionHoisting) {
  EXPECT_DOUBLE_EQ(RunNumber("var r = f(); function f() { return 11; } r;"),
                   11);
}

TEST(Interp, ArgumentsObjectAndMissingParams) {
  Interpreter interp;
  EXPECT_DOUBLE_EQ(
      interp.Run("function f(a, b) { return arguments.length; } f(1, 2, 3);")
          .as_number(),
      3);
  EXPECT_EQ(interp.Run("function g(a, b) { return typeof b; } g(1);")
                .as_string(),
            "undefined");
}

TEST(Interp, PrefixPostfixIncrement) {
  Interpreter interp;
  EXPECT_DOUBLE_EQ(interp.Run("var i = 5; i++;").as_number(), 5);
  EXPECT_DOUBLE_EQ(interp.GetGlobal("i").as_number(), 6);
  EXPECT_DOUBLE_EQ(interp.Run("++i;").as_number(), 7);
  // Every target kind stores like `=`: members, computed keys and array
  // elements, and a prefix increment past the end extends the array.
  const std::pair<const char*, double> cases[] = {
      {"var o = {n: 1}; o.n++; o.n;", 2},
      {"var a = [5]; a[0]++; a[0];", 6},
      {"var o = {k: 1}; o['k']++; o.k;", 2},
      {"var a = [5]; a[0]--; a[0];", 4},
      {"var a = [5]; ++a[0]; a[0];", 6},
      {"var a = [5]; ++a[2]; a.length;", 3},
  };
  for (const auto& [source, expected] : cases) {
    EXPECT_DOUBLE_EQ(RunNumber(source), expected) << source;
  }
}

TEST(Interp, MathAndGlobalBuiltins) {
  Interpreter interp;
  EXPECT_DOUBLE_EQ(interp.Run("Math.abs(-4);").as_number(), 4);
  EXPECT_DOUBLE_EQ(interp.Run("Math.floor(2.7);").as_number(), 2);
  EXPECT_DOUBLE_EQ(interp.Run("Math.max(1, 9, 3);").as_number(), 9);
  EXPECT_DOUBLE_EQ(interp.Run("Math.min(4, 2);").as_number(), 2);
  EXPECT_DOUBLE_EQ(interp.Run("Math.pow(2, 10);").as_number(), 1024);
  EXPECT_TRUE(interp.Run("isNaN(Number('abc'));").as_bool());
  EXPECT_EQ(interp.Run("String(12);").as_string(), "12");
}

TEST(Interp, PrintCollectsOutput) {
  Interpreter interp;
  interp.Run("print('a', 1); print('b');");
  ASSERT_EQ(interp.output().size(), 2u);
  EXPECT_EQ(interp.output()[0], "a 1");
  EXPECT_EQ(interp.output()[1], "b");
}

TEST(Interp, StepLimitGuardsRunaway) {
  Interpreter interp;
  interp.set_step_limit(10'000);
  EXPECT_THROW(interp.Run("while (true) { var x = 1; }"), ScriptError);
}

TEST(Interp, StepsCounted) {
  Interpreter interp;
  interp.Run("1 + 2;");
  const auto baseline = interp.steps();
  EXPECT_GT(baseline, 0u);
  interp.Run("var s = 0; for (var i = 0; i < 100; i++) { s += i; }");
  EXPECT_GT(interp.steps(), baseline + 300);
}

TEST(Interp, HostFunctionsAndCallFromNative) {
  Interpreter interp;
  interp.SetGlobal("double",
                   MakeHostFunction("double", [](Interpreter&, const Value&,
                                                 std::vector<Value>& args) {
                     return Value::Number(args[0].ToNumber() * 2);
                   }));
  EXPECT_DOUBLE_EQ(interp.Run("double(21);").as_number(), 42);

  interp.Run("function add(a, b) { return a + b; }");
  Value result = interp.Call(interp.GetGlobal("add"), Value::Undefined(),
                             {Value::Number(2), Value::Number(3)});
  EXPECT_DOUBLE_EQ(result.as_number(), 5);
}

TEST(Interp, HostObjectMethodsReceiveThis) {
  Interpreter interp;
  auto host = Object::Make();
  host->Set("name", Value::String("wrapper"));
  host->Set("who", MakeHostFunction("who", [](Interpreter&, const Value& self,
                                              std::vector<Value>&) {
              return self.as_object()->Get("name");
            }));
  interp.SetGlobal("hostObj", Value::Obj(host));
  EXPECT_EQ(interp.Run("hostObj.who();").as_string(), "wrapper");
}

TEST(Interp, HostErrorsCatchableInScript) {
  Interpreter interp;
  interp.SetGlobal("explode",
                   MakeHostFunction("explode", [](Interpreter&, const Value&,
                                                  std::vector<Value>&) -> Value {
                     throw ScriptError(Value::Obj(
                         MakeErrorObject("SecurityError", "denied", 101)));
                   }));
  Value result = interp.Run(R"(
    var code = 0;
    try { explode(); } catch (e) { code = e.code; }
    code;
  )");
  EXPECT_DOUBLE_EQ(result.as_number(), 101);
}

// ---------------------------------------------------------------------------
// Step accounting is pinned exactly
// ---------------------------------------------------------------------------
//
// Steps are the sandbox's budget currency (one per AST node evaluated plus
// the allocation charge), so a change to the AST or the interpreter must
// not move them by a single step. Each program below records its exact
// step count and result; none of the numbers may be re-recorded without a
// deliberate change to the budget semantics.

struct PinnedRun {
  std::uint64_t steps;
  std::string result;
};

// The perfbench composite (variant 0) against a stub `mobile` whose
// getLocation returns a fixed fix and whose httpPost echoes its payload,
// or answers "nope" when `mismatch` is set (the SMS fallback path).
PinnedRun RunComposite(bool mismatch) {
  const std::string source =
      "var k = Number(args.k); var lat = 0; var lon = 0; var i = 0;\n"
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
      "var n = Number(args.n); var acc = 17; var j = 0;\n"
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
  Interpreter interp;
  auto mobile = Object::Make();
  mobile->Set("invoke",
              MakeHostFunction("invoke", [mismatch](Interpreter&, const Value&,
                                                    std::vector<Value>& args) {
                const std::string op = args[1].ToDisplayString();
                if (op == "getLocation") return Value::String("12.5,-3.25");
                if (op == "httpPost") {
                  return mismatch ? Value::String("nope") : args[3];
                }
                return Value::String("sent");
              }));
  interp.SetGlobal("mobile", Value::Obj(mobile));
  auto args = Object::Make();
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"id", "42"},
           {"k", "3"},
           {"n", "200"},
           {"src", "android"},
           {"dst", "s60"},
           {"url", "http://ingest.example/post"},
           {"peer", "+15550100"}}) {
    args->Set(name, Value::String(value));
  }
  interp.SetGlobal("args", Value::Obj(args));
  const Value value = interp.Run(source);
  return {interp.steps(), value.ToDisplayString()};
}

PinnedRun RunPinned(const std::string& source) {
  Interpreter interp;
  const Value value = interp.Run(source);
  return {interp.steps(), value.ToDisplayString()};
}

TEST(StepPin, PerfbenchComposite) {
  const PinnedRun post = RunComposite(/*mismatch=*/false);
  EXPECT_EQ(post.steps, 3824u);
  EXPECT_EQ(post.result, "42:post:424023");
  const PinnedRun sms = RunComposite(/*mismatch=*/true);
  EXPECT_EQ(sms.steps, 3840u);
  EXPECT_EQ(sms.result, "42:sms:424023");
}

TEST(StepPin, Recursion) {
  const PinnedRun run = RunPinned(R"(
    function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); }
    fib(12) + ':' + fact(10);
  )");
  EXPECT_EQ(run.steps, 5468u);
  EXPECT_EQ(run.result, "144:3628800");
}

TEST(StepPin, TryCatchFinally) {
  const PinnedRun run = RunPinned(R"(
    var log = [];
    function risky(n) {
      var r = 'none';
      try {
        if (n % 3 == 0) { throw new Error('three:' + n); }
        if (n % 3 == 1) { throw 'plain' + n; }
        r = 'ok' + n;
      } finally {
        log.push('f' + n);
      }
      return r;
    }
    for (var i = 0; i < 6; i++) {
      try { log.push(risky(i)); } catch (e) { log.push(typeof e == 'string' ? e : e.message); }
    }
    try { try { throw 1; } finally { log.push('inner'); } } catch (x) { log.push('outer' + x); }
    log.join(',');
  )");
  EXPECT_EQ(run.steps, 320u);
  EXPECT_EQ(run.result,
            "f0,three:0,f1,plain1,f2,ok2,f3,three:3,f4,plain4,f5,ok5,inner,"
            "outer1");
}

TEST(StepPin, ForBreakContinue) {
  const PinnedRun run = RunPinned(R"(
    var s = 0; var t = 0;
    for (var i = 0; i < 50; i++) {
      if (i % 4 == 1) { continue; }
      if (i > 37) { break; }
      s += i;
      for (var j = 0; ; j++) { if (j >= i % 5) { break; } t -= -1; }
    }
    var w = 0;
    while (true) { w++; if (w < 9) { continue; } break; }
    s + '/' + t + '/' + w;
  )");
  EXPECT_EQ(run.steps, 1911u);
  EXPECT_EQ(run.result, "513/53/9");
}

TEST(StepPin, ClosuresObjectsAndArrays) {
  const PinnedRun run = RunPinned(R"(
    function counter(start) {
      var n = start;
      return { inc: function() { n = n + 1; return n; }, get: function() { return n; } };
    }
    function Point(x, y) { this.x = x; this.y = y; }
    var a = counter(10); var b = counter(100);
    a.inc(); a.inc(); b.inc();
    var p = new Point(3, -4);
    var arr = [1, 'two', null, undefined, true];
    arr[7] = a.get();
    var o = {k: 'v', 'q': [arr.length, arr.pop()]};
    o.k += '!'; o['z'] = !o.missing; --p.y; p.x++;
    var f = function named(v) { return typeof v; };
    [a.get(), b.get(), p.x, p.y, o.k, o.q.join('|'), o.z, f(arr), arr.join(';'),
     'hello'.charAt(1) + 'HI'.toLowerCase() + Math.max(2, 7), 1 === 1 && null == undefined].join(' ');
  )");
  EXPECT_EQ(run.steps, 156u);
  EXPECT_EQ(run.result,
            "12 101 4 -5 v! 8|12 true object "
            "1;two;null;undefined;true;undefined;undefined ehi7 true");
}

}  // namespace
}  // namespace mobivine::minijs
