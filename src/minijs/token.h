// Token definitions for MiniJS, the small JavaScript-like language that
// hosts the WebView proxy scripts.
#pragma once

#include <cstddef>
#include <string>

namespace mobivine::minijs {

enum class TokenType {
  // Literals and names
  kNumber,
  kString,
  kIdentifier,
  // Keywords
  kVar,
  kFunction,
  kReturn,
  kIf,
  kElse,
  kWhile,
  kFor,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  kUndefined,
  kNew,
  kThis,
  kTypeof,
  kThrow,
  kTry,
  kCatch,
  kFinally,
  // Punctuation
  kLeftParen,
  kRightParen,
  kLeftBrace,
  kRightBrace,
  kLeftBracket,
  kRightBracket,
  kComma,
  kSemicolon,
  kColon,
  kDot,
  kQuestion,
  // Operators
  kAssign,        // =
  kPlus,          // +
  kMinus,         // -
  kStar,          // *
  kSlash,         // /
  kPercent,       // %
  kPlusAssign,    // +=
  kMinusAssign,   // -=
  kPlusPlus,      // ++
  kMinusMinus,    // --
  kEq,            // ==
  kStrictEq,      // ===
  kNotEq,         // !=
  kStrictNotEq,   // !==
  kLess,          // <
  kLessEq,        // <=
  kGreater,       // >
  kGreaterEq,     // >=
  kAndAnd,        // &&
  kOrOr,          // ||
  kBang,          // !
  // End of input
  kEof,
};

struct Token {
  TokenType type = TokenType::kEof;
  std::string text;     // raw lexeme (decoded for strings)
  double number = 0.0;  // value for kNumber
  std::size_t offset = 0;  // byte offset of the lexeme in the source
  int line = 1;
  int column = 1;
};

[[nodiscard]] const char* ToString(TokenType type);

}  // namespace mobivine::minijs
