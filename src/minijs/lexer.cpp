#include "minijs/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

namespace mobivine::minijs {

const char* ToString(TokenType type) {
  switch (type) {
    case TokenType::kNumber: return "number";
    case TokenType::kString: return "string";
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kVar: return "var";
    case TokenType::kFunction: return "function";
    case TokenType::kReturn: return "return";
    case TokenType::kIf: return "if";
    case TokenType::kElse: return "else";
    case TokenType::kWhile: return "while";
    case TokenType::kFor: return "for";
    case TokenType::kBreak: return "break";
    case TokenType::kContinue: return "continue";
    case TokenType::kTrue: return "true";
    case TokenType::kFalse: return "false";
    case TokenType::kNull: return "null";
    case TokenType::kUndefined: return "undefined";
    case TokenType::kNew: return "new";
    case TokenType::kThis: return "this";
    case TokenType::kTypeof: return "typeof";
    case TokenType::kThrow: return "throw";
    case TokenType::kTry: return "try";
    case TokenType::kCatch: return "catch";
    case TokenType::kFinally: return "finally";
    case TokenType::kLeftParen: return "(";
    case TokenType::kRightParen: return ")";
    case TokenType::kLeftBrace: return "{";
    case TokenType::kRightBrace: return "}";
    case TokenType::kLeftBracket: return "[";
    case TokenType::kRightBracket: return "]";
    case TokenType::kComma: return ",";
    case TokenType::kSemicolon: return ";";
    case TokenType::kColon: return ":";
    case TokenType::kDot: return ".";
    case TokenType::kQuestion: return "?";
    case TokenType::kAssign: return "=";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kStar: return "*";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kPlusAssign: return "+=";
    case TokenType::kMinusAssign: return "-=";
    case TokenType::kPlusPlus: return "++";
    case TokenType::kMinusMinus: return "--";
    case TokenType::kEq: return "==";
    case TokenType::kStrictEq: return "===";
    case TokenType::kNotEq: return "!=";
    case TokenType::kStrictNotEq: return "!==";
    case TokenType::kLess: return "<";
    case TokenType::kLessEq: return "<=";
    case TokenType::kGreater: return ">";
    case TokenType::kGreaterEq: return ">=";
    case TokenType::kAndAnd: return "&&";
    case TokenType::kOrOr: return "||";
    case TokenType::kBang: return "!";
    case TokenType::kEof: return "<eof>";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string, TokenType>& Keywords() {
  static const std::unordered_map<std::string, TokenType> keywords = {
      {"var", TokenType::kVar},         {"function", TokenType::kFunction},
      {"return", TokenType::kReturn},   {"if", TokenType::kIf},
      {"else", TokenType::kElse},       {"while", TokenType::kWhile},
      {"for", TokenType::kFor},         {"break", TokenType::kBreak},
      {"continue", TokenType::kContinue}, {"true", TokenType::kTrue},
      {"false", TokenType::kFalse},     {"null", TokenType::kNull},
      {"undefined", TokenType::kUndefined}, {"new", TokenType::kNew},
      {"this", TokenType::kThis},       {"typeof", TokenType::kTypeof},
      {"throw", TokenType::kThrow},     {"try", TokenType::kTry},
      {"catch", TokenType::kCatch},     {"finally", TokenType::kFinally},
  };
  return keywords;
}

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      Token token = Next();
      const bool done = token.type == TokenType::kEof;
      tokens.push_back(std::move(token));
      if (done) return tokens;
    }
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    throw LexError(message, line_, column_);
  }

  bool AtEnd() const { return pos_ >= source_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  bool Match(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    Advance();
    return true;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else if (c == '/' && Peek(1) == '*') {
        int start_line = line_, start_col = column_;
        Advance();
        Advance();
        while (!(Peek() == '*' && Peek(1) == '/')) {
          if (AtEnd()) {
            throw LexError("unterminated block comment", start_line,
                           start_col);
          }
          Advance();
        }
        Advance();
        Advance();
      } else {
        return;
      }
    }
  }

  Token Make(TokenType type, std::string text = "") {
    Token token;
    token.type = type;
    token.text = std::move(text);
    token.offset = token_offset_;
    token.line = token_line_;
    token.column = token_column_;
    return token;
  }

  Token Next() {
    token_offset_ = pos_;
    token_line_ = line_;
    token_column_ = column_;
    if (AtEnd()) return Make(TokenType::kEof);
    char c = Advance();
    switch (c) {
      case '(': return Make(TokenType::kLeftParen);
      case ')': return Make(TokenType::kRightParen);
      case '{': return Make(TokenType::kLeftBrace);
      case '}': return Make(TokenType::kRightBrace);
      case '[': return Make(TokenType::kLeftBracket);
      case ']': return Make(TokenType::kRightBracket);
      case ',': return Make(TokenType::kComma);
      case ';': return Make(TokenType::kSemicolon);
      case ':': return Make(TokenType::kColon);
      case '.': return Make(TokenType::kDot);
      case '?': return Make(TokenType::kQuestion);
      case '%': return Make(TokenType::kPercent);
      case '*': return Make(TokenType::kStar);
      case '/': return Make(TokenType::kSlash);
      case '+':
        if (Match('+')) return Make(TokenType::kPlusPlus);
        if (Match('=')) return Make(TokenType::kPlusAssign);
        return Make(TokenType::kPlus);
      case '-':
        if (Match('-')) return Make(TokenType::kMinusMinus);
        if (Match('=')) return Make(TokenType::kMinusAssign);
        return Make(TokenType::kMinus);
      case '=':
        if (Match('=')) {
          return Match('=') ? Make(TokenType::kStrictEq)
                            : Make(TokenType::kEq);
        }
        return Make(TokenType::kAssign);
      case '!':
        if (Match('=')) {
          return Match('=') ? Make(TokenType::kStrictNotEq)
                            : Make(TokenType::kNotEq);
        }
        return Make(TokenType::kBang);
      case '<':
        return Match('=') ? Make(TokenType::kLessEq) : Make(TokenType::kLess);
      case '>':
        return Match('=') ? Make(TokenType::kGreaterEq)
                          : Make(TokenType::kGreater);
      case '&':
        if (Match('&')) return Make(TokenType::kAndAnd);
        Fail("unexpected '&' (only && supported)");
      case '|':
        if (Match('|')) return Make(TokenType::kOrOr);
        Fail("unexpected '|' (only || supported)");
      case '"':
      case '\'':
        return LexString(c);
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) return LexNumber(c);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      return LexIdentifier(c);
    }
    Fail(std::string("unexpected character '") + c + "'");
  }

  Token LexString(char quote) {
    std::string value;
    while (true) {
      if (AtEnd()) Fail("unterminated string literal");
      char c = Advance();
      if (c == quote) break;
      if (c == '\n') Fail("newline in string literal");
      if (c == '\\') {
        if (AtEnd()) Fail("unterminated escape sequence");
        char esc = Advance();
        switch (esc) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case 'r': value += '\r'; break;
          case '\\': value += '\\'; break;
          case '\'': value += '\''; break;
          case '"': value += '"'; break;
          case '0': value += '\0'; break;
          default: Fail(std::string("unknown escape '\\") + esc + "'");
        }
      } else {
        value += c;
      }
    }
    return Make(TokenType::kString, std::move(value));
  }

  Token LexNumber(char first) {
    std::string text(1, first);
    while (std::isdigit(static_cast<unsigned char>(Peek()))) text += Advance();
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      text += Advance();
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        text += Advance();
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      size_t mark = 1;
      if (Peek(mark) == '+' || Peek(mark) == '-') ++mark;
      if (std::isdigit(static_cast<unsigned char>(Peek(mark)))) {
        text += Advance();  // e
        if (Peek() == '+' || Peek() == '-') text += Advance();
        while (std::isdigit(static_cast<unsigned char>(Peek()))) {
          text += Advance();
        }
      }
    }
    Token token = Make(TokenType::kNumber, text);
    token.number = std::strtod(text.c_str(), nullptr);
    return token;
  }

  Token LexIdentifier(char first) {
    std::string text(1, first);
    while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_' ||
           Peek() == '$') {
      text += Advance();
    }
    auto it = Keywords().find(text);
    if (it != Keywords().end()) return Make(it->second, std::move(text));
    return Make(TokenType::kIdentifier, std::move(text));
  }

  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  size_t token_offset_ = 0;
  int token_line_ = 1;
  int token_column_ = 1;
};

}  // namespace

std::vector<Token> Tokenize(std::string_view source) {
  return Lexer(source).Run();
}

}  // namespace mobivine::minijs
