#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"

namespace streamrel::sql {

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kIdentifier && EqualsIgnoreCase(text, kw);
}

bool Token::IsOperator(const char* op) const {
  return type == TokenType::kOperator && text == op;
}

namespace {

bool IsIdentStart(char c) {
  return isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      size_t end = sql.find("*/", i + 2);
      if (end == std::string::npos) {
        return Status::ParseError("unterminated /* comment");
      }
      i = end + 2;
      continue;
    }
    Token tok;
    tok.position = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      tok.type = TokenType::kIdentifier;
      tok.text = sql.substr(start, i - start);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '"') {
      // Quoted identifier.
      size_t start = ++i;
      while (i < n && sql[i] != '"') ++i;
      if (i >= n) return Status::ParseError("unterminated quoted identifier");
      tok.type = TokenType::kIdentifier;
      tok.text = sql.substr(start, i - start);
      ++i;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote ''
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(sql[i]);
        ++i;
      }
      if (!closed) return Status::ParseError("unterminated string literal");
      tok.type = TokenType::kString;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' &&
          !(i + 1 < n && sql[i + 1] == '.')) {  // not the range op
        is_float = true;
        ++i;
        while (i < n && isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        if (i < n && isdigit(static_cast<unsigned char>(sql[i]))) {
          is_float = true;
          while (i < n && isdigit(static_cast<unsigned char>(sql[i]))) ++i;
        } else {
          i = save;  // 'e' starts an identifier, not an exponent
        }
      }
      std::string text = sql.substr(start, i - start);
      if (is_float) {
        tok.type = TokenType::kFloat;
        tok.float_value = strtod(text.c_str(), nullptr);
      } else {
        tok.type = TokenType::kInteger;
        errno = 0;
        tok.int_value = strtoll(text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return Status::ParseError("integer literal out of range: " + text);
        }
      }
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Multi-char operators first.
    auto two = (i + 1 < n) ? sql.substr(i, 2) : std::string();
    if (two == "<=" || two == ">=" || two == "<>" || two == "!=" ||
        two == "::" || two == "||") {
      tok.type = TokenType::kOperator;
      tok.text = two;
      i += 2;
      tokens.push_back(std::move(tok));
      continue;
    }
    static const std::string kSingles = "(),.;+-*/%=<>";
    if (kSingles.find(c) != std::string::npos) {
      tok.type = TokenType::kOperator;
      tok.text = std::string(1, c);
      ++i;
      tokens.push_back(std::move(tok));
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace streamrel::sql
