#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace streamrel::sql {
namespace {

std::vector<Token> Lex(const std::string& text) {
  auto r = Tokenize(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Token>{};
}

TEST(LexerTest, EmptyInput) {
  auto tokens = Lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, Identifiers) {
  auto tokens = Lex("select URL_stream _x1");
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "URL_stream");
  EXPECT_EQ(tokens[2].text, "_x1");
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));  // case-insensitive
}

TEST(LexerTest, QuotedIdentifier) {
  auto tokens = Lex("\"My Table\"");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "My Table");
}

TEST(LexerTest, StringLiteral) {
  auto tokens = Lex("'5 minutes'");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "5 minutes");
}

TEST(LexerTest, EscapedQuoteInString) {
  auto tokens = Lex("'it''s'");
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, IntegerAndFloat) {
  auto tokens = Lex("42 4.25 1e3 7.5e-2");
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 4.25);
  EXPECT_EQ(tokens[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 0.075);
}

TEST(LexerTest, IntegerLiteralOutOfRangeIsAParseError) {
  auto max = Lex("9223372036854775807");
  ASSERT_EQ(max.size(), 2u);  // the literal and the end token
  EXPECT_EQ(max[0].int_value, INT64_MAX);
  auto r = Tokenize("SELECT 99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(Tokenize("9223372036854775808").ok());
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Lex("<= >= <> != :: ||");
  EXPECT_TRUE(tokens[0].IsOperator("<="));
  EXPECT_TRUE(tokens[1].IsOperator(">="));
  EXPECT_TRUE(tokens[2].IsOperator("<>"));
  EXPECT_TRUE(tokens[3].IsOperator("!="));
  EXPECT_TRUE(tokens[4].IsOperator("::"));
  EXPECT_TRUE(tokens[5].IsOperator("||"));
}

TEST(LexerTest, SingleCharOperators) {
  auto tokens = Lex("( ) , . ; + - * / % = < >");
  const char* expected[] = {"(", ")", ",", ".", ";", "+", "-",
                            "*", "/", "%", "=", "<", ">"};
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_TRUE(tokens[i].IsOperator(expected[i])) << i;
  }
}

TEST(LexerTest, LineComment) {
  auto tokens = Lex("select -- a comment\n1");
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].int_value, 1);
  EXPECT_EQ(tokens[2].type, TokenType::kEnd);
}

TEST(LexerTest, BlockComment) {
  auto tokens = Lex("a /* stuff\nmore */ b");
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, UnterminatedBlockComment) {
  EXPECT_FALSE(Tokenize("a /* oops").ok());
}

TEST(LexerTest, WindowClauseTokens) {
  auto tokens = Lex("<VISIBLE '5 minutes' ADVANCE '1 minute'>");
  EXPECT_TRUE(tokens[0].IsOperator("<"));
  EXPECT_TRUE(tokens[1].IsKeyword("visible"));
  EXPECT_EQ(tokens[2].type, TokenType::kString);
  EXPECT_TRUE(tokens[3].IsKeyword("advance"));
  EXPECT_TRUE(tokens[5].IsOperator(">"));
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = Lex("ab cd");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 3u);
}

TEST(LexerTest, UnexpectedCharacter) {
  auto r = Tokenize("select @");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace streamrel::sql
