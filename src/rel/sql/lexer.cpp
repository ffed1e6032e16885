#include "rel/sql/lexer.hpp"

#include <cctype>
#include <unordered_set>

#include "util/string_util.hpp"

namespace hxrc::rel::sql {

namespace {

const std::unordered_set<std::string>& keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",     "HAVING", "ORDER",
      "LIMIT",  "JOIN",  "LEFT",   "OUTER",  "INNER",  "ON",     "AS",
      "AND",    "OR",    "NOT",    "IS",     "NULL",   "ASC",    "DESC",
      "LIKE",   "IN",
      "CREATE", "TABLE", "INDEX",  "INSERT", "INTO",   "VALUES",
      "COUNT",  "SUM",   "MIN",    "MAX",    "DISTINCT", "INT",  "DOUBLE",
      "STRING", "TEXT",  "BIGINT", "VARCHAR",
  };
  return kKeywords;
}

}  // namespace

std::vector<Token> tokenize(std::string_view input) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const auto n = input.size();

  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments: -- to end of line.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      Token token;
      token.text = std::string(input.substr(start, i - start));
      token.upper = util::to_lower(token.text);
      for (auto& ch : token.upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      token.kind = keywords().count(token.upper) != 0 ? Token::Kind::kKeyword
                                                      : Token::Kind::kIdent;
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      const std::size_t start = i;
      bool is_double = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
                       ((input[i] == '+' || input[i] == '-') && i > start &&
                        (input[i - 1] == 'e' || input[i - 1] == 'E')))) {
        if (input[i] == '.' || input[i] == 'e' || input[i] == 'E') is_double = true;
        ++i;
      }
      const std::string_view text = input.substr(start, i - start);
      Token token;
      token.text = std::string(text);
      if (is_double) {
        const auto value = util::parse_double(text);
        if (!value) throw SqlError("bad numeric literal '" + token.text + "'");
        token.kind = Token::Kind::kDouble;
        token.double_value = *value;
      } else {
        const auto value = util::parse_int(text);
        if (!value) throw SqlError("bad integer literal '" + token.text + "'");
        token.kind = Token::Kind::kInt;
        token.int_value = *value;
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string body;
      for (;;) {
        if (i >= n) throw SqlError("unterminated string literal");
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote
            body.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        body.push_back(input[i]);
        ++i;
      }
      Token token;
      token.kind = Token::Kind::kString;
      token.text = std::move(body);
      tokens.push_back(std::move(token));
      continue;
    }
    // Multi-char punctuation first.
    static constexpr std::string_view kTwoChar[] = {"<=", ">=", "!=", "<>"};
    bool matched = false;
    for (const auto p : kTwoChar) {
      if (input.substr(i, 2) == p) {
        Token token;
        token.kind = Token::Kind::kPunct;
        token.text = std::string(p == "<>" ? "!=" : p);
        tokens.push_back(std::move(token));
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static constexpr std::string_view kOneChar = "(),.*=<>+-/;";
    if (kOneChar.find(c) != std::string_view::npos) {
      Token token;
      token.kind = Token::Kind::kPunct;
      token.text = std::string(1, c);
      tokens.push_back(std::move(token));
      ++i;
      continue;
    }
    throw SqlError(std::string("unexpected character '") + c + "' in SQL input");
  }

  tokens.push_back(Token{});  // kEnd sentinel
  return tokens;
}

}  // namespace hxrc::rel::sql
