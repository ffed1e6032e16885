#include "rel/sql/parser.hpp"

namespace hxrc::rel::sql {

AstExprPtr AstExpr::column_ref(std::string table, std::string column) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

AstExprPtr AstExpr::lit(Value value) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(value);
  return e;
}

AstExprPtr AstExpr::binary(BinOp op, AstExprPtr lhs, AstExprPtr rhs) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

AstExprPtr AstExpr::not_(AstExprPtr operand) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kNot;
  e->rhs = std::move(operand);
  return e;
}

AstExprPtr AstExpr::is_null(AstExprPtr operand, bool negated) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kIsNull;
  e->rhs = std::move(operand);
  e->negated = negated;
  return e;
}

AstExprPtr AstExpr::like_op(AstExprPtr operand, std::string pattern, bool negated) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kLike;
  e->rhs = std::move(operand);
  e->literal = Value(std::move(pattern));
  e->negated = negated;
  return e;
}

AstExprPtr AstExpr::in_op(AstExprPtr operand, std::vector<Value> values, bool negated) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kIn;
  e->rhs = std::move(operand);
  e->in_list = std::move(values);
  e->negated = negated;
  return e;
}

AstExprPtr AstExpr::aggregate(Aggregate::Fn fn, AstExprPtr arg, bool star, bool distinct) {
  auto e = std::make_unique<AstExpr>();
  e->kind = Kind::kAggregate;
  e->agg_fn = fn;
  e->agg_arg = std::move(arg);
  e->agg_star = star;
  e->agg_distinct = distinct;
  return e;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : tokens_(tokenize(input)) {}

  Statement parse() {
    Statement stmt = [&]() -> Statement {
      if (peek().is_keyword("SELECT")) return parse_select();
      if (peek().is_keyword("CREATE")) return parse_create();
      if (peek().is_keyword("INSERT")) return parse_insert();
      throw SqlError("expected SELECT, CREATE, or INSERT");
    }();
    consume_punct(";");
    if (peek().kind != Token::Kind::kEnd) throw SqlError("trailing tokens after statement");
    return stmt;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& advance() { return tokens_[pos_++]; }

  bool consume_keyword(std::string_view kw) {
    if (peek().is_keyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_punct(std::string_view p) {
    if (peek().is_punct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_keyword(std::string_view kw) {
    if (!consume_keyword(kw)) throw SqlError("expected " + std::string(kw));
  }

  void expect_punct(std::string_view p) {
    if (!consume_punct(p)) {
      throw SqlError("expected '" + std::string(p) + "', got '" + peek().text + "'");
    }
  }

  std::string expect_ident() {
    if (peek().kind != Token::Kind::kIdent) {
      throw SqlError("expected an identifier, got '" + peek().text + "'");
    }
    return advance().text;
  }

  // ---- expressions (precedence climbing) ----

  AstExprPtr parse_expr() { return parse_or(); }

  AstExprPtr parse_or() {
    AstExprPtr lhs = parse_and();
    while (consume_keyword("OR")) {
      lhs = AstExpr::binary(BinOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  AstExprPtr parse_and() {
    AstExprPtr lhs = parse_not();
    while (consume_keyword("AND")) {
      lhs = AstExpr::binary(BinOp::kAnd, std::move(lhs), parse_not());
    }
    return lhs;
  }

  AstExprPtr parse_not() {
    if (consume_keyword("NOT")) return AstExpr::not_(parse_not());
    return parse_comparison();
  }

  AstExprPtr parse_comparison() {
    AstExprPtr lhs = parse_additive();
    if (consume_keyword("IS")) {
      const bool negated = consume_keyword("NOT");
      expect_keyword("NULL");
      return AstExpr::is_null(std::move(lhs), negated);
    }
    {
      // [NOT] LIKE / [NOT] IN
      bool negated = false;
      std::size_t mark = pos_;
      if (consume_keyword("NOT")) negated = true;
      if (consume_keyword("LIKE")) {
        if (peek().kind != Token::Kind::kString) {
          throw SqlError("LIKE expects a string pattern");
        }
        std::string pattern = advance().text;
        return AstExpr::like_op(std::move(lhs), std::move(pattern), negated);
      }
      if (consume_keyword("IN")) {
        expect_punct("(");
        std::vector<Value> values;
        for (;;) {
          values.push_back(parse_literal_value());
          if (!consume_punct(",")) break;
        }
        expect_punct(")");
        return AstExpr::in_op(std::move(lhs), std::move(values), negated);
      }
      pos_ = mark;  // bare NOT belongs to parse_not, rewind
    }
    struct OpMap {
      std::string_view text;
      BinOp op;
    };
    static constexpr OpMap kOps[] = {
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"!=", BinOp::kNe},
        {"=", BinOp::kEq},  {"<", BinOp::kLt},  {">", BinOp::kGt},
    };
    for (const auto& [text, op] : kOps) {
      if (consume_punct(text)) {
        return AstExpr::binary(op, std::move(lhs), parse_additive());
      }
    }
    return lhs;
  }

  AstExprPtr parse_additive() {
    AstExprPtr lhs = parse_multiplicative();
    for (;;) {
      if (consume_punct("+")) {
        lhs = AstExpr::binary(BinOp::kAdd, std::move(lhs), parse_multiplicative());
      } else if (consume_punct("-")) {
        lhs = AstExpr::binary(BinOp::kSub, std::move(lhs), parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  AstExprPtr parse_multiplicative() {
    AstExprPtr lhs = parse_primary();
    for (;;) {
      if (consume_punct("*")) {
        lhs = AstExpr::binary(BinOp::kMul, std::move(lhs), parse_primary());
      } else if (consume_punct("/")) {
        lhs = AstExpr::binary(BinOp::kDiv, std::move(lhs), parse_primary());
      } else {
        return lhs;
      }
    }
  }

  AstExprPtr parse_primary() {
    const Token& token = peek();
    if (token.kind == Token::Kind::kInt) {
      ++pos_;
      return AstExpr::lit(Value(token.int_value));
    }
    if (token.kind == Token::Kind::kDouble) {
      ++pos_;
      return AstExpr::lit(Value(token.double_value));
    }
    if (token.kind == Token::Kind::kString) {
      ++pos_;
      return AstExpr::lit(Value(token.text));
    }
    if (token.is_keyword("NULL")) {
      ++pos_;
      return AstExpr::lit(Value::null());
    }
    if (consume_punct("-")) {  // unary minus on a numeric literal or expr
      AstExprPtr operand = parse_primary();
      return AstExpr::binary(BinOp::kSub, AstExpr::lit(Value(std::int64_t{0})),
                             std::move(operand));
    }
    if (consume_punct("(")) {
      AstExprPtr inner = parse_expr();
      expect_punct(")");
      return inner;
    }
    // Aggregates.
    if (token.is_keyword("COUNT") || token.is_keyword("SUM") || token.is_keyword("MIN") ||
        token.is_keyword("MAX")) {
      const std::string fn_name = advance().upper;
      expect_punct("(");
      bool star = false;
      bool distinct = false;
      AstExprPtr arg;
      if (consume_punct("*")) {
        star = true;
      } else {
        distinct = consume_keyword("DISTINCT");
        arg = parse_expr();
      }
      expect_punct(")");
      Aggregate::Fn fn;
      if (fn_name == "COUNT") {
        fn = distinct ? Aggregate::Fn::kCountDistinct : Aggregate::Fn::kCount;
      } else if (fn_name == "SUM") {
        fn = Aggregate::Fn::kSum;
      } else if (fn_name == "MIN") {
        fn = Aggregate::Fn::kMin;
      } else {
        fn = Aggregate::Fn::kMax;
      }
      if (fn_name == "COUNT" && !star && !distinct) fn = Aggregate::Fn::kCount;
      return AstExpr::aggregate(fn, std::move(arg), star, distinct);
    }
    if (token.kind == Token::Kind::kIdent) {
      std::string first = advance().text;
      if (consume_punct(".")) {
        std::string column = expect_ident();
        return AstExpr::column_ref(std::move(first), std::move(column));
      }
      return AstExpr::column_ref("", std::move(first));
    }
    throw SqlError("unexpected token '" + token.text + "' in expression");
  }

  /// A literal usable in IN lists and VALUES.
  Value parse_literal_value() {
    const Token& token = peek();
    if (token.kind == Token::Kind::kInt) {
      ++pos_;
      return Value(token.int_value);
    }
    if (token.kind == Token::Kind::kDouble) {
      ++pos_;
      return Value(token.double_value);
    }
    if (token.kind == Token::Kind::kString) {
      ++pos_;
      return Value(token.text);
    }
    if (token.is_keyword("NULL")) {
      ++pos_;
      return Value::null();
    }
    if (token.is_punct("-")) {
      ++pos_;
      const Token& num = peek();
      if (num.kind == Token::Kind::kInt) {
        ++pos_;
        return Value(-num.int_value);
      }
      if (num.kind == Token::Kind::kDouble) {
        ++pos_;
        return Value(-num.double_value);
      }
      throw SqlError("expected a number after '-'");
    }
    throw SqlError("expected a literal, got '" + token.text + "'");
  }

  // ---- statements ----

  TableRef parse_table_ref() {
    TableRef ref;
    ref.name = expect_ident();
    ref.alias = ref.name;
    if (consume_keyword("AS")) {
      ref.alias = expect_ident();
    } else if (peek().kind == Token::Kind::kIdent) {
      ref.alias = advance().text;
    }
    return ref;
  }

  SelectStmt parse_select() {
    expect_keyword("SELECT");
    SelectStmt stmt;
    stmt.distinct = consume_keyword("DISTINCT");
    // Select list.
    for (;;) {
      SelectItem item;
      if (consume_punct("*")) {
        item.star = true;
      } else {
        item.expr = parse_expr();
        if (consume_keyword("AS")) {
          item.alias = expect_ident();
        } else if (peek().kind == Token::Kind::kIdent) {
          item.alias = advance().text;
        }
      }
      stmt.items.push_back(std::move(item));
      if (!consume_punct(",")) break;
    }
    expect_keyword("FROM");
    stmt.from = parse_table_ref();
    // Joins.
    for (;;) {
      bool left_outer = false;
      if (consume_keyword("LEFT")) {
        consume_keyword("OUTER");
        expect_keyword("JOIN");
        left_outer = true;
      } else if (consume_keyword("INNER")) {
        expect_keyword("JOIN");
      } else if (!consume_keyword("JOIN")) {
        break;
      }
      JoinClause join;
      join.left_outer = left_outer;
      join.table = parse_table_ref();
      expect_keyword("ON");
      join.on = parse_expr();
      stmt.joins.push_back(std::move(join));
    }
    if (consume_keyword("WHERE")) stmt.where = parse_expr();
    if (consume_keyword("GROUP")) {
      expect_keyword("BY");
      for (;;) {
        stmt.group_by.push_back(parse_expr());
        if (!consume_punct(",")) break;
      }
    }
    if (consume_keyword("HAVING")) stmt.having = parse_expr();
    if (consume_keyword("ORDER")) {
      expect_keyword("BY");
      for (;;) {
        OrderItem item;
        item.expr = parse_expr();
        if (consume_keyword("DESC")) {
          item.descending = true;
        } else {
          consume_keyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!consume_punct(",")) break;
      }
    }
    if (consume_keyword("LIMIT")) {
      if (peek().kind != Token::Kind::kInt) throw SqlError("LIMIT expects an integer");
      stmt.limit = static_cast<std::size_t>(advance().int_value);
    }
    return stmt;
  }

  Statement parse_create() {
    expect_keyword("CREATE");
    if (consume_keyword("TABLE")) {
      CreateTableStmt stmt;
      stmt.name = expect_ident();
      expect_punct("(");
      for (;;) {
        Column column;
        column.name = expect_ident();
        const Token& type_token = peek();
        if (type_token.is_keyword("INT") || type_token.is_keyword("BIGINT")) {
          column.type = Type::kInt;
        } else if (type_token.is_keyword("DOUBLE")) {
          column.type = Type::kDouble;
        } else if (type_token.is_keyword("STRING") || type_token.is_keyword("TEXT") ||
                   type_token.is_keyword("VARCHAR")) {
          column.type = Type::kString;
        } else {
          throw SqlError("expected a column type, got '" + type_token.text + "'");
        }
        ++pos_;
        // Optional VARCHAR(n) length is accepted and ignored.
        if (consume_punct("(")) {
          if (peek().kind != Token::Kind::kInt) throw SqlError("expected a length");
          ++pos_;
          expect_punct(")");
        }
        stmt.columns.push_back(std::move(column));
        if (!consume_punct(",")) break;
      }
      expect_punct(")");
      return stmt;
    }
    expect_keyword("INDEX");
    CreateIndexStmt stmt;
    stmt.index_name = expect_ident();
    expect_keyword("ON");
    stmt.table_name = expect_ident();
    expect_punct("(");
    for (;;) {
      stmt.columns.push_back(expect_ident());
      if (!consume_punct(",")) break;
    }
    expect_punct(")");
    return stmt;
  }

  InsertStmt parse_insert() {
    expect_keyword("INSERT");
    expect_keyword("INTO");
    InsertStmt stmt;
    stmt.table_name = expect_ident();
    if (consume_punct("(")) {
      for (;;) {
        stmt.columns.push_back(expect_ident());
        if (!consume_punct(",")) break;
      }
      expect_punct(")");
    }
    expect_keyword("VALUES");
    for (;;) {
      expect_punct("(");
      std::vector<Value> row;
      for (;;) {
        const Token& token = peek();
        if (token.kind == Token::Kind::kInt) {
          row.emplace_back(token.int_value);
          ++pos_;
        } else if (token.kind == Token::Kind::kDouble) {
          row.emplace_back(token.double_value);
          ++pos_;
        } else if (token.kind == Token::Kind::kString) {
          row.emplace_back(token.text);
          ++pos_;
        } else if (token.is_keyword("NULL")) {
          row.emplace_back(Value::null());
          ++pos_;
        } else if (token.is_punct("-")) {
          ++pos_;
          const Token& num = peek();
          if (num.kind == Token::Kind::kInt) {
            row.emplace_back(-num.int_value);
          } else if (num.kind == Token::Kind::kDouble) {
            row.emplace_back(-num.double_value);
          } else {
            throw SqlError("expected a number after '-'");
          }
          ++pos_;
        } else {
          throw SqlError("expected a literal in VALUES, got '" + token.text + "'");
        }
        if (!consume_punct(",")) break;
      }
      expect_punct(")");
      stmt.rows.push_back(std::move(row));
      if (!consume_punct(",")) break;
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Statement parse_statement(std::string_view input) {
  Parser parser(input);
  return parser.parse();
}

}  // namespace hxrc::rel::sql
