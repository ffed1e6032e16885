// Abstract syntax tree for the SQL subset.
//
// The engine speaks the slice of SQL a metadata catalog needs:
//   CREATE TABLE t (col TYPE, ...)
//   CREATE INDEX name ON t (cols)  (a hash index: equality probes only)
//   INSERT INTO t [(cols)] VALUES (...), (...)
//   SELECT items FROM t [alias] [JOIN u [alias] ON cond]... [WHERE cond]
//     [GROUP BY cols] [HAVING cond] [ORDER BY items [ASC|DESC]] [LIMIT n]
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "rel/expr.hpp"
#include "rel/ops.hpp"
#include "rel/value.hpp"

namespace hxrc::rel::sql {

struct AstExpr;
using AstExprPtr = std::unique_ptr<AstExpr>;

/// Untyped expression prior to name resolution.
struct AstExpr {
  enum class Kind { kColumnRef, kLiteral, kBinary, kNot, kIsNull, kAggregate, kLike, kIn };

  Kind kind = Kind::kLiteral;

  // kColumnRef
  std::string table;   // optional qualifier
  std::string column;

  // kLiteral; also the pattern for kLike
  Value literal;

  // kBinary / kNot / kIsNull / kLike / kIn
  BinOp op = BinOp::kEq;
  AstExprPtr lhs;
  AstExprPtr rhs;     // also the operand of kNot / kIsNull / kLike / kIn
  bool negated = false;  // IS NOT NULL / NOT LIKE / NOT IN

  // kIn
  std::vector<Value> in_list;

  // kAggregate
  Aggregate::Fn agg_fn = Aggregate::Fn::kCount;
  bool agg_star = false;      // COUNT(*)
  bool agg_distinct = false;  // COUNT(DISTINCT x)
  AstExprPtr agg_arg;

  static AstExprPtr column_ref(std::string table, std::string column);
  static AstExprPtr lit(Value value);
  static AstExprPtr binary(BinOp op, AstExprPtr lhs, AstExprPtr rhs);
  static AstExprPtr not_(AstExprPtr operand);
  static AstExprPtr is_null(AstExprPtr operand, bool negated);
  static AstExprPtr aggregate(Aggregate::Fn fn, AstExprPtr arg, bool star, bool distinct);
  static AstExprPtr like_op(AstExprPtr operand, std::string pattern, bool negated);
  static AstExprPtr in_op(AstExprPtr operand, std::vector<Value> values, bool negated);
};

struct SelectItem {
  bool star = false;  // SELECT *
  AstExprPtr expr;
  std::optional<std::string> alias;
};

struct TableRef {
  std::string name;
  std::string alias;  // defaults to name
};

struct JoinClause {
  TableRef table;
  AstExprPtr on;
  bool left_outer = false;
};

struct OrderItem {
  AstExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  AstExprPtr where;
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<std::size_t> limit;
  bool distinct = false;
};

struct CreateTableStmt {
  std::string name;
  std::vector<Column> columns;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table_name;
  std::vector<std::string> columns;
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::string> columns;  // empty = positional
  std::vector<std::vector<Value>> rows;
};

using Statement = std::variant<SelectStmt, CreateTableStmt, CreateIndexStmt, InsertStmt>;

}  // namespace hxrc::rel::sql
