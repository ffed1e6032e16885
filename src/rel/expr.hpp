// Scalar expression trees evaluated against rows.
//
// Shared by the operator library (filter predicates) and the SQL planner
// (WHERE/HAVING/select expressions). Expressions are immutable and shared
// via shared_ptr so plans can reuse subtrees.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rel/value.hpp"

namespace hxrc::rel {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,  // comparisons -> INT 0/1 (NULL-propagating)
  kAnd, kOr,                     // three-valued logic
  kAdd, kSub, kMul, kDiv,        // arithmetic
};

class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against a row; NULL operands propagate (SQL semantics).
  virtual Value eval(const Row& row) const = 0;

  /// eval() interpreted as a predicate: NULL and 0 are false.
  bool eval_bool(const Row& row) const {
    const Value v = eval(row);
    if (v.is_null()) return false;
    if (v.type() == Type::kInt) return v.as_int() != 0;
    if (v.type() == Type::kDouble) return v.as_double() != 0.0;
    return !v.as_string().empty();
  }

  virtual std::string describe() const = 0;
};

/// Builders.
ExprPtr col(std::size_t index, std::string name = {});
ExprPtr lit(Value value);
ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr not_(ExprPtr operand);
ExprPtr is_null(ExprPtr operand);

/// SQL LIKE: '%' matches any run, '_' any single character. NULL operand
/// yields NULL. Non-string operands are rendered via Value::to_string.
ExprPtr like(ExprPtr operand, std::string pattern);

/// The LIKE pattern matcher itself (exposed for reuse and direct testing).
bool like_match(std::string_view text, std::string_view pattern) noexcept;

inline ExprPtr eq(ExprPtr a, ExprPtr b) { return binary(BinOp::kEq, std::move(a), std::move(b)); }
inline ExprPtr ne(ExprPtr a, ExprPtr b) { return binary(BinOp::kNe, std::move(a), std::move(b)); }
inline ExprPtr lt(ExprPtr a, ExprPtr b) { return binary(BinOp::kLt, std::move(a), std::move(b)); }
inline ExprPtr le(ExprPtr a, ExprPtr b) { return binary(BinOp::kLe, std::move(a), std::move(b)); }
inline ExprPtr gt(ExprPtr a, ExprPtr b) { return binary(BinOp::kGt, std::move(a), std::move(b)); }
inline ExprPtr ge(ExprPtr a, ExprPtr b) { return binary(BinOp::kGe, std::move(a), std::move(b)); }
inline ExprPtr and_(ExprPtr a, ExprPtr b) {
  return binary(BinOp::kAnd, std::move(a), std::move(b));
}
inline ExprPtr or_(ExprPtr a, ExprPtr b) {
  return binary(BinOp::kOr, std::move(a), std::move(b));
}

/// Conjunction of a (possibly empty) list; empty list means "true".
ExprPtr conjunction(std::vector<ExprPtr> terms);

}  // namespace hxrc::rel
