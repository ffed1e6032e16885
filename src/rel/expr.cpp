#include "rel/expr.hpp"

namespace hxrc::rel {

namespace {

class ColumnExpr final : public Expr {
 public:
  ColumnExpr(std::size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Value eval(const Row& row) const override { return row.at(index_); }

  std::string describe() const override {
    return name_.empty() ? "$" + std::to_string(index_) : name_;
  }

 private:
  std::size_t index_;
  std::string name_;
};

class ConstExpr final : public Expr {
 public:
  explicit ConstExpr(Value value) : value_(std::move(value)) {}

  Value eval(const Row&) const override { return value_; }
  std::string describe() const override { return value_.to_string(); }

 private:
  Value value_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value eval(const Row& row) const override {
    const Value a = lhs_->eval(row);

    // Short-circuit three-valued AND/OR.
    if (op_ == BinOp::kAnd || op_ == BinOp::kOr) {
      const bool a_known = !a.is_null();
      const bool a_true = a_known && truthy(a);
      if (op_ == BinOp::kAnd && a_known && !a_true) return Value(std::int64_t{0});
      if (op_ == BinOp::kOr && a_true) return Value(std::int64_t{1});
      const Value b = rhs_->eval(row);
      const bool b_known = !b.is_null();
      const bool b_true = b_known && truthy(b);
      if (op_ == BinOp::kAnd) {
        if (b_known && !b_true) return Value(std::int64_t{0});
        if (a_known && b_known) return Value(std::int64_t{1});
        return Value::null();
      }
      if (b_true) return Value(std::int64_t{1});
      if (a_known && b_known) return Value(std::int64_t{0});
      return Value::null();
    }

    const Value b = rhs_->eval(row);
    if (a.is_null() || b.is_null()) return Value::null();

    switch (op_) {
      case BinOp::kEq: return Value(std::int64_t{a.compare(b) == 0});
      case BinOp::kNe: return Value(std::int64_t{a.compare(b) != 0});
      case BinOp::kLt: return Value(std::int64_t{a.compare(b) < 0});
      case BinOp::kLe: return Value(std::int64_t{a.compare(b) <= 0});
      case BinOp::kGt: return Value(std::int64_t{a.compare(b) > 0});
      case BinOp::kGe: return Value(std::int64_t{a.compare(b) >= 0});
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv: return arith(a, b);
      default: return Value::null();
    }
  }

  std::string describe() const override {
    return "(" + lhs_->describe() + " " + op_name() + " " + rhs_->describe() + ")";
  }

 private:
  static bool truthy(const Value& v) noexcept {
    switch (v.type()) {
      case Type::kInt: return v.as_int() != 0;
      case Type::kDouble: return v.as_double() != 0.0;
      case Type::kString: return !v.as_string().empty();
      default: return false;
    }
  }

  Value arith(const Value& a, const Value& b) const {
    if (!a.is_numeric() || !b.is_numeric()) {
      if (op_ == BinOp::kAdd && a.type() == Type::kString && b.type() == Type::kString) {
        return Value(a.as_string() + b.as_string());  // string concatenation
      }
      throw TypeError("arithmetic on non-numeric values");
    }
    if (a.type() == Type::kInt && b.type() == Type::kInt && op_ != BinOp::kDiv) {
      const auto x = a.as_int();
      const auto y = b.as_int();
      switch (op_) {
        case BinOp::kAdd: return Value(x + y);
        case BinOp::kSub: return Value(x - y);
        case BinOp::kMul: return Value(x * y);
        default: break;
      }
    }
    const double x = a.as_double();
    const double y = b.as_double();
    switch (op_) {
      case BinOp::kAdd: return Value(x + y);
      case BinOp::kSub: return Value(x - y);
      case BinOp::kMul: return Value(x * y);
      case BinOp::kDiv: return Value(x / y);
      default: return Value::null();
    }
  }

  const char* op_name() const noexcept {
    switch (op_) {
      case BinOp::kEq: return "=";
      case BinOp::kNe: return "!=";
      case BinOp::kLt: return "<";
      case BinOp::kLe: return "<=";
      case BinOp::kGt: return ">";
      case BinOp::kGe: return ">=";
      case BinOp::kAnd: return "AND";
      case BinOp::kOr: return "OR";
      case BinOp::kAdd: return "+";
      case BinOp::kSub: return "-";
      case BinOp::kMul: return "*";
      case BinOp::kDiv: return "/";
    }
    return "?";
  }

  BinOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}

  Value eval(const Row& row) const override {
    const Value v = operand_->eval(row);
    if (v.is_null()) return Value::null();
    return Value(std::int64_t{operand_->eval_bool(row) ? 0 : 1});
  }

  std::string describe() const override { return "NOT " + operand_->describe(); }

 private:
  ExprPtr operand_;
};

class IsNullExpr final : public Expr {
 public:
  explicit IsNullExpr(ExprPtr operand) : operand_(std::move(operand)) {}

  Value eval(const Row& row) const override {
    return Value(std::int64_t{operand_->eval(row).is_null() ? 1 : 0});
  }

  std::string describe() const override { return operand_->describe() + " IS NULL"; }

 private:
  ExprPtr operand_;
};

class LikeExpr final : public Expr {
 public:
  LikeExpr(ExprPtr operand, std::string pattern)
      : operand_(std::move(operand)), pattern_(std::move(pattern)) {}

  Value eval(const Row& row) const override {
    const Value v = operand_->eval(row);
    if (v.is_null()) return Value::null();
    return Value(std::int64_t{like_match(v.to_string(), pattern_) ? 1 : 0});
  }

  std::string describe() const override {
    return "(" + operand_->describe() + " LIKE '" + pattern_ + "')";
  }

 private:
  ExprPtr operand_;
  std::string pattern_;
};

}  // namespace

bool like_match(std::string_view text, std::string_view pattern) noexcept {
  // Iterative two-pointer matcher with backtracking over the last '%'.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

ExprPtr like(ExprPtr operand, std::string pattern) {
  return std::make_shared<LikeExpr>(std::move(operand), std::move(pattern));
}

ExprPtr col(std::size_t index, std::string name) {
  return std::make_shared<ColumnExpr>(index, std::move(name));
}

ExprPtr lit(Value value) { return std::make_shared<ConstExpr>(std::move(value)); }

ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr not_(ExprPtr operand) { return std::make_shared<NotExpr>(std::move(operand)); }

ExprPtr is_null(ExprPtr operand) { return std::make_shared<IsNullExpr>(std::move(operand)); }

ExprPtr conjunction(std::vector<ExprPtr> terms) {
  if (terms.empty()) return lit(Value(std::int64_t{1}));
  ExprPtr acc = terms.front();
  for (std::size_t i = 1; i < terms.size(); ++i) {
    acc = and_(std::move(acc), std::move(terms[i]));
  }
  return acc;
}

}  // namespace hxrc::rel
