#include <gtest/gtest.h>

#include "rel/expr.hpp"

namespace hxrc::rel {
namespace {

const Row kRow{Value(std::int64_t{5}), Value("abc"), Value(2.5), Value::null()};

TEST(Expr, ColumnAndConst) {
  EXPECT_EQ(col(0)->eval(kRow).as_int(), 5);
  EXPECT_EQ(lit(Value("x"))->eval(kRow).as_string(), "x");
}

TEST(Expr, Comparisons) {
  EXPECT_EQ(eq(col(0), lit(Value(std::int64_t{5})))->eval(kRow).as_int(), 1);
  EXPECT_EQ(eq(col(0), lit(Value(5.0)))->eval(kRow).as_int(), 1);  // cross-type
  EXPECT_EQ(ne(col(0), lit(Value(std::int64_t{5})))->eval(kRow).as_int(), 0);
  EXPECT_EQ(lt(col(2), lit(Value(3.0)))->eval(kRow).as_int(), 1);
  EXPECT_EQ(le(col(2), lit(Value(2.5)))->eval(kRow).as_int(), 1);
  EXPECT_EQ(gt(col(1), lit(Value("abb")))->eval(kRow).as_int(), 1);
  EXPECT_EQ(ge(col(1), lit(Value("abc")))->eval(kRow).as_int(), 1);
}

TEST(Expr, NullPropagatesThroughComparisons) {
  EXPECT_TRUE(eq(col(3), lit(Value(std::int64_t{1})))->eval(kRow).is_null());
  EXPECT_FALSE(eq(col(3), lit(Value(std::int64_t{1})))->eval_bool(kRow));
}

TEST(Expr, ThreeValuedAnd) {
  const auto t = lit(Value(std::int64_t{1}));
  const auto f = lit(Value(std::int64_t{0}));
  const auto n = lit(Value::null());
  EXPECT_EQ(and_(t, t)->eval(kRow).as_int(), 1);
  EXPECT_EQ(and_(t, f)->eval(kRow).as_int(), 0);
  EXPECT_EQ(and_(f, n)->eval(kRow).as_int(), 0);   // false AND unknown = false
  EXPECT_TRUE(and_(t, n)->eval(kRow).is_null());   // true AND unknown = unknown
}

TEST(Expr, ThreeValuedOr) {
  const auto t = lit(Value(std::int64_t{1}));
  const auto f = lit(Value(std::int64_t{0}));
  const auto n = lit(Value::null());
  EXPECT_EQ(or_(f, t)->eval(kRow).as_int(), 1);
  EXPECT_EQ(or_(t, n)->eval(kRow).as_int(), 1);    // true OR unknown = true
  EXPECT_TRUE(or_(f, n)->eval(kRow).is_null());    // false OR unknown = unknown
  EXPECT_EQ(or_(f, f)->eval(kRow).as_int(), 0);
}

TEST(Expr, NotAndIsNull) {
  EXPECT_EQ(not_(lit(Value(std::int64_t{0})))->eval(kRow).as_int(), 1);
  EXPECT_TRUE(not_(lit(Value::null()))->eval(kRow).is_null());
  EXPECT_EQ(is_null(col(3))->eval(kRow).as_int(), 1);
  EXPECT_EQ(is_null(col(0))->eval(kRow).as_int(), 0);
}

TEST(Expr, Arithmetic) {
  const auto two = lit(Value(std::int64_t{2}));
  EXPECT_EQ(binary(BinOp::kAdd, col(0), two)->eval(kRow).as_int(), 7);
  EXPECT_EQ(binary(BinOp::kSub, col(0), two)->eval(kRow).as_int(), 3);
  EXPECT_EQ(binary(BinOp::kMul, col(0), two)->eval(kRow).as_int(), 10);
  EXPECT_DOUBLE_EQ(binary(BinOp::kDiv, col(0), two)->eval(kRow).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(binary(BinOp::kAdd, col(2), two)->eval(kRow).as_double(), 4.5);
}

TEST(Expr, StringConcatenationViaAdd) {
  EXPECT_EQ(binary(BinOp::kAdd, col(1), lit(Value("!")))->eval(kRow).as_string(), "abc!");
}

TEST(Expr, ArithmeticTypeErrors) {
  EXPECT_THROW(binary(BinOp::kMul, col(1), lit(Value(std::int64_t{2})))->eval(kRow),
               TypeError);
}

TEST(Expr, EvalBoolSemantics) {
  EXPECT_TRUE(lit(Value(std::int64_t{2}))->eval_bool(kRow));
  EXPECT_FALSE(lit(Value(std::int64_t{0}))->eval_bool(kRow));
  EXPECT_TRUE(lit(Value(0.5))->eval_bool(kRow));
  EXPECT_FALSE(lit(Value(0.0))->eval_bool(kRow));
  EXPECT_TRUE(lit(Value("x"))->eval_bool(kRow));
  EXPECT_FALSE(lit(Value(""))->eval_bool(kRow));
  EXPECT_FALSE(lit(Value::null())->eval_bool(kRow));
}

TEST(Expr, ConjunctionBuilder) {
  EXPECT_TRUE(conjunction({})->eval_bool(kRow));
  const auto both = conjunction({gt(col(0), lit(Value(std::int64_t{1}))),
                                 eq(col(1), lit(Value("abc")))});
  EXPECT_TRUE(both->eval_bool(kRow));
}

TEST(Expr, Describe) {
  EXPECT_EQ(eq(col(0, "id"), lit(Value(std::int64_t{5})))->describe(), "(id = 5)");
}

}  // namespace
}  // namespace hxrc::rel
