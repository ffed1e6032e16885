#include <gtest/gtest.h>

#include "rel/interner.hpp"
#include "rel/value.hpp"

namespace hxrc::rel {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), Type::kNull);
  EXPECT_EQ(Value(std::int64_t{5}).type(), Type::kInt);
  EXPECT_EQ(Value(2.5).type(), Type::kDouble);
  EXPECT_EQ(Value("s").type(), Type::kString);

  EXPECT_EQ(Value(std::int64_t{5}).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{5}).as_double(), 5.0);  // widening
  EXPECT_EQ(Value("s").as_string(), "s");
}

TEST(Value, AccessorMismatchThrows) {
  EXPECT_THROW(Value("s").as_int(), TypeError);
  EXPECT_THROW(Value(1.0).as_int(), TypeError);
  EXPECT_THROW(Value("s").as_double(), TypeError);
  EXPECT_THROW(Value(std::int64_t{1}).as_string(), TypeError);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value().to_string(), "NULL");
  EXPECT_EQ(Value(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(Value(2.5).to_string(), "2.5");
  EXPECT_EQ(Value(1000.0).to_string(), "1000");
  EXPECT_EQ(Value("x").to_string(), "x");
}

TEST(Value, CompareNumericCrossType) {
  EXPECT_EQ(Value(std::int64_t{5}).compare(Value(5.0)), 0);
  EXPECT_LT(Value(std::int64_t{4}).compare(Value(4.5)), 0);
  EXPECT_GT(Value(5.5).compare(Value(std::int64_t{5})), 0);
}

TEST(Value, CompareOrderingAcrossKinds) {
  // NULL < numerics < strings.
  EXPECT_LT(Value().compare(Value(std::int64_t{0})), 0);
  EXPECT_LT(Value(std::int64_t{99}).compare(Value("0")), 0);
  EXPECT_GT(Value("a").compare(Value(1e300)), 0);
}

TEST(Value, SqlEqualsTreatsNullAsUnknown) {
  EXPECT_FALSE(Value().sql_equals(Value()));
  EXPECT_FALSE(Value().sql_equals(Value(std::int64_t{1})));
  EXPECT_TRUE(Value(std::int64_t{1}).sql_equals(Value(1.0)));
}

TEST(Value, StructuralEquality) {
  EXPECT_TRUE(Value() == Value());
  EXPECT_TRUE(Value(std::int64_t{3}) == Value(3.0));
  EXPECT_FALSE(Value("3") == Value(3.0));
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value(std::int64_t{3}).hash(), Value(3.0).hash());
  EXPECT_EQ(Value("abc").hash(), Value("abc").hash());
}

TEST(Key, EqualityAndHash) {
  const Key a{{Value(std::int64_t{1}), Value("x")}};
  const Key b{{Value(std::int64_t{1}), Value("x")}};
  EXPECT_TRUE(a == b);
  EXPECT_EQ(KeyHash{}(a), KeyHash{}(b));
}

TEST(TableSchema, NameResolution) {
  const TableSchema schema{{"a", Type::kInt}, {"b", Type::kString}};
  EXPECT_EQ(schema.index_of("b"), 1u);
  EXPECT_FALSE(schema.index_of("z").has_value());
  EXPECT_EQ(schema.require("a"), 0u);
  EXPECT_THROW(schema.require("z"), TypeError);
}

TEST(TypeCompatibility, Rules) {
  EXPECT_TRUE(type_compatible(Type::kInt, Value::null()));
  EXPECT_TRUE(type_compatible(Type::kInt, Value(std::int64_t{1})));
  EXPECT_FALSE(type_compatible(Type::kInt, Value(1.5)));
  EXPECT_TRUE(type_compatible(Type::kDouble, Value(std::int64_t{1})));  // widening
  EXPECT_TRUE(type_compatible(Type::kDouble, Value(1.5)));
  EXPECT_FALSE(type_compatible(Type::kString, Value(1.5)));
  EXPECT_TRUE(type_compatible(Type::kString, Value("x")));
}


TEST(Interner, DeduplicatesAndKeepsPointersStable) {
  Interner interner;
  const std::string* a = interner.intern("alpha");
  const std::string* b = interner.intern("beta");
  // Force storage growth, then re-intern: same pointer back.
  for (int i = 0; i < 1000; ++i) interner.intern("s" + std::to_string(i));
  EXPECT_EQ(interner.intern("alpha"), a);
  EXPECT_EQ(interner.intern("beta"), b);
  EXPECT_EQ(*a, "alpha");
  EXPECT_EQ(interner.size(), 1002u);
  EXPECT_GT(interner.approx_bytes(), 0u);
}

TEST(Value, InternedBehavesLikeOwnedString) {
  Interner interner;
  const Value interned = Value::interned(interner.intern("hello"));
  const Value owned = Value("hello");

  EXPECT_EQ(interned.type(), Type::kString);
  EXPECT_TRUE(interned.is_interned());
  EXPECT_FALSE(owned.is_interned());
  EXPECT_EQ(interned.as_string(), "hello");
  EXPECT_EQ(interned.to_string(), owned.to_string());

  // Mixed-representation equality, ordering, and hashing all agree — rows
  // holding interned and owned copies of a string share index buckets.
  EXPECT_TRUE(interned == owned);
  EXPECT_FALSE(interned < owned);
  EXPECT_FALSE(owned < interned);
  EXPECT_EQ(interned.hash(), owned.hash());

  const Value other = Value("world");
  EXPECT_FALSE(interned == other);
  EXPECT_TRUE(interned < other);
}

TEST(Value, InternedPointerEqualityFastPath) {
  Interner interner;
  const Value a = Value::interned(interner.intern("same"));
  const Value b = Value::interned(interner.intern("same"));
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.compare(b), 0);
  EXPECT_EQ(a.hash(), b.hash());
}

}  // namespace
}  // namespace hxrc::rel
