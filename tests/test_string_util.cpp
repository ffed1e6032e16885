#include <gtest/gtest.h>

#include "util/string_util.hpp"

namespace hxrc::util {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\nx\r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, SingleField) {
  const auto parts = split("abc", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("AbC-123"), "abc-123");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("abc/def", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(ParseInt, StrictWholeString) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int(" 42 "), 42);  // trimmed
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(ParseDouble, StrictWholeString) {
  EXPECT_DOUBLE_EQ(*parse_double("4.25"), 4.25);
  EXPECT_DOUBLE_EQ(*parse_double("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*parse_double("100.000"), 100.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(IsBlank, WhitespaceOnly) {
  EXPECT_TRUE(is_blank(""));
  EXPECT_TRUE(is_blank(" \t\n"));
  EXPECT_FALSE(is_blank(" x "));
}

}  // namespace
}  // namespace hxrc::util
