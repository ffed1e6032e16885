// The SQL front end: lexer, parser, and end-to-end execution.
#include <gtest/gtest.h>

#include "rel/database.hpp"
#include "rel/sql/lexer.hpp"
#include "rel/sql/parser.hpp"

namespace hxrc::rel {
namespace {

TEST(Lexer, TokenKinds) {
  const auto tokens = sql::tokenize("SELECT x, 'str''ing', 4.5, 42 FROM t -- comment");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_TRUE(tokens[0].is_keyword("SELECT"));
  EXPECT_EQ(tokens[1].kind, sql::Token::Kind::kIdent);
  EXPECT_EQ(tokens[3].kind, sql::Token::Kind::kString);
  EXPECT_EQ(tokens[3].text, "str'ing");
  EXPECT_EQ(tokens[5].kind, sql::Token::Kind::kDouble);
  EXPECT_DOUBLE_EQ(tokens[5].double_value, 4.5);
  EXPECT_EQ(tokens[7].kind, sql::Token::Kind::kInt);
}

TEST(Lexer, MultiCharOperators) {
  const auto tokens = sql::tokenize("a <= b >= c != d <> e");
  EXPECT_TRUE(tokens[1].is_punct("<="));
  EXPECT_TRUE(tokens[3].is_punct(">="));
  EXPECT_TRUE(tokens[5].is_punct("!="));
  EXPECT_TRUE(tokens[7].is_punct("!="));  // <> normalizes
}

TEST(Lexer, Errors) {
  EXPECT_THROW(sql::tokenize("SELECT 'unterminated"), sql::SqlError);
  EXPECT_THROW(sql::tokenize("SELECT @"), sql::SqlError);
}

TEST(Parser, SelectShape) {
  const auto stmt = sql::parse_statement(
      "SELECT a.x AS col, COUNT(*) FROM t a JOIN u ON a.id = u.id "
      "WHERE a.x > 5 GROUP BY a.x HAVING COUNT(*) > 1 ORDER BY col DESC LIMIT 3;");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  EXPECT_EQ(select.items.size(), 2u);
  EXPECT_EQ(*select.items[0].alias, "col");
  EXPECT_EQ(select.from.alias, "a");
  ASSERT_EQ(select.joins.size(), 1u);
  EXPECT_TRUE(select.where != nullptr);
  EXPECT_EQ(select.group_by.size(), 1u);
  EXPECT_TRUE(select.having != nullptr);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 3u);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_THROW(sql::parse_statement("SELECT"), sql::SqlError);
  EXPECT_THROW(sql::parse_statement("SELECT x FROM"), sql::SqlError);
  EXPECT_THROW(sql::parse_statement("BOGUS things"), sql::SqlError);
  EXPECT_THROW(sql::parse_statement("SELECT x FROM t WHERE"), sql::SqlError);
  EXPECT_THROW(sql::parse_statement("SELECT x FROM t extra junk"), sql::SqlError);
}

class SqlEndToEnd : public ::testing::Test {
 protected:
  SqlEndToEnd() {
    db_.execute("CREATE TABLE emp (id INT, name STRING, dept INT, salary DOUBLE)");
    db_.execute("CREATE TABLE dept (id INT, dname STRING)");
    db_.execute(
        "INSERT INTO emp VALUES (1,'ann',10,100.0),(2,'bob',10,80.0),"
        "(3,'cid',20,120.0),(4,'dee',20,90.0),(5,'eve',NULL,70.0)");
    db_.execute("INSERT INTO dept VALUES (10,'storms'),(20,'grids'),(30,'empty')");
  }
  Database db_;
};

TEST_F(SqlEndToEnd, SelectStar) {
  const ResultSet result = db_.execute("SELECT * FROM emp");
  EXPECT_EQ(result.size(), 5u);
  EXPECT_EQ(result.schema.size(), 4u);
}

TEST_F(SqlEndToEnd, WhereAndProjection) {
  const ResultSet result =
      db_.execute("SELECT name FROM emp WHERE salary >= 90 AND dept = 20");
  ASSERT_EQ(result.size(), 2u);
}

TEST_F(SqlEndToEnd, OrderByAndLimit) {
  const ResultSet result =
      db_.execute("SELECT name FROM emp ORDER BY salary DESC LIMIT 2");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.rows[0][0].as_string(), "cid");
  EXPECT_EQ(result.rows[1][0].as_string(), "ann");
}

TEST_F(SqlEndToEnd, EquiJoin) {
  const ResultSet result = db_.execute(
      "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id ORDER BY e.name");
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result.rows[0][0].as_string(), "ann");
  EXPECT_EQ(result.rows[0][1].as_string(), "storms");
}

TEST_F(SqlEndToEnd, LeftJoinKeepsUnmatched) {
  const ResultSet result = db_.execute(
      "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept = d.id");
  EXPECT_EQ(result.size(), 5u);
}

TEST_F(SqlEndToEnd, GroupByWithAggregates) {
  const ResultSet result = db_.execute(
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, MIN(salary) AS lo, "
      "MAX(salary) AS hi FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.rows[0][0].as_int(), 10);
  EXPECT_EQ(result.rows[0][1].as_int(), 2);
  EXPECT_DOUBLE_EQ(result.rows[0][2].as_double(), 180.0);
  EXPECT_DOUBLE_EQ(result.rows[0][3].as_double(), 80.0);
  EXPECT_DOUBLE_EQ(result.rows[0][4].as_double(), 100.0);
}

TEST_F(SqlEndToEnd, Having) {
  const ResultSet result = db_.execute(
      "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING COUNT(*) > 1");
  EXPECT_EQ(result.size(), 2u);
}

TEST_F(SqlEndToEnd, GlobalAggregate) {
  const ResultSet result = db_.execute("SELECT COUNT(*), MAX(salary) FROM emp");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int(), 5);
  EXPECT_DOUBLE_EQ(result.rows[0][1].as_double(), 120.0);
}

TEST_F(SqlEndToEnd, CountDistinct) {
  const ResultSet result = db_.execute("SELECT COUNT(DISTINCT dept) FROM emp");
  EXPECT_EQ(result.rows[0][0].as_int(), 2);
}

TEST_F(SqlEndToEnd, SelectDistinct) {
  const ResultSet result = db_.execute("SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL");
  EXPECT_EQ(result.size(), 2u);
}

TEST_F(SqlEndToEnd, ArithmeticInSelect) {
  const ResultSet result =
      db_.execute("SELECT salary * 2 AS twice FROM emp WHERE id = 1");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][0].as_double(), 200.0);
}

TEST_F(SqlEndToEnd, IsNullPredicates) {
  EXPECT_EQ(db_.execute("SELECT id FROM emp WHERE dept IS NULL").size(), 1u);
  EXPECT_EQ(db_.execute("SELECT id FROM emp WHERE dept IS NOT NULL").size(), 4u);
}

TEST_F(SqlEndToEnd, NonEquiJoinFallsBackToFilter) {
  const ResultSet result = db_.execute(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id AND e.salary > 90");
  EXPECT_EQ(result.size(), 2u);  // ann (100, storms), cid (120, grids)
}

TEST_F(SqlEndToEnd, CreateIndexStatements) {
  EXPECT_NO_THROW(db_.execute("CREATE INDEX by_dept ON emp (dept)"));
  EXPECT_NE(db_.require_table("emp").index("by_dept"), nullptr);
  // Indexes are hash-only: the ordered variant is not part of the grammar.
  EXPECT_THROW(db_.execute("CREATE ORDERED INDEX by_salary ON emp (salary)"),
               sql::SqlError);
  EXPECT_EQ(db_.require_table("emp").index("by_salary"), nullptr);
}

TEST_F(SqlEndToEnd, InsertWithColumnList) {
  db_.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')");
  const ResultSet result = db_.execute("SELECT salary FROM emp WHERE id = 9");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.rows[0][0].is_null());
}

TEST_F(SqlEndToEnd, ErrorsOnUnknownNames) {
  EXPECT_THROW(db_.execute("SELECT nope FROM emp"), sql::SqlError);
  EXPECT_THROW(db_.execute("SELECT x FROM missing"), sql::SqlError);
  EXPECT_THROW(db_.execute("SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id "
                           "GROUP BY d.dname"),
               sql::SqlError);  // id neither aggregated nor grouped
}

TEST_F(SqlEndToEnd, AmbiguousColumnIsRejected) {
  EXPECT_THROW(db_.execute("SELECT id FROM emp e JOIN dept d ON e.dept = d.id"),
               sql::SqlError);
}

TEST_F(SqlEndToEnd, NegativeNumbersInValuesAndWhere) {
  db_.execute("INSERT INTO emp VALUES (10,'neg',10,-50.0)");
  const ResultSet result = db_.execute("SELECT name FROM emp WHERE salary < -10");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_string(), "neg");
}

TEST_F(SqlEndToEnd, LikePatterns) {
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name LIKE 'a%'").size(), 1u);
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name LIKE '%e'").size(), 2u);  // dee, eve
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name LIKE '_o_'").size(), 1u);  // bob
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name NOT LIKE '%e%'").size(), 3u);
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name LIKE '%'").size(), 5u);
  EXPECT_THROW(db_.execute("SELECT name FROM emp WHERE name LIKE 5"), sql::SqlError);
}

TEST_F(SqlEndToEnd, InLists) {
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE dept IN (10, 30)").size(), 2u);
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE name IN ('ann', 'eve')").size(), 2u);
  // NOT IN with a NULL dept row: NULL comparisons are unknown -> excluded.
  EXPECT_EQ(db_.execute("SELECT name FROM emp WHERE dept NOT IN (10)").size(), 2u);
}

TEST(LikeMatcher, DirectPatterns) {
  EXPECT_TRUE(like_match("", ""));
  EXPECT_TRUE(like_match("", "%"));
  EXPECT_FALSE(like_match("", "_"));
  EXPECT_TRUE(like_match("abc", "abc"));
  EXPECT_TRUE(like_match("abc", "a%"));
  EXPECT_TRUE(like_match("abc", "%c"));
  EXPECT_TRUE(like_match("abc", "%b%"));
  EXPECT_TRUE(like_match("abc", "a_c"));
  EXPECT_FALSE(like_match("abc", "a_b"));
  EXPECT_TRUE(like_match("aXbXc", "a%b%c"));
  EXPECT_TRUE(like_match("mississippi", "%iss%ppi"));
  EXPECT_FALSE(like_match("mississippi", "%issx%"));
  EXPECT_TRUE(like_match("convective_precipitation_flux", "%precipitation%"));
}

TEST(Database, TableLifecycle) {
  Database db;
  db.create_table("t", TableSchema{{"x", Type::kInt}});
  EXPECT_THROW(db.create_table("t", TableSchema{{"x", Type::kInt}}), TypeError);
  EXPECT_NE(db.table("t"), nullptr);
  EXPECT_EQ(db.table_names(), std::vector<std::string>{"t"});
  EXPECT_THROW(db.require_table("u"), TypeError);
}

}  // namespace
}  // namespace hxrc::rel
