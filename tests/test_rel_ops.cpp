#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rel/database.hpp"
#include "rel/ops.hpp"

namespace hxrc::rel {
namespace {

Table people() {
  Table t("people", TableSchema{{"id", Type::kInt},
                                {"name", Type::kString},
                                {"dept", Type::kInt},
                                {"salary", Type::kDouble}});
  t.append(Row{Value(std::int64_t{1}), Value("ann"), Value(std::int64_t{10}), Value(100.0)});
  t.append(Row{Value(std::int64_t{2}), Value("bob"), Value(std::int64_t{10}), Value(80.0)});
  t.append(Row{Value(std::int64_t{3}), Value("cid"), Value(std::int64_t{20}), Value(120.0)});
  t.append(Row{Value(std::int64_t{4}), Value("dee"), Value(std::int64_t{20}), Value(90.0)});
  t.append(Row{Value(std::int64_t{5}), Value("eve"), Value::null(), Value(70.0)});
  return t;
}

Table departments() {
  Table t("depts", TableSchema{{"dept_id", Type::kInt}, {"dept_name", Type::kString}});
  t.append(Row{Value(std::int64_t{10}), Value("storms")});
  t.append(Row{Value(std::int64_t{20}), Value("grids")});
  t.append(Row{Value(std::int64_t{30}), Value("empty")});
  return t;
}

TEST(Ops, ScanAll) {
  const Table t = people();
  EXPECT_EQ(scan(t).size(), 5u);
}

TEST(Ops, FilterKeepsMatching) {
  const Table t = people();
  ResultSet all = scan(t);
  const ResultSet young = filter(std::move(all), *le(col(0), lit(Value(std::int64_t{2}))));
  EXPECT_EQ(young.size(), 2u);
}

TEST(Ops, ProjectExprsComputes) {
  const Table t = people();
  const ResultSet result = project_exprs(
      scan(t), {{binary(BinOp::kMul, col(3), lit(Value(2.0))), Column{"double_salary", Type::kDouble}}});
  EXPECT_DOUBLE_EQ(result.rows[0][0].as_double(), 200.0);
}

TEST(Ops, InnerHashJoin) {
  const ResultSet joined = hash_join(scan(people()), {2}, scan(departments()), {0});
  EXPECT_EQ(joined.size(), 4u);  // eve's NULL dept joins nothing
  const std::size_t dept_name = joined.column("dept_name");
  for (const Row& row : joined.rows) {
    EXPECT_FALSE(row[dept_name].is_null());
  }
}

TEST(Ops, LeftOuterJoinPadsWithNulls) {
  const ResultSet joined =
      hash_join(scan(people()), {2}, scan(departments()), {0}, JoinType::kLeftOuter);
  EXPECT_EQ(joined.size(), 5u);
  const std::size_t dept_name = joined.column("dept_name");
  std::size_t nulls = 0;
  for (const Row& row : joined.rows) {
    if (row[dept_name].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 1u);  // eve
}

TEST(Ops, JoinRenamesCollidingColumns) {
  const ResultSet left = scan(people());
  const ResultSet joined = hash_join(left, {0}, left, {0});
  EXPECT_EQ(joined.schema.size(), 8u);
  EXPECT_NO_THROW(joined.column("r_id"));
}

TEST(Ops, EmptyKeyJoinIsCrossProduct) {
  const ResultSet joined = hash_join(scan(departments()), {}, scan(departments()), {});
  EXPECT_EQ(joined.size(), 9u);
}

TEST(Ops, IndexJoinProbesIndex) {
  Table d = departments();
  d.create_hash_index("by_id", {"dept_id"});
  const ResultSet joined =
      index_join(scan(people()), {2}, d, *d.index("by_id"));
  EXPECT_EQ(joined.size(), 4u);
}

TEST(Ops, GroupByCountsAndAggregates) {
  const ResultSet grouped =
      group_by(scan(people()), {2},
               {Aggregate{Aggregate::Fn::kCount, 0, "n"},
                Aggregate{Aggregate::Fn::kSum, 3, "total"},
                Aggregate{Aggregate::Fn::kMin, 3, "lo"},
                Aggregate{Aggregate::Fn::kMax, 3, "hi"}});
  EXPECT_EQ(grouped.size(), 3u);  // 10, 20, NULL
  for (const Row& row : grouped.rows) {
    if (!row[0].is_null() && row[0].as_int() == 10) {
      EXPECT_EQ(row[1].as_int(), 2);
      EXPECT_DOUBLE_EQ(row[2].as_double(), 180.0);
      EXPECT_DOUBLE_EQ(row[3].as_double(), 80.0);
      EXPECT_DOUBLE_EQ(row[4].as_double(), 100.0);
    }
  }
}

TEST(Ops, GroupByCountDistinct) {
  ResultSet input;
  input.schema = TableSchema{{"k", Type::kInt}, {"v", Type::kString}};
  input.rows = {Row{Value(std::int64_t{1}), Value("a")},
                Row{Value(std::int64_t{1}), Value("a")},
                Row{Value(std::int64_t{1}), Value("b")},
                Row{Value(std::int64_t{2}), Value("a")}};
  const ResultSet grouped = group_by(
      input, {0}, {Aggregate{Aggregate::Fn::kCountDistinct, 1, "distinct_v"}});
  for (const Row& row : grouped.rows) {
    if (row[0].as_int() == 1) EXPECT_EQ(row[1].as_int(), 2);
    if (row[0].as_int() == 2) EXPECT_EQ(row[1].as_int(), 1);
  }
}

TEST(Ops, GlobalAggregateOverEmptyInputYieldsOneRow) {
  ResultSet empty;
  empty.schema = TableSchema{{"x", Type::kInt}};
  const ResultSet grouped =
      group_by(empty, {}, {Aggregate{Aggregate::Fn::kCount, 0, "n"}});
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped.rows[0][0].as_int(), 0);
}

TEST(Ops, AggregatesIgnoreNullInputs) {
  const ResultSet grouped = group_by(
      scan(people()), {}, {Aggregate{Aggregate::Fn::kCountDistinct, 2, "depts"}});
  EXPECT_EQ(grouped.rows[0][0].as_int(), 2);  // NULL dept not counted
}

TEST(Ops, SortByMultipleKeys) {
  ResultSet sorted = sort_by(scan(people()), {{2, false}, {3, true}});
  // NULL dept first, then dept 10 by salary desc, then dept 20.
  EXPECT_TRUE(sorted.rows[0][2].is_null());
  EXPECT_EQ(sorted.rows[1][1].as_string(), "ann");
  EXPECT_EQ(sorted.rows[2][1].as_string(), "bob");
  EXPECT_EQ(sorted.rows[3][1].as_string(), "cid");
}

TEST(Ops, DistinctRemovesDuplicates) {
  ResultSet input;
  input.schema = TableSchema{{"x", Type::kInt}};
  input.rows = {Row{Value(std::int64_t{1})}, Row{Value(std::int64_t{1})},
                Row{Value(std::int64_t{2})}};
  EXPECT_EQ(distinct(std::move(input)).size(), 2u);
}

TEST(Ops, DistinctOnSubsetKeepsFirst) {
  const ResultSet result = distinct_on(scan(people()), {2});
  EXPECT_EQ(result.size(), 3u);
}

TEST(Ops, LimitTruncates) {
  EXPECT_EQ(limit(scan(people()), 2).size(), 2u);
  EXPECT_EQ(limit(scan(people()), 100).size(), 5u);
}

TEST(Ops, IndexScan) {
  Table d = departments();
  d.create_hash_index("by_id", {"dept_id"});
  const ResultSet result =
      index_scan(d, *d.index("by_id"), Key{{Value(std::int64_t{10})}}, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][1].as_string(), "storms");
}

TEST(Ops, IndexScanThroughReadViewSeesOnlyRowsBelowTheWatermark) {
  Table t = people();
  t.set_slot(0);
  t.create_hash_index("by_dept", {"dept"});
  const ReadView view({3});  // rows 0..2 visible: ann, bob, cid
  const Key dept20{{Value(std::int64_t{20})}};
  const ResultSet visible = index_scan(t, *t.index("by_dept"), dept20, &view);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible.rows[0][1].as_string(), "cid");
  EXPECT_EQ(index_scan(t, *t.index("by_dept"), dept20, nullptr).size(), 2u);
}

TEST(Ops, ForEachMatchVisitsBucketWithoutCopying) {
  Table t = people();
  t.create_hash_index("by_dept", {"dept"});
  std::vector<RowId> scratch;
  std::vector<std::string> names;
  for_each_match(t, *t.index("by_dept"), Key{{Value(std::int64_t{10})}}, nullptr, scratch,
                 [&](const Row& row, RowId) { names.push_back(row[1].as_string()); });
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"ann", "bob"}));

  // The scratch buffer is reused: a second probe does not grow the result.
  names.clear();
  for_each_match(t, *t.index("by_dept"), Key{{Value(std::int64_t{30})}}, nullptr, scratch,
                 [&](const Row&, RowId) { names.emplace_back(); });
  EXPECT_TRUE(names.empty());

  // Through a ReadView only rows below the watermark are visited.
  t.set_slot(0);
  const ReadView view({1});  // only ann is visible
  names.clear();
  for_each_match(t, *t.index("by_dept"), Key{{Value(std::int64_t{10})}}, &view, scratch,
                 [&](const Row& row, RowId) { names.push_back(row[1].as_string()); });
  EXPECT_EQ(names, (std::vector<std::string>{"ann"}));
}

TEST(Ops, IndexBucketSizeEstimatesCardinality) {
  Table t = people();
  t.create_hash_index("by_dept", {"dept"});
  t.create_hash_index("by_id", {"id"});
  EXPECT_EQ(t.index("by_dept")->bucket_size(Key{{Value(std::int64_t{10})}}), 2u);
  EXPECT_EQ(t.index("by_dept")->bucket_size(Key{{Value(std::int64_t{99})}}), 0u);
  EXPECT_EQ(t.index("by_id")->bucket_size(Key{{Value(std::int64_t{3})}}), 1u);
}

TEST(Ops, PrettyRendersHeaderAndRows) {
  const std::string text = scan(departments()).pretty();
  EXPECT_NE(text.find("dept_name"), std::string::npos);
  EXPECT_NE(text.find("storms"), std::string::npos);
}

// ---- Comparison semantics of filter and SQL WHERE ----

constexpr std::int64_t kTwoTo53 = std::int64_t{1} << 53;

/// One value column mixing NULL, ints (two past 2^53 that a double cannot
/// tell apart), doubles and strings, entered via append_unchecked the way
/// the shredder's unchecked batch path can. Row ids equal the id column.
void fill_mixed(Table& t) {
  const Value values[] = {Value::null(),          Value(std::int64_t{5}),
                          Value(5.5),             Value(kTwoTo53),
                          Value(kTwoTo53 + 1),    Value("grid"),
                          Value("730"),           Value(2.0),
                          Value(std::int64_t{2})};
  std::int64_t id = 0;
  for (const Value& v : values) t.append_unchecked(Row{Value(id++), v});
}

std::vector<std::int64_t> filtered_ids(const Table& t, const ExprPtr& predicate) {
  const ResultSet kept = filter(scan(t), *predicate);
  std::vector<std::int64_t> ids;
  for (const Row& row : kept.rows) ids.push_back(row[0].as_int());
  return ids;
}

using Ids = std::vector<std::int64_t>;

TEST(Ops, FilterComparisonSemanticsOnMixedTypes) {
  Table t("mixed", TableSchema{{"id", Type::kInt}, {"v", Type::kString}});
  fill_mixed(t);
  const auto v = [] { return col(1); };
  const auto i64 = [](std::int64_t x) { return lit(Value(x)); };

  // NULL never matches, not even under != or against a string.
  EXPECT_EQ(filtered_ids(t, ne(v(), i64(5))), (Ids{2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(filtered_ids(t, lt(v(), lit(Value("zzz")))), (Ids{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(filtered_ids(t, eq(v(), lit(Value::null()))).empty());
  // ...and the people table's NULL dept is dropped, not matched.
  EXPECT_EQ(filter(scan(people()), *eq(col(2), i64(10))).size(), 2u);

  // int64 values past 2^53 compare exactly, not through double.
  EXPECT_EQ(filtered_ids(t, eq(v(), i64(kTwoTo53 + 1))), (Ids{4}));
  EXPECT_EQ(filtered_ids(t, eq(v(), i64(kTwoTo53))), (Ids{3}));

  // int against double compares numerically.
  EXPECT_EQ(filtered_ids(t, eq(v(), i64(2))), (Ids{7, 8}));
  EXPECT_EQ(filtered_ids(t, eq(v(), lit(Value(2.0)))), (Ids{7, 8}));
  EXPECT_EQ(filtered_ids(t, lt(v(), lit(Value(5.5)))), (Ids{1, 7, 8}));
  EXPECT_EQ(filtered_ids(t, ge(v(), lit(Value(5.0)))), (Ids{1, 2, 3, 4, 5, 6}));

  // Numbers order before strings.
  EXPECT_EQ(filtered_ids(t, gt(v(), i64(kTwoTo53))), (Ids{4, 5, 6}));
  EXPECT_EQ(filtered_ids(t, lt(v(), lit(Value("0")))), (Ids{1, 2, 3, 4, 7, 8}));
  EXPECT_EQ(filtered_ids(t, ge(v(), lit(Value("730")))), (Ids{5, 6}));
  EXPECT_TRUE(filtered_ids(t, eq(v(), lit(Value("5")))).empty());

  // The literal on the left mirrors the comparison.
  EXPECT_EQ(filtered_ids(t, lt(i64(5), v())), (Ids{2, 3, 4, 5, 6}));
  EXPECT_EQ(filtered_ids(t, ge(lit(Value(5.5)), v())), (Ids{1, 2, 7, 8}));
  EXPECT_EQ(filtered_ids(t, eq(lit(Value("grid")), v())), (Ids{5}));
}

TEST(Ops, SqlWhereComparisonSemanticsOnMixedTypes) {
  Database db;
  fill_mixed(db.create_table("mixed", TableSchema{{"id", Type::kInt}, {"v", Type::kString}}));
  const auto where = [&db](const std::string& condition) {
    const ResultSet result =
        db.execute("SELECT id FROM mixed WHERE " + condition + " ORDER BY id");
    Ids ids;
    for (const Row& row : result.rows) ids.push_back(row[0].as_int());
    return ids;
  };

  // NULL never matches.
  EXPECT_EQ(where("v <> 5"), (Ids{2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(where("v = NULL").empty());
  // Past 2^53 (9007199254740992) ints compare exactly.
  EXPECT_EQ(where("v = 9007199254740993"), (Ids{4}));
  // int against double.
  EXPECT_EQ(where("v = 2"), (Ids{7, 8}));
  EXPECT_EQ(where("v < 5.5"), (Ids{1, 7, 8}));
  // Numbers before strings.
  EXPECT_EQ(where("v > 9007199254740992"), (Ids{4, 5, 6}));
  EXPECT_EQ(where("v < '0'"), (Ids{1, 2, 3, 4, 7, 8}));
  // The literal on the left.
  EXPECT_EQ(where("5 < v"), (Ids{2, 3, 4, 5, 6}));
  EXPECT_EQ(where("'grid' = v"), (Ids{5}));
}

}  // namespace
}  // namespace hxrc::rel
