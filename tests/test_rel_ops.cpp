#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

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

TEST(Ops, ScanWithPredicate) {
  const Table t = people();
  const auto result = scan(t, gt(col(3), lit(Value(90.0))));
  EXPECT_EQ(result.size(), 2u);
}

TEST(Ops, FilterKeepsMatching) {
  const Table t = people();
  ResultSet all = scan(t);
  const ResultSet young = filter(std::move(all), *le(col(0), lit(Value(std::int64_t{2}))));
  EXPECT_EQ(young.size(), 2u);
}

TEST(Ops, ProjectByName) {
  const Table t = people();
  const ResultSet result = project(scan(t), {"name", "id"});
  EXPECT_EQ(result.schema.size(), 2u);
  EXPECT_EQ(result.schema.column(0).name, "name");
  EXPECT_EQ(result.rows[0][0].as_string(), "ann");
  EXPECT_EQ(result.rows[0][1].as_int(), 1);
  EXPECT_THROW(project(scan(t), {"missing"}), TypeError);
}

TEST(Ops, ProjectExprsComputes) {
  const Table t = people();
  const ResultSet result = project_exprs(
      scan(t), {{binary(BinOp::kMul, col(3), lit(Value(2.0))), Column{"double_salary", Type::kDouble}}});
  EXPECT_DOUBLE_EQ(result.rows[0][0].as_double(), 200.0);
}

TEST(Ops, InnerHashJoin) {
  const ResultSet joined =
      hash_join_named(scan(people()), {"dept"}, scan(departments()), {"dept_id"});
  EXPECT_EQ(joined.size(), 4u);  // eve's NULL dept joins nothing
  const std::size_t dept_name = joined.column("dept_name");
  for (const Row& row : joined.rows) {
    EXPECT_FALSE(row[dept_name].is_null());
  }
}

TEST(Ops, LeftOuterJoinPadsWithNulls) {
  const ResultSet joined = hash_join_named(scan(people()), {"dept"}, scan(departments()),
                                           {"dept_id"}, JoinType::kLeftOuter);
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

TEST(Ops, UnionAll) {
  const ResultSet u = union_all(scan(departments()), scan(departments()));
  EXPECT_EQ(u.size(), 6u);
}

TEST(Ops, IndexScan) {
  Table d = departments();
  d.create_hash_index("by_id", {"dept_id"});
  const ResultSet result = index_scan(d, *d.index("by_id"), Key{{Value(std::int64_t{10})}});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][1].as_string(), "storms");
}

TEST(Ops, IndexScanIdsAndMaterialize) {
  Table t = people();
  t.create_hash_index("by_dept", {"dept"});
  std::vector<RowId> ids = index_scan_ids(*t.index("by_dept"), Key{{Value(std::int64_t{20})}});
  ASSERT_EQ(ids.size(), 2u);

  // Narrow in place, then copy rows only once at the end of the stage.
  filter_ids(t, *gt(col(3), lit(Value(100.0))), ids);
  ASSERT_EQ(ids.size(), 1u);
  const ResultSet result = materialize(t, ids);
  EXPECT_EQ(result.schema.size(), t.schema().size());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][1].as_string(), "cid");
}

TEST(Ops, FilterIdsTreatsNullAsFalse) {
  Table t = people();
  std::vector<RowId> ids;
  for (RowId id = 0; id < t.row_count(); ++id) ids.push_back(id);
  filter_ids(t, *eq(col(2), lit(Value(std::int64_t{10}))), ids);
  EXPECT_EQ(ids.size(), 2u);  // eve's NULL dept is dropped, not matched
}

TEST(Ops, ForEachMatchVisitsBucketWithoutCopying) {
  Table t = people();
  t.create_hash_index("by_dept", {"dept"});
  std::vector<RowId> scratch;
  std::vector<std::string> names;
  for_each_match(t, *t.index("by_dept"), Key{{Value(std::int64_t{10})}}, scratch,
                 [&](const Row& row, RowId) { names.push_back(row[1].as_string()); });
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"ann", "bob"}));

  // The scratch buffer is reused: a second probe does not grow the result.
  names.clear();
  for_each_match(t, *t.index("by_dept"), Key{{Value(std::int64_t{30})}}, scratch,
                 [&](const Row&, RowId) { names.emplace_back(); });
  EXPECT_TRUE(names.empty());
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

// ---- Blocked scan kernel: differential check against per-row eval ----

/// A table whose single value column mixes nulls, ints, doubles, and
/// strings (short and long), entered via append_unchecked the way the
/// shredder's unchecked batch path can. Deterministic PRNG so failures
/// reproduce.
Table mixed_values(std::size_t rows) {
  Table t("mixed", TableSchema{{"id", Type::kInt}, {"v", Type::kString}});
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const char* words[] = {"alpha", "beta", "grid", "0730", "730", "",
                         "a-rather-long-uninterned-metadata-string"};
  for (std::size_t i = 0; i < rows; ++i) {
    Value v;
    switch (next() % 6) {
      case 0: v = Value::null(); break;
      case 1: v = Value(static_cast<std::int64_t>(next() % 1000) - 500); break;
      case 2: v = Value((static_cast<double>(next() % 2000) - 1000.0) / 4.0); break;
      case 3: v = Value(static_cast<std::int64_t>(1) << 53); break;  // > 2^53 exactness
      default: v = Value(words[next() % (sizeof(words) / sizeof(words[0]))]); break;
    }
    t.append_unchecked(Row{Value(static_cast<std::int64_t>(i)), std::move(v)});
  }
  return t;
}

TEST(Ops, BlockScanMatchesPerRowEvalOnMixedTypes) {
  const Table t = mixed_values(1000);
  const Value literals[] = {Value(std::int64_t{42}),  Value(std::int64_t{-500}),
                            Value((std::int64_t{1} << 53) + 1),
                            Value(42.0),  Value(-12.25), Value("grid"),
                            Value("0730"), Value("")};
  const BinOp ops[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                       BinOp::kLe, BinOp::kGt, BinOp::kGe};
  for (const Value& literal : literals) {
    for (const BinOp op : ops) {
      for (const bool flipped : {false, true}) {
        const ExprPtr pred = flipped ? binary(op, lit(literal), col(1))
                                     : binary(op, col(1), lit(literal));
        ASSERT_TRUE(block_scannable(*pred));
        std::vector<RowId> fast;
        scan_ids(t, *pred, fast);
        std::vector<RowId> slow;
        for (RowId id = 0; id < t.row_count(); ++id) {
          if (pred->eval_bool(t.row_unchecked(id))) slow.push_back(id);
        }
        EXPECT_EQ(fast, slow) << pred->describe();

        // filter_ids over a sparse id subset must agree too.
        std::vector<RowId> sparse_fast, sparse_slow;
        for (RowId id = 0; id < t.row_count(); id += 3) sparse_fast.push_back(id);
        sparse_slow = sparse_fast;
        filter_ids(t, *pred, sparse_fast);
        std::size_t kept = 0;
        for (const RowId id : sparse_slow) {
          if (pred->eval_bool(t.row_unchecked(id))) sparse_slow[kept++] = id;
        }
        sparse_slow.resize(kept);
        EXPECT_EQ(sparse_fast, sparse_slow) << pred->describe();
      }
    }
  }
}

TEST(Ops, BlockScannableRejectsNonComparisonShapes) {
  EXPECT_FALSE(block_scannable(*and_(gt(col(0), lit(Value(1.0))),
                                     lt(col(0), lit(Value(2.0))))));
  EXPECT_FALSE(block_scannable(*like(col(1), "gr%")));
  EXPECT_FALSE(block_scannable(*is_null(col(1))));
  EXPECT_FALSE(block_scannable(*eq(col(0), col(1))));
  EXPECT_FALSE(block_scannable(*eq(col(1), lit(Value::null()))));
  EXPECT_TRUE(block_scannable(*eq(lit(Value("x")), col(1))));
}

TEST(Ops, ScanUsesKernelAndMatchesMaterializedRows) {
  const Table t = mixed_values(300);
  const ExprPtr pred = ge(col(1), lit(Value(0.0)));
  const ResultSet via_scan = scan(t, pred);
  std::vector<RowId> ids;
  scan_ids(t, *pred, ids);
  const ResultSet via_ids = materialize(t, ids);
  ASSERT_EQ(via_scan.size(), via_ids.size());
  for (std::size_t i = 0; i < via_scan.size(); ++i) {
    for (std::size_t c = 0; c < via_scan.schema.size(); ++c) {
      EXPECT_EQ(via_scan.rows[i][c].compare(via_ids.rows[i][c]), 0);
    }
  }
}

}  // namespace
}  // namespace hxrc::rel
