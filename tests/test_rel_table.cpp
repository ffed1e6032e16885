#include <gtest/gtest.h>

#include <vector>

#include "rel/table.hpp"

namespace hxrc::rel {
namespace {

Table make_table() {
  return Table("t", TableSchema{{"id", Type::kInt},
                                {"name", Type::kString},
                                {"score", Type::kDouble}});
}

TEST(Table, AppendAndRead) {
  Table t = make_table();
  const RowId id = t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.5)});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.row(0)[1].as_string(), "a");
}

TEST(Table, ValidatesArity) {
  Table t = make_table();
  EXPECT_THROW(t.append(Row{Value(std::int64_t{1})}), TypeError);
}

TEST(Table, ValidatesTypes) {
  Table t = make_table();
  EXPECT_THROW(t.append(Row{Value("not-int"), Value("a"), Value(0.5)}), TypeError);
  // NULLs are allowed in any column; ints widen into double columns.
  EXPECT_NO_THROW(
      t.append(Row{Value::null(), Value::null(), Value(std::int64_t{1})}));
}

TEST(Table, HashIndexLookup) {
  Table t = make_table();
  t.create_hash_index("by_name", {"name"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.append(Row{Value(std::int64_t{2}), Value("b"), Value(0.2)});
  t.append(Row{Value(std::int64_t{3}), Value("a"), Value(0.3)});

  const Index* index = t.index("by_name");
  ASSERT_NE(index, nullptr);
  const auto hits = index->lookup(Key{{Value("a")}});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(index->lookup(Key{{Value("zzz")}}).empty());
}

TEST(Table, IndexBackfillsExistingRows) {
  Table t = make_table();
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  const HashIndex* index = t.create_hash_index("by_id", {"id"});
  EXPECT_EQ(index->lookup(Key{{Value(std::int64_t{1})}}).size(), 1u);
}

TEST(Table, CompositeKeyIndex) {
  Table t = make_table();
  t.create_hash_index("compound", {"id", "name"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.append(Row{Value(std::int64_t{1}), Value("b"), Value(0.2)});
  const Index* index = t.index("compound");
  EXPECT_EQ(index->lookup(Key{{Value(std::int64_t{1}), Value("a")}}).size(), 1u);
}

TEST(Table, OrderedIndexRange) {
  Table t = make_table();
  const OrderedIndex* index = t.create_ordered_index("by_score", {"score"});
  for (int i = 0; i < 10; ++i) {
    t.append(Row{Value(std::int64_t{i}), Value("x"), Value(i * 1.0)});
  }
  const auto hits = index->range(Key{{Value(3.0)}}, Key{{Value(6.0)}});
  EXPECT_EQ(hits.size(), 4u);  // 3,4,5,6
}

TEST(Table, IndexOnResolvesByColumns) {
  Table t = make_table();
  t.create_hash_index("by_id", {"id"});
  EXPECT_NE(t.index_on({0}), nullptr);
  EXPECT_EQ(t.index_on({1}), nullptr);
}

TEST(Table, TruncateClearsRowsAndKeepsIndexDefinitions) {
  Table t = make_table();
  t.create_hash_index("by_id", {"id"});
  t.create_ordered_index("by_score", {"score"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.truncate();
  EXPECT_EQ(t.row_count(), 0u);
  ASSERT_NE(t.index("by_id"), nullptr);
  EXPECT_EQ(t.index("by_id")->entry_count(), 0u);
  // New rows index correctly after truncate.
  t.append(Row{Value(std::int64_t{2}), Value("b"), Value(0.2)});
  EXPECT_EQ(t.index("by_id")->lookup(Key{{Value(std::int64_t{2})}}).size(), 1u);
  EXPECT_NE(dynamic_cast<const OrderedIndex*>(t.index("by_score")), nullptr);
}

TEST(Table, ApproxBytesGrowsWithData) {
  Table t = make_table();
  const std::size_t empty = t.approx_bytes();
  t.append(Row{Value(std::int64_t{1}), Value(std::string(1000, 'x')), Value(0.1)});
  EXPECT_GT(t.approx_bytes(), empty + 900);
}


TEST(Table, AppendBatchMatchesSingleAppendsAndMaintainsIndexes) {
  Table batched = make_table();
  Table serial = make_table();
  for (Table* t : {&batched, &serial}) {
    t->create_hash_index("by_name", {"name"});
    t->create_ordered_index("by_id", {"id"});
  }

  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(Row{Value(std::int64_t{i}), Value(i % 2 ? "odd" : "even"),
                       Value(i * 0.5)});
  }
  for (const Row& row : rows) serial.append(Row(row));

  const RowId first = batched.append_batch(std::move(rows));
  EXPECT_EQ(first, 0u);
  EXPECT_TRUE(rows.empty());  // consumed, capacity reusable

  ASSERT_EQ(batched.row_count(), serial.row_count());
  for (RowId id = 0; id < batched.row_count(); ++id) {
    EXPECT_EQ(batched.row(id), serial.row(id));
  }
  EXPECT_EQ(batched.index("by_name")->lookup(Key{{Value("odd")}}).size(),
            serial.index("by_name")->lookup(Key{{Value("odd")}}).size());
}

TEST(Table, AppendBatchValidatesEveryRow) {
  Table t = make_table();
  std::vector<Row> rows;
  rows.push_back(Row{Value(std::int64_t{1}), Value("ok"), Value(0.1)});
  rows.push_back(Row{Value("not-int"), Value("bad"), Value(0.2)});
  EXPECT_THROW(t.append_batch(std::move(rows)), TypeError);
}

TEST(Table, AppendBatchAfterExistingRowsContinuesRowIds) {
  Table t = make_table();
  t.create_hash_index("by_name", {"name"});
  t.append(Row{Value(std::int64_t{0}), Value("pre"), Value(0.0)});
  std::vector<Row> rows;
  rows.push_back(Row{Value(std::int64_t{1}), Value("post"), Value(1.0)});
  rows.push_back(Row{Value(std::int64_t{2}), Value("post"), Value(2.0)});
  EXPECT_EQ(t.append_batch(std::move(rows)), 1u);
  EXPECT_EQ(t.index("by_name")->lookup(Key{{Value("post")}}).size(), 2u);
  EXPECT_EQ(t.index("by_name")->lookup(Key{{Value("pre")}}).size(), 1u);
}

}  // namespace
}  // namespace hxrc::rel
