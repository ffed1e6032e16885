// The materialized global-ordering tables (§2, §5): schema_order and
// order_ancestors contents and invariants, checked against the Partition.
#include <gtest/gtest.h>

#include "core/ordering.hpp"
#include "core/partition.hpp"
#include "rel/database.hpp"
#include "workload/lead_schema.hpp"

namespace hxrc::core {
namespace {

class OrderingTest : public ::testing::Test {
 protected:
  OrderingTest()
      : schema_(workload::lead_schema()),
        partition_(Partition::build(schema_, workload::lead_annotations())) {
    install_ordering(db_, partition_);
  }

  xml::Schema schema_;
  Partition partition_;
  rel::Database db_;
};

TEST_F(OrderingTest, SchemaOrderTableMirrorsTheOrderedRegion) {
  const rel::Table& table = db_.require_table(kSchemaOrderTable);
  ASSERT_EQ(table.row_count(), partition_.ordered_nodes().size());
  for (const OrderedNode& node : partition_.ordered_nodes()) {
    const rel::Row& row = table.row(static_cast<std::size_t>(node.order));
    EXPECT_EQ(row[0].as_int(), node.order);
    EXPECT_EQ(row[1].as_string(), node.tag);
    if (node.parent == kNoOrder) {
      EXPECT_TRUE(row[2].is_null());
    } else {
      EXPECT_EQ(row[2].as_int(), node.parent);
    }
    EXPECT_EQ(row[3].as_int(), node.last_child);
    EXPECT_EQ(row[4].as_int(), node.depth);
    EXPECT_EQ(row[5].as_int() != 0, node.is_attribute_root);
  }
}

TEST_F(OrderingTest, AttributeRootsCloseImmediately) {
  // §2: "which for metadata attribute nodes is the same as the node order".
  const rel::Table& table = db_.require_table(kSchemaOrderTable);
  for (const rel::Row& row : table.rows()) {
    if (row[5].as_int() == 1) {
      EXPECT_EQ(row[0].as_int(), row[3].as_int());
    }
  }
}

TEST_F(OrderingTest, LastChildBracketsNestSubtrees) {
  // For every node: parent.order < node.order <= parent.last_child — the
  // bracket structure that lets close tags be emitted set-based (§5).
  const auto& nodes = partition_.ordered_nodes();
  for (const OrderedNode& node : nodes) {
    if (node.parent == kNoOrder) continue;
    const OrderedNode& parent = nodes[static_cast<std::size_t>(node.parent)];
    EXPECT_LT(parent.order, node.order);
    EXPECT_LE(node.last_child, parent.last_child);
  }
}

TEST_F(OrderingTest, AncestorTableIsCompleteAndDistanceOrdered) {
  const rel::Table& ancestors = db_.require_table(kOrderAncestorsTable);
  // Sum over all nodes of their depth = total ancestor rows.
  std::size_t expected_rows = 0;
  for (const OrderedNode& node : partition_.ordered_nodes()) {
    expected_rows += static_cast<std::size_t>(node.depth);
  }
  EXPECT_EQ(ancestors.row_count(), expected_rows);

  // Each (node, distance d) ancestor is the node's d-th parent.
  const auto& nodes = partition_.ordered_nodes();
  for (const rel::Row& row : ancestors.rows()) {
    const auto order = row[0].as_int();
    const auto anc = row[1].as_int();
    const auto distance = row[2].as_int();
    OrderId walk = order;
    for (std::int64_t d = 0; d < distance; ++d) {
      walk = nodes[static_cast<std::size_t>(walk)].parent;
    }
    EXPECT_EQ(walk, anc);
  }
}

TEST_F(OrderingTest, IndexesProbeCorrectly) {
  const rel::Table& ancestors = db_.require_table(kOrderAncestorsTable);
  const rel::Index* index = ancestors.index("idx_anc_by_node");
  ASSERT_NE(index, nullptr);
  // The theme attribute root has 4 ancestors.
  const xml::SchemaNode* theme = schema_.find("data/idinfo/keywords/theme");
  const OrderId theme_order = partition_.order_of(*theme);
  rel::Key key;
  key.parts.emplace_back(theme_order);
  EXPECT_EQ(index->lookup(key).size(), 4u);
  // The root (order 0) has none.
  key.parts[0] = rel::Value(std::int64_t{0});
  EXPECT_TRUE(index->lookup(key).empty());
}

TEST_F(OrderingTest, OrderingIsBuiltOncePerSchemaNotPerDocument) {
  // Ingest-independence: the tables never grow with data. (The catalog
  // fixture ingests through MetadataCatalog; here it suffices that
  // install_ordering is a pure function of the partition.)
  const std::size_t rows_before =
      db_.require_table(kSchemaOrderTable).row_count();
  rel::Database db2;
  install_ordering(db2, partition_);
  EXPECT_EQ(db2.require_table(kSchemaOrderTable).row_count(), rows_before);
}

}  // namespace
}  // namespace hxrc::core
