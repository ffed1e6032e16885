// The MetadataCatalog facade: ingest paths, definitions.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace hxrc::core {
namespace {

CatalogConfig auto_define_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

TEST(Catalog, IngestAssignsSequentialIds) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  EXPECT_EQ(catalog.ingest_xml(workload::fig3_document(), "a", "u"), 0);
  EXPECT_EQ(catalog.ingest_xml(workload::fig3_document(), "b", "u"), 1);
  EXPECT_EQ(catalog.object_count(), 2u);
}

TEST(Catalog, DatabaseIsQueryableViaSql) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  catalog.ingest_xml(workload::fig3_document(), "a", "u");

  const rel::ResultSet result = catalog.database().execute(
      "SELECT COUNT(*) AS n FROM attr_instances WHERE top = 1");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int(), 4);

  const rel::ResultSet order = catalog.database().execute(
      "SELECT COUNT(*) FROM schema_order WHERE is_attr = 1");
  EXPECT_EQ(order.rows[0][0].as_int(), 14);
}

TEST(Catalog, DefineDynamicAttributeWithElements) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations());
  const AttrDefId grid = catalog.define_dynamic_attribute(
      "grid", "ARPS", {{"dx", xml::LeafType::kDouble, ""}});
  const AttributeDef& def = catalog.registry().attribute(grid);
  EXPECT_EQ(def.kind, AttrKind::kDynamic);
  // Anchored at the dynamic root's order for response building.
  EXPECT_NE(def.schema_order, kNoOrder);
  EXPECT_NE(catalog.registry().find_element("dx", "ARPS", grid), nullptr);
}

TEST(Catalog, StatsAccumulateAcrossIngests) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  catalog.ingest_xml(workload::fig3_document(), "a", "u");
  const std::size_t after_one = catalog.total_stats().element_rows;
  catalog.ingest_xml(workload::fig3_document(), "b", "u");
  EXPECT_EQ(catalog.total_stats().element_rows, after_one * 2);
}

}  // namespace
}  // namespace hxrc::core
