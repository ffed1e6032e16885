// Hybrid shredding (§3): Fig. 3 document, dynamic validation, CLOB storage.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "core/ordering.hpp"
#include "core/storage.hpp"
#include "workload/lead_schema.hpp"
#include "xml/parser.hpp"

namespace hxrc {
namespace {

using core::MetadataCatalog;

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

class ShredderFig3 : public ::testing::Test {
 protected:
  ShredderFig3()
      : schema_(workload::lead_schema()),
        catalog_(schema_, workload::lead_annotations(), auto_define_config()) {
    id_ = catalog_.ingest_xml(workload::fig3_document(), "fig3", "alice");
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  core::ObjectId id_ = -1;
};

TEST_F(ShredderFig3, StoresOneClobPerAttributeInstance) {
  // Fig. 3 has: resourceID, two themes, one detailed => 4 attribute
  // instances => 4 CLOBs.
  const rel::Table& clobs = catalog_.database().require_table(core::kAttrClobsTable);
  EXPECT_EQ(clobs.row_count(), 4u);
  EXPECT_EQ(catalog_.database().clobs().count(), 4u);
}

TEST_F(ShredderFig3, ThemesGetSameSiblingClobSequence) {
  const rel::Table& clobs = catalog_.database().require_table(core::kAttrClobsTable);
  // Find the two rows sharing an order id (the theme instances).
  std::map<std::int64_t, std::vector<std::int64_t>> seqs_by_order;
  for (const rel::Row& row : clobs.rows()) {
    seqs_by_order[row[1].as_int()].push_back(row[2].as_int());
  }
  bool found_pair = false;
  for (auto& [order, seqs] : seqs_by_order) {
    (void)order;
    if (seqs.size() == 2) {
      std::sort(seqs.begin(), seqs.end());
      EXPECT_EQ(seqs[0], 1);
      EXPECT_EQ(seqs[1], 2);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST_F(ShredderFig3, ShredsDynamicAttributesByNameAndSource) {
  // grid (ARPS) with sub-attribute grid-stretching: definitions must exist.
  const auto grid = catalog_.registry().find_attribute("grid", "ARPS", core::kNoAttr);
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->kind, core::AttrKind::kDynamic);

  const auto stretching = catalog_.registry().find_attribute("grid-stretching", "ARPS", grid->id);
  ASSERT_TRUE(stretching.has_value());
  EXPECT_EQ(stretching->parent, grid->id);

  // Elements dx, dz under grid; dzmin, reference-height under stretching.
  EXPECT_TRUE(catalog_.registry().find_element("dx", "ARPS", grid->id).has_value());
  EXPECT_TRUE(catalog_.registry().find_element("dz", "ARPS", grid->id).has_value());
  EXPECT_TRUE(catalog_.registry().find_element("dzmin", "ARPS", stretching->id).has_value());
  EXPECT_TRUE(
      catalog_.registry().find_element("reference-height", "ARPS", stretching->id).has_value());
}

TEST_F(ShredderFig3, BuildsInstanceInvertedList) {
  const rel::Table& inverted = catalog_.database().require_table(core::kAttrInvertedTable);
  // grid-stretching instance -> grid instance at distance 1.
  const auto grid = catalog_.registry().find_attribute("grid", "ARPS", core::kNoAttr);
  const auto stretching = catalog_.registry().find_attribute("grid-stretching", "ARPS", grid->id);
  bool found = false;
  for (const rel::Row& row : inverted.rows()) {
    if (row[1].as_int() == stretching->id && row[3].as_int() == grid->id) {
      EXPECT_EQ(row[5].as_int(), 1);  // distance
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ShredderFig3, ElementRowsCarryNumericMirror) {
  const rel::Table& elems = catalog_.database().require_table(core::kElemDataTable);
  bool found_dx = false;
  for (const rel::Row& row : elems.rows()) {
    if (!row[5].is_null() && row[5].as_string() == "1000.000") {
      EXPECT_FALSE(row[6].is_null());
      EXPECT_DOUBLE_EQ(row[6].as_double(), 1000.0);
      found_dx = true;
    }
  }
  EXPECT_TRUE(found_dx);
}

TEST_F(ShredderFig3, StatsAreAccurate) {
  const core::ShredStats& stats = catalog_.total_stats();
  // Top instances: resourceID, theme x2, grid (detailed).
  EXPECT_EQ(stats.attribute_instances, 4u);
  // Sub-attribute instances: grid-stretching.
  EXPECT_EQ(stats.sub_attribute_instances, 1u);
  // Elements: resourceID(1) + themes(3+3) + dx,dz + dzmin,reference-height.
  EXPECT_EQ(stats.element_rows, 11u);
  EXPECT_EQ(stats.clobs, 4u);
  EXPECT_GT(stats.clob_bytes, 0u);
}

TEST(Shredder, UnknownDynamicStaysClobOnlyWithoutAutoDefine) {
  const xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations());  // no auto-define
  catalog.ingest_xml(workload::fig3_document(), "fig3", "alice");

  // The detailed CLOB is stored, but nothing was shredded for it.
  EXPECT_EQ(catalog.total_stats().unshredded_dynamic, 1u);
  EXPECT_FALSE(catalog.registry().find_attribute("grid", "ARPS", core::kNoAttr).has_value());
  const rel::Table& clobs = catalog.database().require_table(core::kAttrClobsTable);
  EXPECT_EQ(clobs.row_count(), 4u);  // CLOBs still complete
}

TEST(Shredder, PreregisteredDynamicDefinitionsAreUsed) {
  const xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations());
  const core::AttrDefId grid = catalog.define_dynamic_attribute(
      "grid", "ARPS",
      {{"dx", xml::LeafType::kDouble, ""}, {"dz", xml::LeafType::kDouble, ""}});
  catalog.define_dynamic_sub_attribute(grid, "grid-stretching", "ARPS",
                                       {{"dzmin", xml::LeafType::kDouble, ""},
                                        {"reference-height", xml::LeafType::kDouble, ""}});
  catalog.ingest_xml(workload::fig3_document(), "fig3", "alice");
  EXPECT_EQ(catalog.total_stats().unshredded_dynamic, 0u);
  EXPECT_EQ(catalog.total_stats().attribute_instances, 4u);
}

TEST(Shredder, RejectsNonConformingDocument) {
  const xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations());
  EXPECT_THROW(catalog.ingest_xml("<wrong/>", "bad", "alice"), core::ValidationError);
  EXPECT_THROW(
      catalog.ingest_xml("<LEADresource><bogus>x</bogus></LEADresource>", "bad", "alice"),
      core::ValidationError);
}

TEST(Shredder, UserLevelDefinitionsArePrivate) {
  const xml::Schema schema = workload::lead_schema();
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  config.shred.auto_define_visibility = core::Visibility::kUser;
  MetadataCatalog catalog(schema, workload::lead_annotations(), config);
  catalog.ingest_xml(workload::fig3_document(), "fig3", "alice");

  // alice sees her private definition; bob does not.
  EXPECT_TRUE(
      catalog.registry().find_attribute("grid", "ARPS", core::kNoAttr, "alice").has_value());
  EXPECT_FALSE(
      catalog.registry().find_attribute("grid", "ARPS", core::kNoAttr, "bob").has_value());
  EXPECT_FALSE(catalog.registry().find_attribute("grid", "ARPS", core::kNoAttr).has_value());
}

TEST(Shredder, MultipleDocumentsGetDistinctObjects) {
  const xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  const auto a = catalog.ingest_xml(workload::fig3_document(), "a", "alice");
  const auto b = catalog.ingest_xml(workload::fig3_document(), "b", "alice");
  EXPECT_NE(a, b);
  const rel::Table& objects = catalog.database().require_table(core::kObjectsTable);
  EXPECT_EQ(objects.row_count(), 2u);
}

}  // namespace
}  // namespace hxrc
