// Late attribute insertion (§5: "as metadata attributes were inserted
// later"): sequences continue, responses stay ordered, queries see the new
// data.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/matcher.hpp"
#include "xml/parser.hpp"

namespace hxrc::core {
namespace {

CatalogConfig auto_define_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

class UpdateTest : public ::testing::Test {
 protected:
  UpdateTest()
      : schema_(workload::lead_schema()),
        catalog_(schema_, workload::lead_annotations(), auto_define_config()) {
    id_ = catalog_.ingest_xml(workload::fig3_document(), "fig3", "alice");
  }

  /// Adds an attribute instance, given as XML text, to the fixture object.
  void add_xml(std::string_view path, std::string_view content) {
    catalog_.add_attribute(id_, path, *xml::parse_fragment(content));
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  ObjectId id_ = -1;
};

TEST_F(UpdateTest, AddedThemeBecomesQueryable) {
  EXPECT_TRUE(catalog_.query(workload::theme_keyword_query("air_temperature")).empty());
  add_xml("data/idinfo/keywords/theme",
          "<theme><themekt>CF NetCDF</themekt><themekey>air_temperature</themekey></theme>");
  const auto hits = catalog_.query(workload::theme_keyword_query("air_temperature"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], id_);
}

TEST_F(UpdateTest, AddedThemeSequencesAfterExistingSiblings) {
  add_xml("data/idinfo/keywords/theme",
          "<theme><themekt>CF NetCDF</themekt><themekey>air_temperature</themekey></theme>");
  const xml::Document doc = catalog_.fetch(id_);
  const auto themes = xml::select(*doc.root, "data/idinfo/keywords/theme");
  ASSERT_EQ(themes.size(), 3u);
  // The new theme is the LAST sibling (same-sibling ordering continues).
  EXPECT_EQ(themes[2]->child_text("themekey"), "air_temperature");
  EXPECT_EQ(themes[0]->child_text("themekey"), "convective_precipitation_amount");
}

TEST_F(UpdateTest, AddedAttributeInOrderedPosition) {
  // Fig. 3 has no citation; adding one must appear in schema position
  // (inside idinfo, before keywords).
  add_xml("data/idinfo/citation",
          "<citation><origin>LEAD</origin><pubdate>2006-07-01"
          "</pubdate><title>t</title></citation>");
  const xml::Document doc = catalog_.fetch(id_);
  const xml::Node* idinfo = xml::select(*doc.root, "data/idinfo")[0];
  const auto children = idinfo->child_elements();
  ASSERT_GE(children.size(), 2u);
  EXPECT_EQ(children[0]->name(), "citation");  // schema order restored
  EXPECT_EQ(children[1]->name(), "keywords");
}

TEST_F(UpdateTest, AddedDynamicAttribute) {
  add_xml("data/geospatial/eainfo/detailed",
          "<detailed><enttyp><enttypl>microphysics</enttypl><enttypds>WRF</enttypds>"
          "</enttyp><attr><attrlabl>mphyopt</attrlabl><attrdefs>WRF</attrdefs>"
          "<attrv>2</attrv></attr></detailed>");
  const auto hits = catalog_.query(
      workload::dynamic_param_query("microphysics", "WRF", "mphyopt", 2.0));
  ASSERT_EQ(hits.size(), 1u);

  // The original grid attribute still matches too.
  EXPECT_EQ(catalog_.query(workload::paper_example_query()).size(), 1u);
}

TEST_F(UpdateTest, SingleInstanceAttributeCannotBeDuplicated) {
  add_xml("data/idinfo/status",
          "<status><progress>Complete</progress></status>");
  EXPECT_THROW(
      add_xml("data/idinfo/status",
              "<status><progress>In work</progress></status>"),
      ValidationError);
}

TEST_F(UpdateTest, RejectsBadPathsAndMismatchedContent) {
  EXPECT_THROW(add_xml("data/nope", "<x/>"), ValidationError);
  EXPECT_THROW(
      add_xml("data/idinfo/keywords/theme", "<place/>"),
      ValidationError);
}

TEST_F(UpdateTest, RoundTripAfterManyInserts) {
  for (int i = 0; i < 5; ++i) {
    add_xml("data/idinfo/keywords/theme",
            "<theme><themekt>CF NetCDF</themekt><themekey>key-" + std::to_string(i) +
                "</themekey></theme>");
  }
  const xml::Document doc = catalog_.fetch(id_);
  const auto themes = xml::select(*doc.root, "data/idinfo/keywords/theme");
  ASSERT_EQ(themes.size(), 7u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(themes[static_cast<std::size_t>(2 + i)]->child_text("themekey"),
              "key-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace hxrc::core
