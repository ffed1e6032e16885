// Path-query translation (§4): XPath-style expressions rewritten into
// metadata-attribute queries, checked for equivalence against the DOM
// oracle and hand-built queries.
#include <gtest/gtest.h>

#include "baselines/dom_matcher.hpp"
#include "core/catalog.hpp"
#include "core/path_query.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace hxrc::core {
namespace {

class PathQueryTest : public ::testing::Test {
 protected:
  PathQueryTest()
      : schema_(workload::lead_schema()), catalog_(schema_, workload::lead_annotations(), [] {
          CatalogConfig config;
          config.shred.auto_define_dynamic = true;
          return config;
        }()) {
    fig3_ = catalog_.ingest_xml(workload::fig3_document(), "fig3", "alice");
    workload::DocumentGenerator generator;
    for (std::uint64_t i = 0; i < 30; ++i) {
      catalog_.ingest(generator.generate(i), "d", "alice");
    }
  }

  std::vector<ObjectId> run(std::string_view path) {
    return catalog_.query(path_to_query(catalog_.partition(), path));
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  ObjectId fig3_ = -1;
};

TEST_F(PathQueryTest, StructuralDescendantShorthand) {
  const auto via_path = run("//theme[themekey='convective_precipitation_flux']");
  const auto via_api =
      catalog_.query(workload::theme_keyword_query("convective_precipitation_flux"));
  EXPECT_EQ(via_path, via_api);
  EXPECT_FALSE(via_path.empty());
}

TEST_F(PathQueryTest, StructuralFullPath) {
  const auto a = run("data/idinfo/keywords/theme[themekt='CF NetCDF']");
  const auto b = run("LEADresource/data/idinfo/keywords/theme[themekt='CF NetCDF']");
  const auto c = run("//theme[themekt='CF NetCDF']");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(PathQueryTest, MultiplePredicatesAndConjunction) {
  const auto separate = run(
      "//theme[themekt='CF NetCDF'][themekey='convective_precipitation_amount']");
  const auto conjoined = run(
      "//theme[themekt='CF NetCDF' and themekey='convective_precipitation_amount']");
  EXPECT_EQ(separate, conjoined);
}

TEST_F(PathQueryTest, PaperExampleTranslates) {
  // The §4 example, as the path expression a scientist would write.
  const auto via_path = run(
      "//detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']"
      "[attr[attrlabl='dx' and attrdefs='ARPS' and attrv=1000]]"
      "[attr[attrlabl='grid-stretching' and attrdefs='ARPS']"
      "[attr[attrlabl='dzmin' and attrv=100]]]");
  const auto via_api = catalog_.query(workload::paper_example_query());
  EXPECT_EQ(via_path, via_api);
  ASSERT_FALSE(via_path.empty());
  EXPECT_EQ(via_path[0], fig3_);
}

TEST_F(PathQueryTest, DynamicRangePredicate) {
  const auto via_path = run(
      "//detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']"
      "[attr[attrlabl='dx' and attrv>=500]]");
  const auto via_api = catalog_.query(
      workload::dynamic_param_query("grid", "ARPS", "dx", 500.0, CompareOp::kGe));
  EXPECT_EQ(via_path, via_api);
}

TEST_F(PathQueryTest, ExistenceOnlyDynamicItem) {
  const auto via_path = run(
      "//detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']"
      "[attr[attrlabl='dz' and attrdefs='ARPS' and attrv]]");
  ObjectQuery api;
  AttrQuery grid("grid", "ARPS");
  grid.require_element("dz", "ARPS");
  api.add_attribute(std::move(grid));
  EXPECT_EQ(via_path, catalog_.query(api));
}

TEST_F(PathQueryTest, AttributeElementSelfPredicate) {
  const auto via_path = run("//resourceID[.='arps-run-42']");
  ASSERT_EQ(via_path.size(), 1u);
  EXPECT_EQ(via_path[0], fig3_);
}

TEST_F(PathQueryTest, ConjunctionOfMultiplePaths) {
  ObjectQuery query;
  for (const char* expression :
       {"//theme[themekt='CF NetCDF']",
        "//detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']"
        "[attr[attrlabl='dx' and attrv=1000]]"}) {
    query.add_attribute(path_to_query(catalog_.partition(), expression).attributes()[0]);
  }
  const auto hits = catalog_.query(query);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], fig3_);
}

TEST_F(PathQueryTest, TranslationErrors) {
  // Not an attribute.
  EXPECT_THROW(run("data/idinfo"), PathQueryError);
  EXPECT_THROW(run("//keywords"), PathQueryError);
  // Predicates above the attribute root.
  EXPECT_THROW(run("data/idinfo[x='y']/keywords/theme"), PathQueryError);
  // Dynamic attribute without an identity constraint.
  EXPECT_THROW(run("//detailed[attr[attrlabl='dx']]"), PathQueryError);
  // Malformed syntax.
  EXPECT_THROW(run("//theme[themekt="), PathQueryError);
  EXPECT_THROW(run(""), PathQueryError);
  EXPECT_THROW(run("//theme[themekt='x' extra]"), PathQueryError);
}

TEST_F(PathQueryTest, StructuralNestedSubAttributePath) {
  // Nested structural predicates through an interior sub-attribute: build a
  // custom schema where status nests a sub-group.
  xml::Schema schema("r");
  auto& block = schema.root().add_child("block");
  block.set_repeatable(true);
  block.add_child("label");
  auto& inner = block.add_child("inner");
  inner.add_child("depth");

  PartitionAnnotations annotations;
  annotations.attributes.push_back(AttributeAnnotation{"block", false, true});
  CatalogConfig config;
  MetadataCatalog catalog(schema, annotations, config);
  const ObjectId id = catalog.ingest_xml(
      "<r><block><label>a</label><inner><depth>5</depth></inner></block></r>", "x", "u");
  catalog.ingest_xml(
      "<r><block><label>b</label><inner><depth>9</depth></inner></block></r>", "y", "u");

  const ObjectQuery query =
      path_to_query(catalog.partition(), "//block[label='a' and inner/depth=5]");
  EXPECT_EQ(catalog.query(query), std::vector<ObjectId>{id});

  const ObjectQuery nested =
      path_to_query(catalog.partition(), "//block[inner[depth>7]]");
  EXPECT_EQ(catalog.query(nested).size(), 1u);
}

TEST_F(PathQueryTest, RandomizedOracleEquivalence) {
  // Path-translated dynamic queries agree with the DOM oracle.
  const baselines::DomMatcher oracle(catalog_.partition());
  const char* params[] = {"dx", "dz", "nx", "dtbig"};
  for (const char* param : params) {
    for (int v = 0; v < 3; ++v) {
      const double value = workload::parameter_value(param, v);
      const std::string path =
          std::string("//detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']"
                      "[attr[attrlabl='") +
          param + "' and attrv=" + std::to_string(value) + "]]";
      const ObjectQuery query = path_to_query(catalog_.partition(), path);
      const auto hits = catalog_.query(query);
      // Verify each hit against the oracle by re-fetching the document.
      for (const ObjectId id : hits) {
        EXPECT_TRUE(oracle.matches(catalog_.fetch(id), query))
            << param << " v" << v << " object " << id;
      }
    }
  }
}

}  // namespace
}  // namespace hxrc::core
