// The Fig. 4 pipeline expressed in SQL over the catalog's own shredded
// tables — demonstrating that the hybrid storage really is plain relational
// data ("the results returned by the database", §5) and cross-checking the
// C++ query engine against an independent SQL formulation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace hxrc::core {
namespace {

class SqlPipeline : public ::testing::Test {
 protected:
  SqlPipeline()
      : schema_(workload::lead_schema()), catalog_(schema_, workload::lead_annotations(), [] {
          CatalogConfig config;
          config.shred.auto_define_dynamic = true;
          return config;
        }()) {
    workload::DocumentGenerator generator;
    for (std::uint64_t i = 0; i < 80; ++i) {
      catalog_.ingest(generator.generate(i), "d", "bench");
    }
  }

  /// Resolves a dynamic element definition id.
  std::int64_t elem_def(const std::string& attr, const std::string& model,
                        const std::string& elem) {
    const auto def = catalog_.registry().find_attribute(attr, model, kNoAttr);
    if (!def) return -1;
    const auto e = catalog_.registry().find_element(elem, model, def->id);
    return e ? e->id : -1;
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
};

TEST_F(SqlPipeline, SingleElementCriterionViaSql) {
  const std::int64_t dx = elem_def("grid", "ARPS", "dx");
  ASSERT_GE(dx, 0);
  const double value = workload::parameter_value("dx", 1);

  // SQL formulation: objects with an element row matching the criterion.
  const rel::ResultSet sql_result = catalog_.database().execute(
      "SELECT DISTINCT object_id FROM elem_data WHERE elem_id = " + std::to_string(dx) +
      " AND value_num = " + std::to_string(value) + " ORDER BY object_id");

  const auto engine_result =
      catalog_.query(workload::dynamic_param_query("grid", "ARPS", "dx", value));

  ASSERT_EQ(sql_result.size(), engine_result.size());
  for (std::size_t i = 0; i < engine_result.size(); ++i) {
    EXPECT_EQ(sql_result.rows[i][0].as_int(), engine_result[i]);
  }
  EXPECT_FALSE(engine_result.empty());  // the sweep must exercise real rows
}

TEST_F(SqlPipeline, InstanceCountingViaSql) {
  // Two criteria that must hold within ONE attribute instance: the count-
  // based grouping of Fig. 4, stage 2, expressed as GROUP BY ... HAVING.
  // Discover a pair of element definitions that actually co-occur in a
  // top-level instance of this corpus.
  const rel::Table& elem_data = catalog_.database().require_table("elem_data");
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, std::set<std::int64_t>>
      per_instance;
  for (const rel::Row& row : elem_data.rows()) {
    per_instance[{row[0].as_int(), row[1].as_int(), row[2].as_int()}].insert(
        row[3].as_int());
  }
  std::int64_t elem_a = -1;
  std::int64_t elem_b = -1;
  for (const auto& [key, elems] : per_instance) {
    const AttributeDef& def =
        catalog_.registry().attribute(std::get<1>(key));
    if (def.parent != kNoAttr || def.kind != AttrKind::kDynamic) continue;
    if (elems.size() < 2) continue;
    auto it = elems.begin();
    elem_a = *it++;
    elem_b = *it;
    break;
  }
  ASSERT_GE(elem_a, 0);
  ASSERT_GE(elem_b, 0);

  // Stage the query criteria in a temp table, exactly as §4 describes.
  catalog_.database().execute("CREATE TABLE query_elems (qe INT, elem_id INT)");
  catalog_.database().execute("INSERT INTO query_elems VALUES (0," +
                              std::to_string(elem_a) + "),(1," + std::to_string(elem_b) +
                              ")");

  const rel::ResultSet sql_result = catalog_.database().execute(
      "SELECT DISTINCT e.object_id FROM elem_data e "
      "JOIN query_elems q ON e.elem_id = q.elem_id "
      "GROUP BY e.object_id, e.attr_id, e.seq "
      "HAVING COUNT(DISTINCT q.qe) = 2 "
      "ORDER BY e.object_id");
  ASSERT_FALSE(sql_result.empty());

  const ElementDef& def_a = catalog_.registry().element(elem_a);
  const ElementDef& def_b = catalog_.registry().element(elem_b);
  const AttributeDef& owner = catalog_.registry().attribute(def_a.attribute);
  ObjectQuery query;
  AttrQuery attr(owner.name, owner.source);
  attr.require_element(def_a.name, def_a.source);
  attr.require_element(def_b.name, def_b.source);
  query.add_attribute(std::move(attr));
  const auto engine_result = catalog_.query(query);

  ASSERT_EQ(sql_result.size(), engine_result.size());
  for (std::size_t i = 0; i < engine_result.size(); ++i) {
    EXPECT_EQ(sql_result.rows[i][0].as_int(), engine_result[i]);
  }
}

TEST_F(SqlPipeline, RequiredAncestorsViaSql) {
  // §5: the distinct ancestors required for an object's response, computed
  // by joining attr_clobs with the order_ancestors inverted list.
  const rel::ResultSet ancestors = catalog_.database().execute(
      "SELECT DISTINCT a.anc_order FROM attr_clobs c "
      "JOIN order_ancestors a ON c.order_id = a.order_id "
      "WHERE c.object_id = 0 ORDER BY a.anc_order");
  ASSERT_FALSE(ancestors.empty());
  // Order 0 (the document root) is an ancestor of every stored attribute.
  EXPECT_EQ(ancestors.rows[0][0].as_int(), 0);

  // Joining with schema_order yields the tag names, set-based.
  const rel::ResultSet tags = catalog_.database().execute(
      "SELECT DISTINCT s.tag FROM attr_clobs c "
      "JOIN order_ancestors a ON c.order_id = a.order_id "
      "JOIN schema_order s ON a.anc_order = s.order_id "
      "WHERE c.object_id = 0");
  bool found_root = false;
  for (const rel::Row& row : tags.rows) {
    if (row[0].as_string() == "LEADresource") found_root = true;
  }
  EXPECT_TRUE(found_root);
}

TEST_F(SqlPipeline, SelectivityStatisticsViaSql) {
  // The catalog's tables support ad-hoc analytics: value distribution of a
  // parameter across the corpus.
  const std::int64_t dx = elem_def("grid", "ARPS", "dx");
  ASSERT_GE(dx, 0);
  const rel::ResultSet histogram = catalog_.database().execute(
      "SELECT value_num, COUNT(*) AS n FROM elem_data WHERE elem_id = " +
      std::to_string(dx) + " GROUP BY value_num ORDER BY n DESC");
  std::int64_t total = 0;
  for (const rel::Row& row : histogram.rows) total += row[1].as_int();
  const rel::ResultSet direct = catalog_.database().execute(
      "SELECT COUNT(*) FROM elem_data WHERE elem_id = " + std::to_string(dx));
  EXPECT_EQ(total, direct.rows[0][0].as_int());
}

TEST_F(SqlPipeline, LikeSearchOverKeywords) {
  // Keyword substring search via LIKE on the shredded theme keywords.
  const auto theme = catalog_.registry().find_attribute("theme", "", kNoAttr);
  ASSERT_TRUE(theme.has_value());
  const auto themekey = catalog_.registry().find_element("themekey", "", theme->id);
  ASSERT_TRUE(themekey.has_value());
  const rel::ResultSet hits = catalog_.database().execute(
      "SELECT DISTINCT object_id FROM elem_data WHERE elem_id = " +
      std::to_string(themekey->id) + " AND value_str LIKE '%precipitation%'");
  // Cross-check against two exact-match engine queries.
  const auto a = catalog_.query(
      workload::theme_keyword_query("convective_precipitation_amount"));
  const auto b = catalog_.query(
      workload::theme_keyword_query("convective_precipitation_flux"));
  const auto c = catalog_.query(workload::theme_keyword_query("precipitation_flux"));
  std::vector<ObjectId> expected;
  expected.insert(expected.end(), a.begin(), a.end());
  expected.insert(expected.end(), b.begin(), b.end());
  expected.insert(expected.end(), c.begin(), c.end());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  EXPECT_EQ(hits.size(), expected.size());
}

}  // namespace
}  // namespace hxrc::core
