// The catalog service protocol: query wire-form round trips and the full
// request/response surface.
#include <gtest/gtest.h>

#include "core/service.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/parser.hpp"

namespace hxrc::core {
namespace {

CatalogConfig auto_define_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : schema_(workload::lead_schema()),
        catalog_(schema_, workload::lead_annotations(), auto_define_config()),
        service_(catalog_) {}

  /// Sends a request and returns the parsed response root.
  xml::Document send(const std::string& request) {
    return xml::parse(service_.handle(request));
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  CatalogService service_;
};

TEST_F(ServiceTest, QueryWireFormRoundTrips) {
  const ObjectQuery original = workload::paper_example_query().set_user("alice");
  const std::string wire = query_to_xml(original);
  const xml::Document doc = xml::parse(wire);
  const ObjectQuery parsed = query_from_xml(*doc.root);

  EXPECT_EQ(parsed.user(), "alice");
  ASSERT_EQ(parsed.attributes().size(), 1u);
  const AttrQuery& grid = parsed.attributes()[0];
  EXPECT_EQ(grid.name(), "grid");
  EXPECT_EQ(grid.source(), "ARPS");
  ASSERT_EQ(grid.elements().size(), 1u);
  EXPECT_EQ(grid.elements()[0].name, "dx");
  EXPECT_DOUBLE_EQ(grid.elements()[0].value.as_double(), 1000.0);
  ASSERT_EQ(grid.sub_attributes().size(), 1u);
  EXPECT_EQ(grid.sub_attributes()[0].name(), "grid-stretching");

  // Re-serializing yields the same wire form (stable round trip).
  EXPECT_EQ(query_to_xml(parsed), wire);
}

TEST_F(ServiceTest, IngestThenQueryEndToEnd) {
  const std::string ingest_request = "<catalogRequest type=\"ingest\" user=\"alice\" "
                                     "name=\"fig3\">" +
                                     workload::fig3_document() + "</catalogRequest>";
  const xml::Document ingest_response = send(ingest_request);
  EXPECT_EQ(*ingest_response.root->attribute("status"), "ok");
  EXPECT_EQ(ingest_response.root->child_text("objectID"), "0");

  const xml::Document query_response =
      send(query_to_xml(workload::paper_example_query()));
  EXPECT_EQ(*query_response.root->attribute("status"), "ok");
  const xml::Node* results = query_response.root->first_child("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->children_named("result").size(), 1u);
  // The response carries the fully tagged document (§5).
  EXPECT_FALSE(xml::select(*results, "result/LEADresource/resourceID").empty());
}

TEST_F(ServiceTest, QueryIdsReturnsBareIds) {
  send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
       "</catalogRequest>");
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  std::string wire = query_to_xml(query);
  // Flip the type to queryIds.
  const auto pos = wire.find("type=\"query\"");
  wire.replace(pos, std::string("type=\"query\"").size(), "type=\"queryIds\"");
  const xml::Document response = send(wire);
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  const xml::Node* ids = response.root->first_child("objectIDs");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->children_named("objectID").size(), 1u);
  EXPECT_EQ(ids->child_elements()[0]->text_content(), "0");
}

TEST_F(ServiceTest, FetchAndDelete) {
  send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
       "</catalogRequest>");
  const xml::Document fetched =
      send("<catalogRequest type=\"fetch\" objectID=\"0\"/>");
  EXPECT_EQ(*fetched.root->attribute("status"), "ok");
  EXPECT_FALSE(xml::select(*fetched.root, "results/result/LEADresource").empty());

  const xml::Document deleted =
      send("<catalogRequest type=\"delete\" objectID=\"0\"/>");
  EXPECT_EQ(*deleted.root->attribute("status"), "ok");

  const xml::Document refetched =
      send("<catalogRequest type=\"fetch\" objectID=\"0\"/>");
  // Deleted objects are skipped: the results element is empty.
  EXPECT_TRUE(xml::select(*refetched.root, "results/result").empty());
}

TEST_F(ServiceTest, AddAttributeRequest) {
  send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
       "</catalogRequest>");
  const xml::Document added = send(
      "<catalogRequest type=\"addAttribute\" objectID=\"0\" "
      "path=\"data/idinfo/keywords/theme\">"
      "<theme><themekt>CF NetCDF</themekt><themekey>air_temperature</themekey></theme>"
      "</catalogRequest>");
  EXPECT_EQ(*added.root->attribute("status"), "ok");
  EXPECT_EQ(catalog_.query(workload::theme_keyword_query("air_temperature")).size(), 1u);
}

TEST_F(ServiceTest, DefineRequest) {
  const xml::Document defined = send(
      "<catalogRequest type=\"define\" name=\"radiation\" source=\"WRF\">"
      "<element name=\"ra_lw_physics\" type=\"int\"/>"
      "<element name=\"ra_sw_physics\" type=\"int\"/>"
      "</catalogRequest>");
  EXPECT_EQ(*defined.root->attribute("status"), "ok");
  const auto def = catalog_.registry().find_attribute("radiation", "WRF", kNoAttr);
  ASSERT_TRUE(def.has_value());
  EXPECT_TRUE(catalog_.registry().find_element("ra_lw_physics", "WRF", def->id).has_value());
}

TEST_F(ServiceTest, PrivateDefineIsUserScoped) {
  send("<catalogRequest type=\"define\" user=\"alice\" name=\"qc\" source=\"mine\"/>");
  EXPECT_FALSE(catalog_.registry().find_attribute("qc", "mine", kNoAttr).has_value());
  EXPECT_TRUE(catalog_.registry().find_attribute("qc", "mine", kNoAttr, "alice").has_value());
}

TEST_F(ServiceTest, StatsRequest) {
  send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
       "</catalogRequest>");
  const xml::Document stats = send("<catalogRequest type=\"stats\"/>");
  const xml::Node* payload = stats.root->first_child("stats");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(*payload->attribute("objects"), "1");
  EXPECT_EQ(*payload->attribute("attributes"), "4");
}

TEST_F(ServiceTest, ErrorsBecomeErrorResponsesNotExceptions) {
  // Malformed XML.
  xml::Document response = send("<not closed");
  EXPECT_EQ(*response.root->attribute("status"), "error");
  // Wrong root.
  response = send("<somethingElse/>");
  EXPECT_EQ(*response.root->attribute("status"), "error");
  // Unknown type.
  response = send("<catalogRequest type=\"bogus\"/>");
  EXPECT_EQ(*response.root->attribute("status"), "error");
  // Non-conforming ingest payload.
  response = send("<catalogRequest type=\"ingest\"><wrong/></catalogRequest>");
  EXPECT_EQ(*response.root->attribute("status"), "error");
  EXPECT_FALSE(response.root->child_text("message").empty());
  // Bad object ids.
  response = send("<catalogRequest type=\"delete\" objectID=\"99\"/>");
  EXPECT_EQ(*response.root->attribute("status"), "error");
}

TEST_F(ServiceTest, RandomQueriesSurviveWireRoundTrip) {
  send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
       "</catalogRequest>");
  workload::DocumentGenerator generator;
  for (std::uint64_t i = 0; i < 20; ++i) {
    catalog_.ingest(generator.generate(i), "d", "u");
  }
  workload::QueryGenerator queries;
  for (std::uint64_t q = 0; q < 25; ++q) {
    const ObjectQuery original = queries.generate(q);
    const xml::Document doc = xml::parse(query_to_xml(original));
    const ObjectQuery parsed = query_from_xml(*doc.root);
    EXPECT_EQ(catalog_.query(original), catalog_.query(parsed)) << "query " << q;
  }
}

}  // namespace
}  // namespace hxrc::core
