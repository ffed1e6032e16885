// Wire-protocol conformance: every request type in → tagged response out,
// every error code reachable, pagination/cursor semantics, and the
// dispatcher disciplines (deadline, admission queue, metrics).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/dispatcher.hpp"
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

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : schema_(workload::lead_schema()),
        catalog_(schema_, workload::lead_annotations(), auto_define_config()),
        service_(catalog_) {}

  xml::Document send(const std::string& request) {
    return xml::parse(service_.handle(request));
  }

  /// The response's error code attribute ("" for ok responses).
  std::string code_of(const xml::Document& response) {
    const std::string_view* code = response.root->attribute("code");
    return code == nullptr ? std::string{} : std::string(*code);
  }

  void ingest_fig3(int count = 1) {
    for (int i = 0; i < count; ++i) {
      send("<catalogRequest type=\"ingest\" user=\"u\">" + workload::fig3_document() +
           "</catalogRequest>");
    }
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  CatalogService service_;
};

// ---- ok paths: every request type round-trips to a tagged response ----

TEST_F(ProtocolTest, EveryRequestTypeRoundTrips) {
  // ingest
  xml::Document response = send("<catalogRequest type=\"ingest\" name=\"fig3\">" +
                                workload::fig3_document() + "</catalogRequest>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  EXPECT_EQ(response.root->child_text("objectID"), "0");

  // define
  response = send(
      "<catalogRequest type=\"define\" name=\"radiation\" source=\"WRF\">"
      "<element name=\"ra_lw_physics\" type=\"int\"/></catalogRequest>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  EXPECT_FALSE(response.root->child_text("attributeID").empty());

  // addAttribute
  response = send(
      "<catalogRequest type=\"addAttribute\" objectID=\"0\" "
      "path=\"data/idinfo/keywords/theme\">"
      "<theme><themekt>CF</themekt><themekey>air_temperature</themekey></theme>"
      "</catalogRequest>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  ASSERT_NE(response.root->first_child("added"), nullptr);

  // query (full tagged documents)
  response = send(query_to_xml(workload::paper_example_query()));
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  ASSERT_NE(response.root->first_child("results"), nullptr);
  EXPECT_EQ(response.root->first_child("results")->children_named("result").size(), 1u);

  // queryIds
  ObjectQuery ids_query = workload::paper_example_query();
  std::string wire = query_to_xml(ids_query);
  wire.replace(wire.find("type=\"query\""), 12, "type=\"queryIds\"");
  response = send(wire);
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  ASSERT_NE(response.root->first_child("objectIDs"), nullptr);

  // fetch
  response = send("<catalogRequest type=\"fetch\" objectID=\"0\"/>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  EXPECT_FALSE(xml::select(*response.root, "results/result/LEADresource").empty());

  // stats
  response = send("<catalogRequest type=\"stats\"/>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  const xml::Node* stats = response.root->first_child("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(*stats->attribute("objects"), "1");
  EXPECT_NE(stats->attribute("version"), nullptr);
  EXPECT_NE(stats->attribute("deleted"), nullptr);

  // MVCC counters: the epoch matches the catalog version, the handler's
  // own pinned guard is visible, and every superseded snapshot so far has
  // been reclaimed (the single-threaded sequence leaves no reader pinning
  // old epochs).
  const xml::Node* mvcc = stats->first_child("mvcc");
  ASSERT_NE(mvcc, nullptr);
  EXPECT_EQ(std::stoull(std::string(*mvcc->attribute("epoch"))), catalog_.version());
  EXPECT_GE(std::stoull(std::string(*mvcc->attribute("pinned_readers"))), 1u);
  EXPECT_GT(std::stoull(std::string(*mvcc->attribute("snapshots"))), 0u);
  const auto pending = std::stoull(std::string(*mvcc->attribute("retired_pending")));
  const auto reclaimed = std::stoull(std::string(*mvcc->attribute("reclamations")));
  EXPECT_EQ(pending, 0u);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(catalog_.mvcc_stats().retired_pending, 0u);

  // delete
  response = send("<catalogRequest type=\"delete\" objectID=\"0\"/>");
  EXPECT_EQ(*response.root->attribute("status"), "ok");
  ASSERT_NE(response.root->first_child("deleted"), nullptr);
}

TEST_F(ProtocolTest, OkResponsesCarryTheCatalogVersion) {
  const std::uint64_t before = catalog_.version();
  const xml::Document response = send("<catalogRequest type=\"ingest\">" +
                                      workload::fig3_document() + "</catalogRequest>");
  const std::string_view* version = response.root->attribute("version");
  ASSERT_NE(version, nullptr);
  EXPECT_GT(std::stoull(std::string(*version)), before);
  EXPECT_EQ(std::stoull(std::string(*version)), catalog_.version());
}

// ---- error codes: every enumerated code is reachable on the wire ----

TEST_F(ProtocolTest, ParseErrorCode) {
  EXPECT_EQ(code_of(send("<not closed")), "parse_error");
  EXPECT_EQ(code_of(send("<somethingElse/>")), "parse_error");
  EXPECT_EQ(code_of(send("<catalogRequest/>")), "parse_error");  // missing type
}

TEST_F(ProtocolTest, UnknownTypeCode) {
  const xml::Document response = send("<catalogRequest type=\"bogus\"/>");
  EXPECT_EQ(code_of(response), "unknown_type");
  EXPECT_FALSE(response.root->child_text("message").empty());
}

TEST_F(ProtocolTest, ValidationCodeNamesTheFailingCriterion) {
  ingest_fig3();
  // Bad operator inside a nested criterion: the message carries the path.
  const xml::Document response = send(
      "<catalogRequest type=\"query\">"
      "<attribute name=\"grid\" source=\"ARPS\">"
      "<attribute name=\"grid-stretching\" source=\"ARPS\">"
      "<element name=\"dzmin\" op=\"almost\">100</element>"
      "</attribute></attribute></catalogRequest>");
  EXPECT_EQ(code_of(response), "validation");
  const std::string message = response.root->child_text("message");
  EXPECT_NE(message.find("grid/grid-stretching"), std::string::npos) << message;
  EXPECT_NE(message.find("almost"), std::string::npos) << message;

  // Nameless criteria are called out, with their parent context.
  EXPECT_EQ(code_of(send("<catalogRequest type=\"query\"><attribute/></catalogRequest>")),
            "validation");
  const xml::Document nameless = send(
      "<catalogRequest type=\"query\"><attribute name=\"grid\">"
      "<element/></attribute></catalogRequest>");
  EXPECT_NE(nameless.root->child_text("message").find("criterion 'grid'"),
            std::string::npos);
}

TEST_F(ProtocolTest, NotFoundCode) {
  ingest_fig3();
  EXPECT_EQ(code_of(send("<catalogRequest type=\"fetch\" objectID=\"99\"/>")),
            "not_found");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"delete\" objectID=\"99\"/>")),
            "not_found");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"addAttribute\" objectID=\"99\" "
                         "path=\"data/idinfo/keywords/theme\"><theme/>"
                         "</catalogRequest>")),
            "not_found");
  // Deleted objects are not_found too.
  send("<catalogRequest type=\"delete\" objectID=\"0\"/>");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"fetch\" objectID=\"0\"/>")),
            "not_found");
}

// ---- protocol versioning: the wire handshake ----

TEST_F(ProtocolTest, VersionHandshakeAcceptsOurMajor) {
  // Bare major, major.minor (unknown minors are additive), and absent
  // (requests predating the attribute are v1) are all served.
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"1\"/>")), "");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"1.3\"/>")), "");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\"/>")), "");
}

TEST_F(ProtocolTest, EveryResponseCarriesTheProtocolMajor) {
  for (const char* request :
       {"<catalogRequest type=\"stats\"/>", "<catalogRequest type=\"bogus\"/>",
        "<not closed"}) {
    const xml::Document response = send(request);
    const std::string_view* protocol = response.root->attribute("protocol");
    ASSERT_NE(protocol, nullptr) << request;
    EXPECT_EQ(*protocol, std::to_string(kProtocolMajor)) << request;
  }
}

TEST_F(ProtocolTest, UnsupportedVersionCode) {
  const xml::Document response =
      send("<catalogRequest type=\"stats\" version=\"2\"/>");
  EXPECT_EQ(code_of(response), "unsupported_version");
  EXPECT_NE(response.root->child_text("message").find("server speaks 1.x"),
            std::string::npos);
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"2.0\"/>")),
            "unsupported_version");
  // The handshake runs before the type is even considered.
  EXPECT_EQ(code_of(send("<catalogRequest type=\"bogus\" version=\"3\"/>")),
            "unsupported_version");
}

TEST_F(ProtocolTest, MalformedVersionIsValidationNotMismatch) {
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"abc\"/>")),
            "validation");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"1.x\"/>")),
            "validation");
  EXPECT_EQ(code_of(send("<catalogRequest type=\"stats\" version=\"0\"/>")),
            "validation");
}

// ---- the ErrorCode ↔ wire-string table (single source of truth) ----

TEST(ErrorCodeTable, RoundTripsEveryCode) {
  // The static_assert in service.hpp pins one row per enumerator; here:
  // rows are in enum order and name every code.
  for (std::size_t i = 0; i < std::size(kErrorCodeNames); ++i) {
    const ErrorCodeName& row = kErrorCodeNames[i];
    EXPECT_EQ(static_cast<std::size_t>(row.code), i) << row.name;
    EXPECT_EQ(error_code_name(row.code), row.name);
  }
}

TEST(ErrorCodeTable, WireResponsesUseTheTableSpelling) {
  for (const ErrorCodeName& row : kErrorCodeNames) {
    const xml::Document response = xml::parse(error_response(row.code, "boom"));
    EXPECT_EQ(*response.root->attribute("status"), "error");
    EXPECT_EQ(*response.root->attribute("code"), row.name);
  }
}

// ---- pagination ----

TEST_F(ProtocolTest, PaginatedQueryIdsWalksAllPagesInOrder) {
  ingest_fig3(5);
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  query.set_limit(2);
  std::string wire = query_to_xml(query);
  wire.replace(wire.find("type=\"query\""), 12, "type=\"queryIds\"");

  std::vector<std::string> seen;
  std::string cursor;
  for (int page = 0; page < 10; ++page) {
    xml::Document response = send(wire);
    ASSERT_EQ(*response.root->attribute("status"), "ok");
    const xml::Node* ids = response.root->first_child("objectIDs");
    ASSERT_NE(ids, nullptr);
    std::size_t page_size = 0;
    for (const xml::Node* id : ids->children_named("objectID")) {
      seen.push_back(id->text_content());
      ++page_size;
    }
    const std::string next = response.root->child_text("nextCursor");
    if (next.empty()) {
      EXPECT_LE(page_size, 2u);
      break;
    }
    EXPECT_EQ(page_size, 2u);
    // Continue from the cursor.
    ObjectQuery continued = workload::theme_keyword_query("convective_precipitation_flux");
    continued.set_limit(2).set_cursor(next);
    wire = query_to_xml(continued);
    wire.replace(wire.find("type=\"query\""), 12, "type=\"queryIds\"");
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"0", "1", "2", "3", "4"}));
}

TEST_F(ProtocolTest, QueryIdsOrderIsDeterministicAndSorted) {
  ingest_fig3(4);
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  std::string wire = query_to_xml(query);
  wire.replace(wire.find("type=\"query\""), 12, "type=\"queryIds\"");
  const std::string first = service_.handle(wire);
  const std::string second = service_.handle(wire);
  EXPECT_EQ(first, second);

  const xml::Document response = xml::parse(first);
  long previous = -1;
  for (const xml::Node* id :
       response.root->first_child("objectIDs")->children_named("objectID")) {
    const long value = std::stol(id->text_content());
    EXPECT_GT(value, previous);
    previous = value;
  }
}

TEST_F(ProtocolTest, StaleCursorCodeAfterMutation) {
  ingest_fig3(5);
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  query.set_limit(2);
  const xml::Document page = send(query_to_xml(query));
  const std::string cursor = page.root->child_text("nextCursor");
  ASSERT_FALSE(cursor.empty());

  // Any mutation bumps the epoch…
  ingest_fig3();

  // …and outstanding cursors go stale.
  ObjectQuery continued = workload::theme_keyword_query("convective_precipitation_flux");
  continued.set_limit(2).set_cursor(cursor);
  const xml::Document response = send(query_to_xml(continued));
  EXPECT_EQ(*response.root->attribute("status"), "error");
  EXPECT_EQ(code_of(response), "stale_cursor");
}

TEST_F(ProtocolTest, MalformedCursorIsValidationNotStale) {
  ingest_fig3();
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  query.set_limit(1).set_cursor("garbage");
  EXPECT_EQ(code_of(send(query_to_xml(query))), "validation");
}

TEST_F(ProtocolTest, CursorCodecAcceptsOnlyWhatItEmits) {
  ingest_fig3(5);
  ObjectQuery query = workload::theme_keyword_query("convective_precipitation_flux");
  query.set_limit(2);
  const std::string issued = send(query_to_xml(query)).root->child_text("nextCursor");
  ASSERT_EQ(issued.rfind("HXC1.", 0), 0u) << issued;
  const std::string epoch = issued.substr(5, issued.find('.', 5) - 5);

  // The issued cursor resumes; every other spelling of the same numbers is
  // malformed, not a cursor pinned at some epoch.
  query.set_cursor(issued);
  EXPECT_EQ(code_of(send(query_to_xml(query))), "");
  for (const std::string& spelling :
       {"HXC1. " + epoch + ".1", "HXC1.0x" + epoch + ".1", "HXC1.+" + epoch + ".1",
        "HXC1." + epoch + ".-1", "HXC1." + epoch + ".A", "HXC1." + epoch + ".1.",
        "HXC1." + epoch + "." + std::string(17, '1'), "HXC1." + epoch}) {
    query.set_cursor(spelling);
    const xml::Document response = send(query_to_xml(query));
    EXPECT_EQ(code_of(response), "validation") << spelling;
    EXPECT_EQ(response.root->child_text("message"), "malformed continuation cursor")
        << spelling;
  }
}

TEST_F(ProtocolTest, PaginationSurvivesWireRoundTrip) {
  ObjectQuery query = workload::paper_example_query().set_user("alice");
  query.set_limit(7).set_cursor("HXC1.0.3");
  const xml::Document doc = xml::parse(query_to_xml(query));
  const ObjectQuery parsed = query_from_xml(*doc.root);
  EXPECT_EQ(parsed.limit(), 7u);
  EXPECT_EQ(parsed.cursor(), "HXC1.0.3");
  EXPECT_EQ(query_to_xml(parsed), query_to_xml(query));
}

// ---- catalog-level pagination API ----

TEST_F(ProtocolTest, QueryPagedMatchesUnpagedUnion) {
  ingest_fig3(6);
  ObjectQuery base = workload::theme_keyword_query("convective_precipitation_flux");
  const std::vector<ObjectId> all = catalog_.query(base);
  ASSERT_EQ(all.size(), 6u);

  std::vector<ObjectId> collected;
  ObjectQuery paged = base;
  paged.set_limit(4);
  QueryPage page = catalog_.read_guard().query_paged(paged);
  collected.insert(collected.end(), page.ids.begin(), page.ids.end());
  while (!page.next_cursor.empty()) {
    ObjectQuery next = base;
    next.set_limit(4).set_cursor(page.next_cursor);
    page = catalog_.read_guard().query_paged(next);
    collected.insert(collected.end(), page.ids.begin(), page.ids.end());
  }
  EXPECT_EQ(collected, all);
  EXPECT_EQ(page.version, catalog_.version());
}

// ---- dispatcher: deadline, admission queue, metrics ----

TEST(DispatcherProtocol, TimeoutCodeWithoutTouchingTheCatalog) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  ServiceDispatcher dispatcher(catalog, DispatcherConfig{.workers = 1, .max_queue = 8});

  // timeoutMs="0" expires at admission: answered code="timeout", and the
  // ingest never executes.
  const std::string response =
      dispatcher.call("<catalogRequest type=\"ingest\" timeoutMs=\"0\">" +
                      workload::fig3_document() + "</catalogRequest>");
  const xml::Document doc = xml::parse(response);
  EXPECT_EQ(*doc.root->attribute("status"), "error");
  EXPECT_EQ(*doc.root->attribute("code"), "timeout");
  EXPECT_EQ(catalog.object_count(), 0u);

  const util::MetricsRegistry& metrics = dispatcher.metrics();
  const int slot = metrics.find("ingest");
  ASSERT_GE(slot, 0);
  EXPECT_EQ(metrics.at(static_cast<std::size_t>(slot)).timeouts.load(), 1u);
}

TEST(DispatcherProtocol, TimeoutHonoursAnyLegalSpellingOfTheAttribute) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  ServiceDispatcher dispatcher(catalog);

  for (const std::string root :
       {"<catalogRequest type='ingest' timeoutMs='0'>",
        "<catalogRequest type=\"ingest\" timeoutMs = '0' >",
        "<catalogRequest user=\"a>b\" type=\"ingest\" timeoutMs=\"0\">"}) {
    const xml::Document doc = xml::parse(
        dispatcher.call(root + workload::fig3_document() + "</catalogRequest>"));
    const std::string_view* code = doc.root->attribute("code");
    EXPECT_EQ(code == nullptr ? "" : *code, "timeout") << root;
  }
  EXPECT_EQ(catalog.object_count(), 0u);
}

TEST(DispatcherProtocol, QuotedAngleBracketDoesNotHideTypeFromTheCacheProbe) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  ServiceDispatcher dispatcher(catalog);
  dispatcher.call("<catalogRequest type=\"ingest\">" + workload::fig3_document() +
                  "</catalogRequest>");

  std::string request = query_to_xml(workload::paper_example_query());
  ASSERT_EQ(request.find("user="), std::string::npos);
  request.insert(std::string("<catalogRequest").size(), " user=\"a>b\"");
  const std::string cold = dispatcher.call(request);
  ASSERT_EQ(*xml::parse(cold).root->attribute("status"), "ok") << cold;
  const std::uint64_t bypass_before = catalog.cache_metrics().bypass.load();
  const std::uint64_t hits_before = catalog.cache_metrics().l2.hits.load();
  EXPECT_EQ(dispatcher.call(request), cold);
  EXPECT_GT(catalog.cache_metrics().l2.hits.load(), hits_before);
  EXPECT_EQ(catalog.cache_metrics().bypass.load(), bypass_before);
}

TEST(RootTagScan, MatchesWholeNamesOutsideQuotedValues) {
  const std::string_view tag =
      "<catalogRequest note='x type=\"no\"' xtype=\"no\" type = \"query\">"
      "<child type=\"inner\"/></catalogRequest>";
  const RootTagScan scan = scan_root_tag(tag, "type");
  EXPECT_EQ(scan.value, "query");
  EXPECT_EQ(tag.substr(scan.value_pos, 5), "query");
  EXPECT_EQ(tag.substr(0, scan.end).back(), '>');
  EXPECT_EQ(tag.substr(scan.end, 6), "<child");

  EXPECT_EQ(scan_root_tag(tag, "missing").value_pos, std::string_view::npos);
  EXPECT_EQ(scan_root_tag("<r a='unterminated>", "a").end, std::string_view::npos);
  EXPECT_EQ(scan_root_tag("<r a='unterminated>", "a").value_pos, std::string_view::npos);

  // peek_request_attr decodes entities exactly as the XML parser does.
  EXPECT_EQ(peek_request_attr("<r name='a&amp;b&#x3e;' type=\"&#105;ngest\"/>", "name"),
            "a&b>");
  EXPECT_EQ(peek_request_type("<r name='a&amp;b' type=\"&#105;ngest\"/>"), "ingest");
  EXPECT_EQ(peek_request_type("<r type='query'/>"), "query");
  EXPECT_EQ(peek_timeout_ms("<r timeoutMs='25'/>"), 25);
}

TEST(DispatcherProtocol, OverloadedCodeWhenAdmissionQueueIsFull) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());

  std::atomic<bool> release{false};
  DispatcherConfig config;
  config.workers = 1;
  config.max_queue = 1;
  config.before_execute = [&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ServiceDispatcher dispatcher(catalog, config);

  // First request occupies the single worker (held at the gate)…
  auto held = dispatcher.submit("<catalogRequest type=\"stats\"/>");
  while (dispatcher.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // …second fills the admission queue…
  auto queued = dispatcher.submit("<catalogRequest type=\"stats\"/>");
  // …third is rejected immediately, without blocking.
  auto rejected = dispatcher.submit("<catalogRequest type=\"stats\"/>");
  const xml::Document response = xml::parse(rejected.get());
  EXPECT_EQ(*response.root->attribute("status"), "error");
  EXPECT_EQ(*response.root->attribute("code"), "overloaded");

  release.store(true, std::memory_order_release);
  EXPECT_EQ(*xml::parse(held.get()).root->attribute("status"), "ok");
  EXPECT_EQ(*xml::parse(queued.get()).root->attribute("status"), "ok");

  const util::MetricsRegistry& metrics = dispatcher.metrics();
  const auto& stats_slot = metrics.at(static_cast<std::size_t>(metrics.find("stats")));
  EXPECT_EQ(stats_slot.rejected.load(), 1u);
  EXPECT_EQ(stats_slot.ok.load(), 2u);
}

TEST(DispatcherProtocol, StatsReportsPerRequestTypeMetrics) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  ServiceDispatcher dispatcher(catalog, DispatcherConfig{.workers = 2, .max_queue = 32});

  dispatcher.call("<catalogRequest type=\"ingest\">" + workload::fig3_document() +
                  "</catalogRequest>");
  dispatcher.call(query_to_xml(workload::paper_example_query()));
  dispatcher.call(query_to_xml(workload::paper_example_query()));
  dispatcher.call("<catalogRequest type=\"fetch\" objectID=\"42\"/>");  // not_found
  dispatcher.call("<catalogRequest type=\"nonsense\"/>");               // unknown_type

  const xml::Document stats =
      xml::parse(dispatcher.call("<catalogRequest type=\"stats\"/>"));
  ASSERT_EQ(*stats.root->attribute("status"), "ok");
  const xml::Node* requests = stats.root->first_child("stats")->first_child("requests");
  ASSERT_NE(requests, nullptr);

  bool saw_query = false, saw_fetch = false, saw_other = false;
  for (const xml::Node* request : requests->children_named("request")) {
    const std::string_view type = *request->attribute("type");
    if (type == "query") {
      saw_query = true;
      EXPECT_EQ(*request->attribute("handled"), "2");
      EXPECT_EQ(*request->attribute("ok"), "2");
      EXPECT_NE(request->attribute("p50_us"), nullptr);
    } else if (type == "fetch") {
      saw_fetch = true;
      EXPECT_EQ(*request->attribute("errors"), "1");
    } else if (type == "other") {
      saw_other = true;  // the unknown_type request lands in the catch-all
      EXPECT_EQ(*request->attribute("errors"), "1");
    }
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_fetch);
  EXPECT_TRUE(saw_other);
}

TEST(DispatcherProtocol, DefaultTimeoutFromConfigApplies) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());

  std::atomic<bool> release{false};
  DispatcherConfig config;
  config.workers = 1;
  config.max_queue = 8;
  config.default_timeout = std::chrono::milliseconds(20);
  config.before_execute = [&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ServiceDispatcher dispatcher(catalog, config);

  auto held = dispatcher.submit("<catalogRequest type=\"stats\"/>");
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // let the deadline lapse
  release.store(true, std::memory_order_release);
  const xml::Document response = xml::parse(held.get());
  EXPECT_EQ(*response.root->attribute("status"), "error");
  EXPECT_EQ(*response.root->attribute("code"), "timeout");
}

TEST(DispatcherProtocol, DrainRejectsNewWorkAndQuiesces) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());

  std::atomic<bool> release{false};
  DispatcherConfig config;
  config.workers = 1;
  config.max_queue = 8;
  config.before_execute = [&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ServiceDispatcher dispatcher(catalog, config);

  // An in-flight request must still complete after drain() is called.
  auto held = dispatcher.submit("<catalogRequest type=\"ingest\">" +
                                workload::fig3_document() + "</catalogRequest>");

  std::thread drainer([&dispatcher] { dispatcher.drain(); });
  while (!dispatcher.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Past the gate: new work is refused immediately, even with queue space.
  const xml::Document rejected =
      xml::parse(dispatcher.call("<catalogRequest type=\"stats\"/>"));
  EXPECT_EQ(*rejected.root->attribute("status"), "error");
  EXPECT_EQ(*rejected.root->attribute("code"), "draining");

  release.store(true, std::memory_order_release);
  drainer.join();  // drain() returns only once the in-flight request landed
  EXPECT_EQ(dispatcher.queue_depth(), 0u);
  EXPECT_EQ(*xml::parse(held.get()).root->attribute("status"), "ok");
  EXPECT_EQ(catalog.object_count(), 1u);

  dispatcher.drain();  // idempotent
  const xml::Document again =
      xml::parse(dispatcher.call("<catalogRequest type=\"query\"/>"));
  EXPECT_EQ(*again.root->attribute("code"), "draining");
}

TEST_F(ProtocolTest, StatsReportDurabilityCountersWhenAttached) {
  // Without a storage layer attached, stats omits the durability element.
  xml::Document plain = send("<catalogRequest type=\"stats\"/>");
  EXPECT_EQ(plain.root->first_child("stats")->first_child("durability"), nullptr);

  util::DurabilityMetrics wal;
  wal.wal_records.store(12);
  wal.wal_bytes.store(3456);
  wal.wal_fsyncs.store(2);
  wal.replayed_records.store(5);
  wal.torn_tail_truncations.store(1);
  wal.recovery_micros.store(7500);
  catalog_.set_durability_metrics(&wal);

  xml::Document stats = send("<catalogRequest type=\"stats\"/>");
  const xml::Node* durability =
      stats.root->first_child("stats")->first_child("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_EQ(*durability->attribute("wal_records"), "12");
  EXPECT_EQ(*durability->attribute("wal_bytes"), "3456");
  EXPECT_EQ(*durability->attribute("wal_fsyncs"), "2");
  EXPECT_EQ(*durability->attribute("replayed_records"), "5");
  EXPECT_EQ(*durability->attribute("torn_tail_truncations"), "1");
  EXPECT_EQ(*durability->attribute("recovery_ms"), "7");
  catalog_.set_durability_metrics(nullptr);
}

}  // namespace
}  // namespace hxrc::core
