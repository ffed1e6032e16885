// The federation layer: merge rules byte-for-byte, the replication wire
// codec, WAL shipping end-to-end (bootstrap, file catch-up, live stream,
// rotation adoption, reconnect dedupe), and the scatter-gather router over
// real shard servers — routing, gid remapping, merged pagination, replica
// failover, and partial degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "fed/merge.hpp"
#include "fed/replica.hpp"
#include "fed/router.hpp"
#include "fed/ship_wire.hpp"
#include "fed/shipper.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/parser.hpp"

namespace hxrc::fed {
namespace {

using namespace std::chrono_literals;

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

/// What readers of `catalog` see: the object count and epoch of its
/// published snapshot. object_count() and version() are bumped before a
/// commit publishes, so a wait on them can end while a fetch still reads
/// the previous snapshot.
struct Published {
  std::size_t objects;
  std::uint64_t epoch;
};
Published published(const core::MetadataCatalog& catalog) {
  const auto guard = catalog.read_guard();
  return {static_cast<std::size_t>(guard->next_object), guard.epoch()};
}

std::string status_of(const std::string& response_xml) {
  return std::string(*xml::parse(response_xml).root->attribute("status"));
}

std::string code_of(const std::string& response_xml) {
  const xml::Document doc = xml::parse(response_xml);
  const std::string_view* code = doc.root->attribute("code");
  return code == nullptr ? std::string{} : std::string(*code);
}

core::DispatcherConfig dispatcher_config(std::size_t workers, std::size_t max_queue,
                                         bool read_only = false) {
  core::DispatcherConfig config;
  config.workers = workers;
  config.max_queue = max_queue;
  config.read_only = read_only;
  return config;
}

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("hxrc_fed_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ingest_request(const std::string& name) {
  std::string request = "<catalogRequest type=\"ingest\" user=\"u\"";
  if (!name.empty()) request += " name=\"" + name + "\"";
  request += ">" + workload::fig3_document() + "</catalogRequest>";
  return request;
}

/// The wire form of the standard theme query, as query or queryIds, with
/// optional limit / continuation cursor.
std::string theme_query_wire(bool ids_only, std::size_t limit = 0,
                             const std::string& cursor = {}) {
  core::ObjectQuery query =
      workload::theme_keyword_query("convective_precipitation_flux");
  if (limit > 0) query.set_limit(limit);
  if (!cursor.empty()) query.set_cursor(cursor);
  std::string wire = core::query_to_xml(query);
  if (ids_only) {
    const auto pos = wire.find("type=\"query\"");
    wire.replace(pos, std::string("type=\"query\"").size(), "type=\"queryIds\"");
  }
  return wire;
}

std::vector<std::uint64_t> ids_of(const std::string& response_xml) {
  const ParsedResponse parsed = parse_response(response_xml);
  return parse_query_payload(parsed.payload, /*ids_only=*/true).ids;
}

// ---------------------------------------------------------------------------
// Merge layer, byte-for-byte.

TEST(FedMerge, GidMappingIsAnOrderPreservingBijection) {
  const std::uint32_t nshards = 3;
  std::uint64_t previous[3] = {0, 0, 0};
  for (std::uint64_t lid = 0; lid < 50; ++lid) {
    for (std::uint32_t shard = 0; shard < nshards; ++shard) {
      const std::uint64_t gid = gid_of(lid, shard, nshards);
      EXPECT_EQ(shard_of(gid, nshards), shard);
      EXPECT_EQ(lid_of(gid, nshards), lid);
      if (lid > 0) {
        EXPECT_GT(gid, previous[shard]);  // order preserved
      }
      previous[shard] = gid;
    }
  }
}

TEST(FedMerge, PlacementIsStableAndInRange) {
  for (std::uint32_t nshards : {1u, 2u, 4u, 7u}) {
    for (int i = 0; i < 64; ++i) {
      const std::string name = "doc-" + std::to_string(i);
      const std::uint32_t shard = placement_shard(name, nshards);
      EXPECT_LT(shard, nshards);
      EXPECT_EQ(placement_shard(name, nshards), shard);  // deterministic
    }
  }
}

TEST(FedMerge, ParseResponseOkErrorAndGarbage) {
  const std::string ok = ok_envelope(42, "<objectID>7</objectID>");
  const ParsedResponse parsed_ok = parse_response(ok);
  EXPECT_TRUE(parsed_ok.ok);
  EXPECT_EQ(parsed_ok.version, 42u);
  EXPECT_EQ(parsed_ok.payload, "<objectID>7</objectID>");

  // ok_envelope is byte-identical to what the service layer emits.
  EXPECT_EQ(ok,
            "<catalogResponse status=\"ok\" protocol=\"1\" version=\"42\">"
            "<objectID>7</objectID></catalogResponse>");

  const std::string error =
      core::error_response(core::ErrorCode::kStaleCursor, "cursor expired");
  const ParsedResponse parsed_error = parse_response(error);
  EXPECT_FALSE(parsed_error.ok);
  EXPECT_EQ(parsed_error.code, "stale_cursor");

  EXPECT_THROW(parse_response("<html>nope</html>"), FedError);
  EXPECT_THROW(parse_response("<catalogResponse status=\"ok\" version=\"1\">"),
               FedError);  // truncated envelope
  EXPECT_THROW(parse_response("<catalogResponse status=\"weird\">"
                              "</catalogResponse>"),
               FedError);
}

TEST(FedMerge, ParseQueryPayloadHandlesNestedResultElements) {
  // A stored document may itself contain <result> elements; the span scan
  // must track nesting instead of grabbing the first close tag.
  const std::string payload =
      "<results>"
      "<result objectID=\"3\"><doc><result note=\"inner\">x</result>"
      "<result/></doc></result>"
      "<result objectID=\"9\"><plain/></result>"
      "</results>";
  const QueryPayload page = parse_query_payload(payload, /*ids_only=*/false);
  ASSERT_EQ(page.results.size(), 2u);
  EXPECT_EQ(page.results[0].lid, 3u);
  EXPECT_EQ(page.results[0].body,
            "<doc><result note=\"inner\">x</result><result/></doc>");
  EXPECT_EQ(page.results[1].lid, 9u);
  EXPECT_EQ(page.results[1].body, "<plain/>");
  EXPECT_TRUE(page.next_cursor.empty());

  const QueryPayload ids = parse_query_payload(
      "<objectIDs><objectID>1</objectID><objectID>5</objectID></objectIDs>"
      "<nextCursor>HXC1.a.4</nextCursor>",
      /*ids_only=*/true);
  EXPECT_EQ(ids.ids, (std::vector<std::uint64_t>{1, 5}));
  EXPECT_EQ(ids.next_cursor, "HXC1.a.4");

  EXPECT_THROW(parse_query_payload("<objectIDs></objectIDs>trailing", true),
               FedError);
  EXPECT_THROW(parse_query_payload("<results><result objectID=\"1\">", false),
               FedError);
}

TEST(FedMerge, FedCursorRoundTripsAndRejectsMalformed) {
  FedCursor cursor;
  cursor.shard_count = 4;
  cursor.serving_mask = 0b1010;
  cursor.legs = {{0, 17, 250}, {2, 9, kNoLid}};
  const std::string text = encode_fed_cursor(cursor);
  EXPECT_EQ(text.rfind("HXF1.", 0), 0u);

  FedCursor decoded;
  ASSERT_TRUE(decode_fed_cursor(text, decoded));
  EXPECT_EQ(decoded.shard_count, 4u);
  EXPECT_EQ(decoded.serving_mask, 0b1010u);
  ASSERT_EQ(decoded.legs.size(), 2u);
  EXPECT_EQ(decoded.legs[0].shard, 0u);
  EXPECT_EQ(decoded.legs[0].epoch, 17u);
  EXPECT_EQ(decoded.legs[0].after_lid, 250u);
  EXPECT_EQ(decoded.legs[1].shard, 2u);
  EXPECT_EQ(decoded.legs[1].after_lid, kNoLid);

  FedCursor sink;
  EXPECT_FALSE(decode_fed_cursor("HXC1.1.2", sink));           // wrong family
  EXPECT_FALSE(decode_fed_cursor("HXF1.0.0.0", sink));         // zero shards
  EXPECT_FALSE(decode_fed_cursor("HXF1.41.0.0", sink));        // > 64 shards
  EXPECT_FALSE(decode_fed_cursor("HXF1.2.0.1.1.5", sink));     // truncated leg
  EXPECT_FALSE(decode_fed_cursor("HXF1.2.0.1.5.1.1", sink));   // shard >= count
  EXPECT_FALSE(decode_fed_cursor(text + ".ff", sink));         // trailing bytes
  EXPECT_FALSE(decode_fed_cursor("HXF1.2.0.1.1.zz.0", sink));  // non-hex
}

TEST(FedMerge, MergeProducesGloballyAscendingPageAndLegs) {
  // shard 0 lids {0,1,2} → gids {0,2,4}; shard 1 lids {0,1} → gids {1,3}.
  std::vector<MergeInput> inputs(2);
  inputs[0].shard = 0;
  inputs[0].version = 11;
  inputs[0].page.ids = {0, 1, 2};
  inputs[1].shard = 1;
  inputs[1].version = 12;
  inputs[1].page.ids = {0, 1};
  inputs[1].more = true;

  const MergeOutput full = merge_query_pages(inputs, 2, 0, /*ids_only=*/true);
  EXPECT_EQ(full.payload,
            "<objectIDs><objectID>0</objectID><objectID>1</objectID>"
            "<objectID>2</objectID><objectID>3</objectID>"
            "<objectID>4</objectID></objectIDs>");
  // Unbounded merge: only the shard that advertised more rows keeps a leg.
  EXPECT_TRUE(full.truncated);
  ASSERT_EQ(full.legs.size(), 1u);
  EXPECT_EQ(full.legs[0].shard, 1u);
  EXPECT_EQ(full.legs[0].epoch, 12u);
  EXPECT_EQ(full.legs[0].after_lid, 1u);

  const MergeOutput cut = merge_query_pages(inputs, 2, 3, /*ids_only=*/true);
  EXPECT_EQ(cut.payload,
            "<objectIDs><objectID>0</objectID><objectID>1</objectID>"
            "<objectID>2</objectID></objectIDs>");
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.legs.size(), 2u);
  EXPECT_EQ(cut.legs[0].shard, 0u);
  EXPECT_EQ(cut.legs[0].after_lid, 1u);  // consumed lids 0,1
  EXPECT_EQ(cut.legs[1].shard, 1u);
  EXPECT_EQ(cut.legs[1].after_lid, 0u);  // consumed lid 0

  // A limit that cuts before a shard contributes pins that leg at kNoLid.
  const MergeOutput first = merge_query_pages(inputs, 2, 1, /*ids_only=*/true);
  ASSERT_EQ(first.legs.size(), 2u);
  EXPECT_EQ(first.legs[0].after_lid, 0u);
  EXPECT_EQ(first.legs[1].after_lid, kNoLid);

  // Result-carrying merge rewrites ids and keeps bodies verbatim.
  std::vector<MergeInput> docs(2);
  docs[0].shard = 0;
  docs[0].page.results = {{0, "<a/>"}};
  docs[1].shard = 1;
  docs[1].page.results = {{0, "<b/>"}};
  const MergeOutput merged = merge_query_pages(docs, 2, 0, /*ids_only=*/false);
  EXPECT_EQ(merged.payload,
            "<results><result objectID=\"0\"><a/></result>"
            "<result objectID=\"1\"><b/></result></results>");
  EXPECT_FALSE(merged.truncated);
}

TEST(FedMerge, MergeStatsSumsCountsAndKeepsMaxima) {
  const std::string s0 =
      "<stats objects=\"2\" attributes=\"4\" elements=\"10\" clobs=\"1\" "
      "definitions=\"6\" deleted=\"0\" version=\"9\"><extra/></stats>";
  const std::string s1 =
      "<stats objects=\"3\" attributes=\"5\" elements=\"12\" clobs=\"0\" "
      "definitions=\"7\" deleted=\"2\" version=\"8\"/>";
  const std::string merged =
      merge_stats_payload({{0, false, s0}, {1, true, s1}});
  EXPECT_EQ(merged,
            "<stats objects=\"5\" attributes=\"9\" elements=\"22\" clobs=\"1\" "
            "deleted=\"2\" definitions=\"7\" version=\"9\" shards=\"2\">"
            "<shard index=\"0\" endpoint=\"primary\" objects=\"2\" "
            "attributes=\"4\" elements=\"10\" clobs=\"1\" deleted=\"0\" "
            "definitions=\"6\" version=\"9\"/>"
            "<shard index=\"1\" endpoint=\"replica\" objects=\"3\" "
            "attributes=\"5\" elements=\"12\" clobs=\"0\" deleted=\"2\" "
            "definitions=\"7\" version=\"8\"/></stats>");
  EXPECT_THROW(merge_stats_payload({{0, false, "<metrics/>"}}), FedError);
}

TEST(FedMerge, RewriteRootAttrReplacesOnlyTheRootValue) {
  const std::string rewritten = rewrite_root_attr(
      "<catalogRequest type=\"fetch\" objectID=\"41\"><x objectID=\"9\"/>"
      "</catalogRequest>",
      "objectID", "20");
  EXPECT_EQ(rewritten,
            "<catalogRequest type=\"fetch\" objectID=\"20\"><x objectID=\"9\"/>"
            "</catalogRequest>");
  EXPECT_THROW(rewrite_root_attr("<catalogRequest/>", "objectID", "1"),
               FedError);
}

TEST(FedMerge, RewriteRootAttrKeepsQuotesAndSkipsQuotedValues) {
  // A '>' or an attribute-like run inside another value neither ends the
  // root tag nor matches; the rewritten value keeps its quote character.
  EXPECT_EQ(rewrite_root_attr(
                "<catalogRequest user=\"a>b objectID='3'\" type='fetch' "
                "objectID = '41'/>",
                "objectID", "20"),
            "<catalogRequest user=\"a>b objectID='3'\" type='fetch' "
            "objectID = '20'/>");
  EXPECT_THROW(rewrite_root_attr("<catalogRequest xobjectID='4'/>", "objectID", "1"),
               FedError);
  const ParsedResponse parsed = parse_response(
      "<catalogResponse note='x>y' status='ok' version='7'><deleted/></catalogResponse>");
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.version, 7u);
  EXPECT_EQ(parsed.payload, "<deleted/>");
}

// ---------------------------------------------------------------------------
// Replication wire codec.

TEST(ShipWire, MessagesRoundTrip) {
  const std::string hello = encode_hello({3, 7, 9});
  EXPECT_EQ(peek_ship_msg(hello), ShipMsg::kHello);
  const HelloMsg h = decode_hello(hello);
  EXPECT_EQ(h.wal_seq, 3u);
  EXPECT_EQ(h.applied_lsn, 7u);
  EXPECT_EQ(h.records_applied, 9u);

  BootstrapMsg boot;
  boot.wal_seq = 4;
  boot.prev_records = 11;
  boot.epoch = 6;
  boot.snapshot = std::string("SNAP\0BIN", 8);  // binary-safe
  const std::string encoded = encode_bootstrap(boot);
  EXPECT_EQ(peek_ship_msg(encoded), ShipMsg::kBootstrap);
  const BootstrapMsg b = decode_bootstrap(encoded);
  EXPECT_EQ(b.wal_seq, 4u);
  EXPECT_EQ(b.prev_records, 11u);
  EXPECT_EQ(b.epoch, 6u);
  EXPECT_EQ(b.snapshot, boot.snapshot);

  const std::string chunk = encode_chunk(2, 5, "raw frame bytes");
  EXPECT_EQ(peek_ship_msg(chunk), ShipMsg::kChunk);
  const ChunkMsg c = decode_chunk(chunk);
  EXPECT_EQ(c.wal_seq, 2u);
  EXPECT_EQ(c.first_lsn, 5u);
  EXPECT_EQ(c.frames, "raw frame bytes");

  const AckMsg a = decode_ack(encode_ack({12}));
  EXPECT_EQ(a.applied_lsn, 12u);
}

TEST(ShipWire, DecodersRejectGarbageAndWrongKinds) {
  EXPECT_THROW(peek_ship_msg(""), storage::WalError);
  EXPECT_THROW(peek_ship_msg("\x09"), storage::WalError);
  EXPECT_THROW(decode_hello(encode_ack({1})), storage::WalError);
  EXPECT_THROW(decode_ack(encode_hello({1, 2, 3})), storage::WalError);
  std::string chunk = encode_chunk(1, 1, "abc");
  chunk.pop_back();  // truncate the frames field
  EXPECT_THROW(decode_chunk(chunk), storage::WalError);
}

// ---------------------------------------------------------------------------
// WAL shipping end-to-end, in process.

/// A shard primary: catalog + durability on a temp dir.
struct PrimaryProcess {
  explicit PrimaryProcess(const std::string& dir)
      : schema(workload::lead_schema()),
        catalog(schema, workload::lead_annotations(), auto_define_config()) {
    storage::DurabilityConfig config;
    config.data_dir = dir;
    durable = std::make_unique<storage::DurableCatalog>(catalog, config);
  }

  core::ObjectId ingest(const std::string& name) {
    return catalog.ingest_xml(workload::fig3_document(), name, "u");
  }

  xml::Schema schema;
  core::MetadataCatalog catalog;
  std::unique_ptr<storage::DurableCatalog> durable;
};

/// A read replica: catalog + replication listener on an ephemeral port.
struct ReplicaProcess {
  ReplicaProcess()
      : schema(workload::lead_schema()),
        catalog(schema, workload::lead_annotations(), auto_define_config()),
        listener(catalog) {
    listener.start();
  }

  xml::Schema schema;
  core::MetadataCatalog catalog;
  ReplicationListener listener;
};

ShipperOptions ship_to(const ReplicaProcess& replica) {
  ShipperOptions options;
  options.port = replica.listener.port();
  options.reconnect_ms = 50;
  return options;
}

TEST(Replication, BootstrapFileCatchUpThenLiveStream) {
  const std::string dir = temp_dir("catchup");
  {
    PrimaryProcess primary(dir);
    // Mutations that predate the shipper must arrive via the file catch-up.
    for (int i = 0; i < 3; ++i) primary.ingest("pre-" + std::to_string(i));
    primary.durable->flush();

    ReplicaProcess replica;
    WalShipper shipper(*primary.durable, ship_to(replica));
    shipper.start();
    ASSERT_TRUE(wait_until([&] { return published(replica.catalog).objects == 3; }));

    // Mutations after attach ride the live stream.
    for (int i = 0; i < 2; ++i) primary.ingest("live-" + std::to_string(i));
    primary.durable->flush();
    ASSERT_TRUE(wait_until([&] {
      const Published seen = published(replica.catalog);
      return seen.objects == 5 && seen.epoch == published(primary.catalog).epoch;
    }));
    EXPECT_TRUE(wait_until([&] { return replica.listener.state().applied_lsn.load() > 0; }));
    EXPECT_EQ(replica.listener.state().bootstraps.load(), 1u);

    // The replica serves byte-identical reads at the same epoch.
    core::CatalogService primary_service(primary.catalog);
    core::CatalogService replica_service(replica.catalog);
    for (int id = 0; id < 5; ++id) {
      const std::string fetch = "<catalogRequest type=\"fetch\" objectID=\"" +
                                std::to_string(id) + "\"/>";
      EXPECT_EQ(primary_service.handle(fetch), replica_service.handle(fetch));
    }

    shipper.stop();
    replica.listener.stop();
    primary.durable->close();
  }
  std::filesystem::remove_all(dir);
}

TEST(Replication, CheckpointRotationAdoptedMidStream) {
  const std::string dir = temp_dir("rotate");
  {
    PrimaryProcess primary(dir);
    ReplicaProcess replica;
    WalShipper shipper(*primary.durable, ship_to(replica));
    shipper.start();

    primary.ingest("a");
    primary.ingest("b");
    primary.durable->flush();
    ASSERT_TRUE(wait_until([&] { return published(replica.catalog).objects == 2; }));

    // Checkpoint rotates the WAL; the replica must adopt the new sequence
    // as a clean +1 rotation and keep applying.
    primary.durable->checkpoint();
    primary.ingest("c");
    primary.durable->flush();
    ASSERT_TRUE(wait_until([&] {
      const Published seen = published(replica.catalog);
      return seen.objects == 3 && seen.epoch == published(primary.catalog).epoch &&
             replica.listener.state().wal_seq.load() == primary.durable->wal_seq();
    }));
    // Connect-time bootstrap + the rotation.
    EXPECT_EQ(replica.listener.state().bootstraps.load(), 2u);

    shipper.stop();
    replica.listener.stop();
    primary.durable->close();
  }
  std::filesystem::remove_all(dir);
}

TEST(Replication, ReconnectCatchesUpFromTheFileAndDedupes) {
  const std::string dir = temp_dir("reconnect");
  {
    PrimaryProcess primary(dir);
    ReplicaProcess replica;
    {
      WalShipper shipper(*primary.durable, ship_to(replica));
      shipper.start();
      primary.ingest("a");
      primary.ingest("b");
      primary.durable->flush();
      ASSERT_TRUE(wait_until([&] { return published(replica.catalog).objects == 2; }));
      shipper.stop();
    }

    // Mutations while no shipper is attached: only the WAL file has them.
    primary.ingest("c");
    primary.ingest("d");
    primary.ingest("e");
    primary.durable->flush();

    WalShipper shipper(*primary.durable, ship_to(replica));
    shipper.start();
    ASSERT_TRUE(wait_until([&] {
      const Published seen = published(replica.catalog);
      return seen.objects == 5 && seen.epoch == published(primary.catalog).epoch;
    }));
    // The second connection found a non-fresh replica: no second bootstrap,
    // no double-applied records (connections is a live gauge — only the
    // second shipper is still attached).
    EXPECT_EQ(replica.listener.state().bootstraps.load(), 1u);
    EXPECT_EQ(replica.listener.state().connections.load(), 1u);

    shipper.stop();
    replica.listener.stop();
    primary.durable->close();
  }
  std::filesystem::remove_all(dir);
}

TEST(Replication, ReadOnlyReplicaRefusesClientMutations) {
  ReplicaProcess replica;
  replica.catalog.set_replication_state(&replica.listener.state());
  core::ServiceDispatcher dispatcher(replica.catalog, dispatcher_config(1, 8, true));

  EXPECT_EQ(code_of(dispatcher.call(ingest_request("doc"))), "validation");
  EXPECT_EQ(code_of(dispatcher.call(
                "<catalogRequest type=\"delete\" objectID=\"0\"/>")),
            "validation");
  EXPECT_EQ(code_of(dispatcher.call(
                "<catalogRequest type=\"define\" name=\"n\" source=\"s\"/>")),
            "validation");

  // Reads still flow, and stats reports the replication watermark.
  EXPECT_EQ(status_of(dispatcher.call(theme_query_wire(true))), "ok");
  const std::string stats =
      dispatcher.call("<catalogRequest type=\"stats\"/>");
  EXPECT_EQ(status_of(stats), "ok");
  EXPECT_NE(stats.find("<replication "), std::string::npos);

  replica.listener.stop();
}

// ---------------------------------------------------------------------------
// The router, over real shard servers.

/// One shard process: catalog + dispatcher + server on an ephemeral port.
struct FedShard {
  FedShard()
      : schema(workload::lead_schema()),
        catalog(schema, workload::lead_annotations(), auto_define_config()),
        dispatcher(catalog, dispatcher_config(2, 64)) {
    net::ServerConfig config;
    config.port = 0;
    server = std::make_unique<net::CatalogServer>(dispatcher, config);
    server->start();
  }

  xml::Schema schema;
  core::MetadataCatalog catalog;
  core::ServiceDispatcher dispatcher;
  std::unique_ptr<net::CatalogServer> server;
};

/// N plain shards behind one router. Probing is off so health transitions
/// in tests are driven only by the calls the tests make.
struct FedCluster {
  explicit FedCluster(std::uint32_t n) {
    RouterOptions options;
    for (std::uint32_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<FedShard>());
      ShardEndpoint endpoint;
      endpoint.primary_port = shards.back()->server->port();
      options.shards.push_back(endpoint);
    }
    options.workers = 2;
    options.io_timeout_ms = 2000;
    options.probe_interval_ms = 0;
    router = std::make_unique<FederationRouter>(std::move(options));
  }

  std::string route(const std::string& request) { return router->route(request); }

  std::vector<std::unique_ptr<FedShard>> shards;
  std::unique_ptr<FederationRouter> router;
};

TEST(Router, IngestRoutesByNameAndRemapsPointOps) {
  FedCluster cluster(2);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "doc-" + std::to_string(i);
    const std::string response = cluster.route(ingest_request(name));
    ASSERT_EQ(status_of(response), "ok") << response;
    const std::uint64_t gid = std::stoull(
        std::string(xml::parse(response).root->child_text("objectID")));
    // Placement is the published hash: the gid's shard matches it.
    EXPECT_EQ(shard_of(gid, 2), placement_shard(name, 2)) << name;
    gids.push_back(gid);
  }
  EXPECT_EQ(cluster.shards[0]->catalog.object_count() +
                cluster.shards[1]->catalog.object_count(),
            6u);

  // Fetch through the router answers under the global id.
  for (const std::uint64_t gid : gids) {
    const std::string fetched = cluster.route(
        "<catalogRequest type=\"fetch\" objectID=\"" + std::to_string(gid) +
        "\"/>");
    ASSERT_EQ(status_of(fetched), "ok");
    const xml::Document doc = xml::parse(fetched);
    const auto results = doc.root->first_child("results")->children_named("result");
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(*results[0]->attribute("objectID"), std::to_string(gid));
  }

  // addAttribute and delete route by gid; not_found names the gid, not the
  // shard's local id.
  const std::uint64_t victim = gids[3];
  EXPECT_EQ(status_of(cluster.route(
                "<catalogRequest type=\"addAttribute\" objectID=\"" +
                std::to_string(victim) +
                "\" path=\"data/idinfo/keywords/theme\">"
                "<theme><themekt>CF NetCDF</themekt>"
                "<themekey>air_temperature</themekey></theme>"
                "</catalogRequest>")),
            "ok");
  EXPECT_EQ(status_of(cluster.route("<catalogRequest type=\"delete\" objectID=\"" +
                                    std::to_string(victim) + "\"/>")),
            "ok");
  const std::string refetched = cluster.route(
      "<catalogRequest type=\"fetch\" objectID=\"" + std::to_string(victim) +
      "\"/>");
  EXPECT_EQ(code_of(refetched), "not_found");
  EXPECT_NE(refetched.find("object " + std::to_string(victim) + " does not exist"),
            std::string::npos);

  // Unknown types surface the canonical service error via shard 0.
  EXPECT_EQ(code_of(cluster.route("<catalogRequest type=\"frobnicate\"/>")),
            "unknown_type");
}

/// Four spellings of one request whose root tag leads with
/// user="a&gt;b": as written (double quotes, '>' escaped); with every
/// root-tag quote single; with the '>' in user left literal, so a quoted
/// '>' precedes type=; and with the first character of every other root
/// value written as a character reference (type="&#102;etch"). The shard's
/// XML parser reads all four alike, so the router must too.
std::vector<std::string> spellings(const std::string& canonical) {
  const std::size_t root_end = canonical.find('>');
  std::string single = canonical;
  std::replace(single.begin(), single.begin() + static_cast<std::ptrdiff_t>(root_end),
               '"', '\'');
  std::string angle = canonical;
  angle.replace(angle.find("a&gt;b"), 6, "a>b");
  std::string escaped;
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    escaped += canonical[i];
    if (i < root_end && canonical[i] == '"' && canonical[i - 1] == '=' &&
        canonical[i + 1] != '&') {
      escaped += "&#" + std::to_string(static_cast<int>(canonical[++i])) + ";";
    }
  }
  return {canonical, single, angle, escaped};
}

std::string fetch_request(std::uint64_t gid) {
  return "<catalogRequest user=\"a&gt;b\" type=\"fetch\" objectID=\"" +
         std::to_string(gid) + "\"/>";
}

TEST(Router, EveryLegalSpellingRoutesLikeTheCanonicalRequest) {
  FedCluster cluster(4);
  // Ingest: every spelling lands on its name's placement shard and gets a
  // fresh gid (a misrouted ingest would return a raw shard-0 local id).
  std::vector<std::uint64_t> gids;
  std::vector<std::string> resources;
  for (int i = 0; i < 4; ++i) {
    for (std::size_t v = 0; v < 4; ++v) {
      const std::string name = "doc-" + std::to_string(i) + "-" + std::to_string(v);
      std::string doc = workload::fig3_document();
      doc.replace(doc.find("arps-run-42"), 11, "run-" + name);
      const std::string canonical = "<catalogRequest user=\"a&gt;b\" type=\"ingest\" name=\"" +
                                    name + "\">" + doc + "</catalogRequest>";
      const std::string response = cluster.route(spellings(canonical)[v]);
      ASSERT_EQ(status_of(response), "ok") << response;
      const std::uint64_t gid = std::stoull(
          std::string(xml::parse(response).root->child_text("objectID")));
      EXPECT_EQ(shard_of(gid, 4), placement_shard(name, 4)) << name;
      EXPECT_EQ(std::count(gids.begin(), gids.end(), gid), 0) << name;
      gids.push_back(gid);
      resources.push_back("run-" + name);
    }
  }

  // Fetch: all spellings answer the same object, under its gid.
  for (std::size_t g = 0; g < gids.size(); ++g) {
    const std::vector<std::string> variants = spellings(fetch_request(gids[g]));
    const std::string expected = cluster.route(variants[0]);
    ASSERT_EQ(status_of(expected), "ok") << expected;
    EXPECT_NE(expected.find(resources[g]), std::string::npos);
    for (std::size_t v = 1; v < variants.size(); ++v) {
      EXPECT_EQ(cluster.route(variants[v]), expected) << gids[g] << " spelling " << v;
    }
  }

  // Query: every spelling yields the same merged page and cursor.
  std::string wire = theme_query_wire(false, 5);
  wire.insert(std::string("<catalogRequest").size(), " user=\"a&gt;b\"");
  const std::vector<std::string> queries = spellings(wire);
  const std::string page = cluster.route(queries[0]);
  ASSERT_EQ(status_of(page), "ok") << page;
  EXPECT_EQ(parse_query_payload(parse_response(page).payload, false).results.size(), 5u);
  for (std::size_t v = 1; v < queries.size(); ++v) {
    EXPECT_EQ(cluster.route(queries[v]), page) << "spelling " << v;
  }

  // Delete: each spelling removes exactly the named object.
  for (std::size_t v = 0; v < 4; ++v) {
    const std::uint64_t victim = gids[v];
    std::string request = fetch_request(victim);
    request.replace(request.find("fetch"), 5, "delete");
    ASSERT_EQ(status_of(cluster.route(spellings(request)[v])), "ok");
    EXPECT_EQ(code_of(cluster.route(fetch_request(victim))), "not_found") << victim;
  }
  for (std::size_t g = 4; g < gids.size(); ++g) {
    EXPECT_EQ(status_of(cluster.route(fetch_request(gids[g]))), "ok") << gids[g];
  }
}

TEST(Router, QueryMergeIsByteIdenticalToShardPages) {
  FedCluster cluster(2);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 6; ++i) {
    const std::string response = cluster.route(ingest_request({}));  // round robin
    ASSERT_EQ(status_of(response), "ok");
    gids.push_back(std::stoull(
        std::string(xml::parse(response).root->child_text("objectID"))));
  }

  // queryIds: the merged page is every gid, globally ascending.
  const std::string id_response = cluster.route(theme_query_wire(true));
  ASSERT_EQ(status_of(id_response), "ok") << id_response;
  std::sort(gids.begin(), gids.end());
  EXPECT_EQ(ids_of(id_response), gids);

  // query: rebuild the expected merged payload from each shard's own page
  // and compare the router's response byte-for-byte.
  const std::string wire = theme_query_wire(false);
  std::vector<std::pair<std::uint64_t, std::string>> expected_rows;
  std::uint64_t version = 0;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    const std::string shard_response = cluster.shards[shard]->dispatcher.call(wire);
    const ParsedResponse parsed = parse_response(shard_response);
    ASSERT_TRUE(parsed.ok);
    version = std::max(version, parsed.version);
    for (const ResultSpan& span : parse_query_payload(parsed.payload, false).results) {
      expected_rows.emplace_back(gid_of(span.lid, shard, 2), std::string(span.body));
    }
  }
  std::sort(expected_rows.begin(), expected_rows.end());
  std::string expected = "<results>";
  for (const auto& [gid, body] : expected_rows) {
    expected += "<result objectID=\"" + std::to_string(gid) + "\">" + body +
                "</result>";
  }
  expected += "</results>";
  EXPECT_EQ(cluster.route(wire), ok_envelope(version, expected));
}

TEST(Router, DefineBroadcastAssignsIdenticalIdsEverywhere) {
  FedCluster cluster(3);
  const std::string response = cluster.route(
      "<catalogRequest type=\"define\" name=\"radiation\" source=\"WRF\">"
      "<element name=\"ra_lw_physics\" type=\"int\"/>"
      "</catalogRequest>");
  ASSERT_EQ(status_of(response), "ok") << response;
  const std::string id_text =
      std::string(xml::parse(response).root->child_text("attributeID"));

  for (const auto& shard : cluster.shards) {
    const auto def =
        shard->catalog.registry().find_attribute("radiation", "WRF", core::kNoAttr);
    ASSERT_TRUE(def.has_value());
    EXPECT_EQ(std::to_string(def->id), id_text);
  }
}

TEST(Router, PaginationWalksEveryRowThenStalesOnMutation) {
  FedCluster cluster(2);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 11; ++i) {
    const std::string response = cluster.route(ingest_request({}));
    ASSERT_EQ(status_of(response), "ok");
    gids.push_back(std::stoull(
        std::string(xml::parse(response).root->child_text("objectID"))));
  }
  std::sort(gids.begin(), gids.end());

  // Walk pages of 4 through the federated cursor.
  std::vector<std::uint64_t> walked;
  std::string cursor;
  int pages = 0;
  do {
    const std::string response =
        cluster.route(theme_query_wire(true, 4, cursor));
    ASSERT_EQ(status_of(response), "ok") << response;
    const ParsedResponse parsed = parse_response(response);
    const QueryPayload page = parse_query_payload(parsed.payload, true);
    EXPECT_LE(page.ids.size(), 4u);
    walked.insert(walked.end(), page.ids.begin(), page.ids.end());
    cursor = page.next_cursor;
    ASSERT_LT(++pages, 16);
  } while (!cursor.empty());
  EXPECT_EQ(walked, gids);  // complete, duplicate-free, globally ascending
  EXPECT_GE(pages, 3);

  // A mutation between pages stales the continuation.
  const std::string first_page = cluster.route(theme_query_wire(true, 4));
  const std::string resume_cursor =
      parse_query_payload(parse_response(first_page).payload, true).next_cursor;
  ASSERT_FALSE(resume_cursor.empty());
  ASSERT_EQ(status_of(cluster.route(ingest_request("late-arrival"))), "ok");
  EXPECT_EQ(code_of(cluster.route(theme_query_wire(true, 4, resume_cursor))),
            "stale_cursor");

  // Malformed and wrong-topology cursors are rejected, not misread.
  EXPECT_EQ(code_of(cluster.route(theme_query_wire(true, 4, "HXF1.zz"))),
            "validation");
  EXPECT_EQ(code_of(cluster.route(theme_query_wire(true, 4, "HXF1.4.0.0"))),
            "stale_cursor");
}

TEST(Router, DeadShardDegradesToPartialAnswers) {
  FedCluster cluster(2);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 4; ++i) {
    const std::string response = cluster.route(ingest_request({}));
    ASSERT_EQ(status_of(response), "ok");
    gids.push_back(std::stoull(
        std::string(xml::parse(response).root->child_text("objectID"))));
  }

  cluster.shards[1]->server->shutdown();  // hard kill, no replica

  // Scatter reads degrade: ok, annotated partial, no continuation cursor.
  const std::string degraded = cluster.route(theme_query_wire(true));
  ASSERT_EQ(status_of(degraded), "ok") << degraded;
  EXPECT_NE(degraded.find("<partial code=\"partial\" shards=\"1\"/>"),
            std::string::npos);
  EXPECT_EQ(degraded.find("<nextCursor>"), std::string::npos);
  const ParsedResponse parsed = parse_response(degraded);
  // What survives is exactly shard 0's rows.
  const std::size_t annotation = parsed.payload.find("<partial");
  ASSERT_NE(annotation, std::string_view::npos);
  const QueryPayload survivors =
      parse_query_payload(parsed.payload.substr(0, annotation), true);
  EXPECT_EQ(survivors.ids.size(), cluster.shards[0]->catalog.object_count());

  // Stats degrade the same way.
  const std::string stats = cluster.route("<catalogRequest type=\"stats\"/>");
  ASSERT_EQ(status_of(stats), "ok");
  EXPECT_NE(stats.find("<partial code=\"partial\" shards=\"1\"/>"),
            std::string::npos);

  // Point ops on the dead shard are unavailable; the live shard still works.
  for (const std::uint64_t gid : gids) {
    const std::string fetched = cluster.route(
        "<catalogRequest type=\"fetch\" objectID=\"" + std::to_string(gid) +
        "\"/>");
    if (shard_of(gid, 2) == 1) {
      EXPECT_EQ(code_of(fetched), "unavailable");
    } else {
      EXPECT_EQ(status_of(fetched), "ok");
    }
  }

  // Defines must reach every shard, so they refuse to run degraded.
  EXPECT_EQ(code_of(cluster.route(
                "<catalogRequest type=\"define\" name=\"n\" source=\"s\"/>")),
            "unavailable");
}

TEST(Router, FailoverServesReadsFromReplicaAndStalesCursors) {
  const std::string dir = temp_dir("failover");
  {
    // Shard 0 is a durable primary shipping to a live replica; shard 1 is a
    // plain in-memory shard.
    PrimaryProcess primary(dir);
    core::ServiceDispatcher primary_dispatcher(primary.catalog, dispatcher_config(2, 64));
    net::ServerConfig primary_net;
    primary_net.port = 0;
    auto primary_server =
        std::make_unique<net::CatalogServer>(primary_dispatcher, primary_net);
    primary_server->start();

    ReplicaProcess replica;
    replica.catalog.set_replication_state(&replica.listener.state());
    core::ServiceDispatcher replica_dispatcher(replica.catalog,
                                               dispatcher_config(2, 64, true));
    net::ServerConfig replica_net;
    replica_net.port = 0;
    net::CatalogServer replica_server(replica_dispatcher, replica_net);
    replica_server.start();

    WalShipper shipper(*primary.durable, ship_to(replica));
    shipper.start();

    FedShard shard1;

    RouterOptions options;
    ShardEndpoint shard0_endpoint;
    shard0_endpoint.primary_port = primary_server->port();
    shard0_endpoint.replica_host = "127.0.0.1";
    shard0_endpoint.replica_port = replica_server.port();
    options.shards.push_back(shard0_endpoint);
    ShardEndpoint shard1_endpoint;
    shard1_endpoint.primary_port = shard1.server->port();
    options.shards.push_back(shard1_endpoint);
    options.workers = 2;
    options.io_timeout_ms = 2000;
    options.probe_interval_ms = 0;
    FederationRouter router(options);

    std::vector<std::uint64_t> gids;
    for (int i = 0; i < 8; ++i) {
      const std::string response = router.route(ingest_request({}));
      ASSERT_EQ(status_of(response), "ok") << response;
      gids.push_back(std::stoull(
          std::string(xml::parse(response).root->child_text("objectID"))));
    }
    std::sort(gids.begin(), gids.end());
    primary.durable->flush();
    ASSERT_TRUE(wait_until([&] {
      const Published seen = published(replica.catalog);
      const Published want = published(primary.catalog);
      return seen.objects == want.objects && seen.epoch == want.epoch;
    }));

    // A cursor issued while the primary serves...
    const std::string first_page = router.route(theme_query_wire(true, 3));
    ASSERT_EQ(status_of(first_page), "ok");
    const std::string cursor =
        parse_query_payload(parse_response(first_page).payload, true).next_cursor;
    ASSERT_FALSE(cursor.empty());

    // ... then the primary dies hard.
    primary_server->shutdown();
    primary_server.reset();

    // Reads fail over to the replica under the same gids.
    std::uint64_t shard0_gid = 0, shard1_gid = 0;
    for (const std::uint64_t gid : gids) {
      (shard_of(gid, 2) == 0 ? shard0_gid : shard1_gid) = gid;
    }
    const std::string failed_over = router.route(
        "<catalogRequest type=\"fetch\" objectID=\"" +
        std::to_string(shard0_gid) + "\"/>");
    ASSERT_EQ(status_of(failed_over), "ok") << failed_over;
    const xml::Document doc = xml::parse(failed_over);
    const auto results = doc.root->first_child("results")->children_named("result");
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(*results[0]->attribute("objectID"), std::to_string(shard0_gid));

    // The serving set changed, so the old cursor is stale — never wrong rows.
    const std::string resumed = router.route(theme_query_wire(true, 3, cursor));
    EXPECT_EQ(code_of(resumed), "stale_cursor") << resumed;

    // A fresh query is complete (replica covers shard 0) and not partial.
    const std::string fresh = router.route(theme_query_wire(true));
    ASSERT_EQ(status_of(fresh), "ok") << fresh;
    EXPECT_EQ(fresh.find("<partial"), std::string::npos);
    EXPECT_EQ(ids_of(fresh), gids);

    // Mutations never fail over to the read-only replica.
    EXPECT_EQ(code_of(router.route("<catalogRequest type=\"delete\" objectID=\"" +
                                   std::to_string(shard0_gid) + "\"/>")),
              "unavailable");
    // The live shard keeps accepting writes.
    EXPECT_EQ(status_of(router.route("<catalogRequest type=\"delete\" objectID=\"" +
                                     std::to_string(shard1_gid) + "\"/>")),
              "ok");

    shipper.stop();
    replica.listener.stop();
    primary.durable->close();
  }
  std::filesystem::remove_all(dir);
}

/// Two shards behind a router: shard 0's durable primary ships its WAL to
/// a live read replica, shard 1 is a plain in-memory shard.
struct ReplicatedCluster {
  explicit ReplicatedCluster(const std::string& dir)
      : primary(dir),
        primary_dispatcher(primary.catalog, dispatcher_config(2, 64)),
        replica_dispatcher(replica.catalog, dispatcher_config(2, 64, true)),
        shipper(*primary.durable, ship_to(replica)) {
    replica.catalog.set_replication_state(&replica.listener.state());
    net::ServerConfig net_config;
    net_config.port = 0;
    primary_server = std::make_unique<net::CatalogServer>(primary_dispatcher, net_config);
    primary_server->start();
    replica_server = std::make_unique<net::CatalogServer>(replica_dispatcher, net_config);
    replica_server->start();
    shipper.start();

    RouterOptions options;
    ShardEndpoint shard0;
    shard0.primary_port = primary_server->port();
    shard0.replica_host = "127.0.0.1";
    shard0.replica_port = replica_server->port();
    ShardEndpoint shard1;
    shard1.primary_port = plain.server->port();
    options.shards = {shard0, shard1};
    options.workers = 2;
    options.io_timeout_ms = 2000;
    options.probe_interval_ms = 0;
    router = std::make_unique<FederationRouter>(std::move(options));
  }

  ~ReplicatedCluster() {
    router.reset();
    shipper.stop();
    replica.listener.stop();
    primary.durable->close();
  }

  /// True once the replica has applied everything the primary published.
  bool replica_caught_up() {
    primary.durable->flush();
    return wait_until([&] {
      const Published seen = published(replica.catalog);
      const Published want = published(primary.catalog);
      return seen.objects == want.objects && seen.epoch == want.epoch;
    });
  }

  PrimaryProcess primary;
  ReplicaProcess replica;
  core::ServiceDispatcher primary_dispatcher;
  core::ServiceDispatcher replica_dispatcher;
  std::unique_ptr<net::CatalogServer> primary_server;
  std::unique_ptr<net::CatalogServer> replica_server;
  WalShipper shipper;
  FedShard plain;
  std::unique_ptr<FederationRouter> router;
};

/// The first "doc-<i>" name whose placement is `shard`.
std::string name_on_shard(std::uint32_t shard, std::uint32_t nshards) {
  for (int i = 0;; ++i) {
    const std::string name = "doc-" + std::to_string(i);
    if (placement_shard(name, nshards) == shard) return name;
  }
}

TEST(Router, DeadPrimaryServesEveryReadFromTheReplicaAndRefusesEveryMutation) {
  const std::string dir = temp_dir("one_rule");
  {
    ReplicatedCluster cluster(dir);
    std::vector<std::uint64_t> gids;
    for (int i = 0; i < 6; ++i) {
      const std::string response = cluster.router->route(ingest_request({}));
      ASSERT_EQ(status_of(response), "ok") << response;
      gids.push_back(std::stoull(
          std::string(xml::parse(response).root->child_text("objectID"))));
    }
    std::sort(gids.begin(), gids.end());
    ASSERT_TRUE(cluster.replica_caught_up());
    const std::uint64_t shard0_gid = gids[0];
    ASSERT_EQ(shard_of(shard0_gid, 2), 0u);

    cluster.primary_server->shutdown();  // hard kill of shard 0's primary
    cluster.primary_server.reset();

    struct Case {
      std::string type;
      std::string request;
      bool read;
      /// Reads: a fragment of the replica-served answer.
      std::string expect;
    };
    const std::string gid_text = std::to_string(shard0_gid);
    const std::vector<Case> cases = {
        {"fetch", fetch_request(shard0_gid), true, "<result objectID=\"" + gid_text + "\">"},
        {"queryIds", theme_query_wire(true), true, "<objectID>" + gid_text + "</objectID>"},
        {"stats", "<catalogRequest type=\"stats\"/>", true,
         "<shard index=\"0\" endpoint=\"replica\""},
        {"ingest", ingest_request(name_on_shard(0, 2)), false, {}},
        {"delete", "<catalogRequest type=\"delete\" objectID=\"" + gid_text + "\"/>", false,
         {}},
        {"define", "<catalogRequest type=\"define\" name=\"n\" source=\"s\"/>", false, {}},
        {"unknown type", "<catalogRequest type=\"frobnicate\"/>", false, {}},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.type);
      const std::string response = cluster.router->route(c.request);
      if (c.read) {
        ASSERT_EQ(status_of(response), "ok") << response;
        EXPECT_EQ(response.find("<partial"), std::string::npos) << response;
        EXPECT_NE(response.find(c.expect), std::string::npos) << response;
      } else {
        EXPECT_EQ(code_of(response), "unavailable") << response;
        EXPECT_NE(response.find("shard 0 is unreachable"), std::string::npos) << response;
      }
    }
    // The replica's answer is complete: every gid, shard 0's included.
    EXPECT_EQ(ids_of(cluster.router->route(theme_query_wire(true))), gids);
  }
  std::filesystem::remove_all(dir);
}

TEST(Router, RestartedShardIsReachedThroughOneFreshDial) {
  FedCluster cluster(2);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 4; ++i) {
    const std::string response = cluster.route(ingest_request({}));
    ASSERT_EQ(status_of(response), "ok") << response;
    gids.push_back(std::stoull(
        std::string(xml::parse(response).root->child_text("objectID"))));
  }
  std::uint64_t shard1_gid = 0;
  for (const std::uint64_t gid : gids) {
    if (shard_of(gid, 2) == 1) shard1_gid = gid;
  }
  ASSERT_EQ(shard_of(shard1_gid, 2), 1u);

  // Restarting shard 1's server on its port leaves the router's pooled
  // connection to it stale (SO_REUSEADDR lets the new listener bind).
  const auto restart_shard1 = [&] {
    FedShard& shard = *cluster.shards[1];
    net::ServerConfig config;
    config.port = shard.server->port();
    shard.server->shutdown();
    shard.server.reset();
    shard.server = std::make_unique<net::CatalogServer>(shard.dispatcher, config);
    shard.server->start();
  };
  // After each restart the request succeeds through its one fresh dial, and
  // the endpoint stays alive: stats (a read, which skips dead endpoints)
  // still hears from every primary.
  const auto still_alive = [&] {
    const std::string stats = cluster.route("<catalogRequest type=\"stats\"/>");
    return status_of(stats) == "ok" && stats.find("<partial") == std::string::npos &&
           stats.find("<shard index=\"1\" endpoint=\"primary\"") != std::string::npos;
  };

  restart_shard1();
  const std::string fetched = cluster.route(fetch_request(shard1_gid));
  ASSERT_EQ(status_of(fetched), "ok") << fetched;
  EXPECT_NE(fetched.find("objectID=\"" + std::to_string(shard1_gid) + "\""),
            std::string::npos);
  EXPECT_TRUE(still_alive());

  restart_shard1();
  const std::string queried = cluster.route(theme_query_wire(true));
  ASSERT_EQ(status_of(queried), "ok") << queried;
  std::sort(gids.begin(), gids.end());
  EXPECT_EQ(ids_of(queried), gids);
  EXPECT_TRUE(still_alive());

  restart_shard1();
  const std::string ingested = cluster.route(ingest_request(name_on_shard(1, 2)));
  ASSERT_EQ(status_of(ingested), "ok") << ingested;
  EXPECT_EQ(shard_of(std::stoull(std::string(
                         xml::parse(ingested).root->child_text("objectID"))),
                     2),
            1u);
  EXPECT_TRUE(still_alive());
}

TEST(Router, ReadRevivesADeadPrimaryAfterTheRevivalDelay) {
  FedCluster cluster(2);  // the prober is off
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 4; ++i) {
    const std::string response = cluster.route(ingest_request({}));
    ASSERT_EQ(status_of(response), "ok") << response;
    gids.push_back(std::stoull(
        std::string(xml::parse(response).root->child_text("objectID"))));
  }
  std::sort(gids.begin(), gids.end());

  FedShard& shard = *cluster.shards[1];
  net::ServerConfig config;
  config.port = shard.server->port();
  shard.server->shutdown();
  shard.server.reset();
  const std::string degraded = cluster.route(theme_query_wire(true));
  ASSERT_NE(degraded.find("<partial code=\"partial\" shards=\"1\"/>"), std::string::npos)
      << degraded;

  // The shard comes back on its port; only reads reach the router.
  shard.server = std::make_unique<net::CatalogServer>(shard.dispatcher, config);
  shard.server->start();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(FederationRouter::kRevivalDelayMs + 100));
  const std::string revived = cluster.route(theme_query_wire(true));
  ASSERT_EQ(status_of(revived), "ok") << revived;
  EXPECT_EQ(revived.find("<partial"), std::string::npos) << revived;
  EXPECT_EQ(ids_of(revived), gids);
}

TEST(Router, OneReadAtATimeProbesAPrimaryThatNeverAnswers) {
  // Shard 0's primary completes connections from its listen backlog but
  // never answers, so every attempt on it costs two io timeouts (the pooled
  // call and its fresh dial). Its replica is a live shard.
  net::Socket silent = net::listen_tcp(0, 64);
  FedShard replica;
  RouterOptions options;
  ShardEndpoint endpoint;
  endpoint.primary_port = net::local_port(silent.fd());
  endpoint.replica_host = "127.0.0.1";
  endpoint.replica_port = replica.server->port();
  options.shards.push_back(endpoint);
  options.io_timeout_ms = 400;
  options.probe_interval_ms = 0;
  FederationRouter router(std::move(options));
  const std::string stats = "<catalogRequest type=\"stats\"/>";
  // The first read marks the primary dead and is answered by the replica.
  ASSERT_EQ(status_of(router.route(stats)), "ok");

  // Concurrent readers for five revival periods: each half-open attempt
  // outlasts the revival delay, yet no read may claim one while another is
  // still in flight.
  using Clock = std::chrono::steady_clock;
  struct Span {
    Clock::time_point start;
    Clock::time_point end;
  };
  std::mutex mutex;
  std::vector<Span> slow;
  std::atomic<int> incomplete{0};
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(5 * FederationRouter::kRevivalDelayMs);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (Clock::now() < deadline) {
        const Span span{Clock::now(), {}};
        const std::string response = router.route(stats);
        const Span done{span.start, Clock::now()};
        if (status_of(response) != "ok" || response.find("<partial") != std::string::npos) {
          ++incomplete;
        }
        if (done.end - done.start >= 400ms) {
          std::lock_guard lock(mutex);
          slow.push_back(done);
        }
        std::this_thread::sleep_for(5ms);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(incomplete.load(), 0);
  ASSERT_FALSE(slow.empty());  // the delay passed, so some read probed
  std::sort(slow.begin(), slow.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  const auto ms = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(t - slow[0].start).count();
  };
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_LE(ms(slow[i - 1].end), ms(slow[i].start))
        << "half-open attempts " << i - 1 << " and " << i << " overlap";
  }
}

TEST(Router, StatsMergeSumsShardsAndReportsTopology) {
  FedCluster cluster(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(status_of(cluster.route(ingest_request({}))), "ok");
  }
  const std::string stats = cluster.route("<catalogRequest type=\"stats\"/>");
  ASSERT_EQ(status_of(stats), "ok") << stats;
  const xml::Document doc = xml::parse(stats);
  const xml::Node* merged = doc.root->first_child("stats");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(*merged->attribute("objects"), "5");
  EXPECT_EQ(*merged->attribute("shards"), "2");
  const auto children = merged->children_named("shard");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(*children[0]->attribute("endpoint"), "primary");
}

TEST(Router, BrokerSurfaceDrainsAndRefusesLateWork) {
  FedCluster cluster(1);
  ASSERT_EQ(status_of(cluster.route(ingest_request("doc"))), "ok");

  cluster.router->drain();
  std::string late;
  cluster.router->submit_async(
      "<catalogRequest type=\"stats\"/>", [&](std::string r) { late = std::move(r); },
      true);
  EXPECT_EQ(code_of(late), "draining");
}

TEST(Router, DestroyedRightAfterAsyncCompletions) {
  // The last completion's bookkeeping must be finished before drain() lets
  // the destructor run (TSan flags a condition variable destroyed while a
  // worker still notifies it).
  FedShard shard;
  for (int round = 0; round < 20; ++round) {
    RouterOptions options;
    ShardEndpoint endpoint;
    endpoint.primary_port = shard.server->port();
    options.shards.push_back(endpoint);
    options.workers = 4;
    options.io_timeout_ms = 2000;
    options.probe_interval_ms = 0;
    auto router = std::make_unique<FederationRouter>(std::move(options));
    constexpr int kBurst = 16;
    std::atomic<int> completed{0};
    std::promise<void> all_done;
    for (int i = 0; i < kBurst; ++i) {
      router->submit_async(
          "<catalogRequest type=\"stats\"/>",
          [&](std::string) {
            if (completed.fetch_add(1) + 1 == kBurst) all_done.set_value();
          },
          true);
    }
    all_done.get_future().wait();
    router.reset();  // at once: the last worker may still be finishing up
  }
}

}  // namespace
}  // namespace hxrc::fed
