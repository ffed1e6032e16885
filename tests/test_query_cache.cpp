// Snapshot-keyed query cache: correctness first (bit-identical cached vs
// uncached responses, DOM-oracle cross-checks), then the MVCC contract
// (a pinned snapshot never observes a newer generation, cached or not),
// then the bounded-capacity behaviors (CLOCK eviction, negative caching,
// cursor re-entry through the L1 memo). The churn suites honor the
// HXRC_STRESS_THREADS / HXRC_STRESS_SEED knobs so the cache-stress CI
// matrix can widen them under ThreadSanitizer without recompiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/engine.hpp"
#include "core/service.hpp"
#include "core/thesaurus.hpp"
#include "util/metrics.hpp"
#include "util/sharded_cache.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace hxrc::core {
namespace {

CatalogConfig cached_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;  // cache.enabled defaults to true
}

CatalogConfig uncached_config() {
  CatalogConfig config = cached_config();
  config.cache.enabled = false;
  return config;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

/// Same document stream into both catalogs so the only variable is the
/// cache.
void ingest_docs(MetadataCatalog& catalog, int count, std::uint64_t seed = 0) {
  workload::DocumentGenerator generator;
  for (int i = 0; i < count; ++i) {
    xml::Document doc = generator.generate(seed + static_cast<std::uint64_t>(i));
    catalog.ingest(doc, "doc-" + std::to_string(i), "u");
  }
}

std::string queryIds_wire(const ObjectQuery& query) {
  std::string wire = query_to_xml(query);
  wire.replace(wire.find("type=\"query\""), 12, "type=\"queryIds\"");
  return wire;
}

// ---- bit-identical responses, cached vs uncached ----

TEST(QueryCache, CachedResponsesBitIdenticalToUncached) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog cached(schema, workload::lead_annotations(), cached_config());
  MetadataCatalog uncached(schema, workload::lead_annotations(), uncached_config());
  ingest_docs(cached, 12);
  ingest_docs(uncached, 12);
  CatalogService cached_service(cached);
  CatalogService uncached_service(uncached);

  workload::QueryGenerator query_gen;
  std::vector<std::string> requests;
  for (std::uint64_t q = 0; q < 12; ++q) {
    const ObjectQuery query = query_gen.generate(q);
    requests.push_back(query_to_xml(query));
    requests.push_back(queryIds_wire(query));
  }
  requests.push_back(query_to_xml(workload::paper_example_query()));
  for (int id = 0; id < 12; ++id) {
    requests.push_back("<catalogRequest type=\"fetch\" objectID=\"" +
                       std::to_string(id) + "\"/>");
  }

  for (const std::string& request : requests) {
    const std::string oracle = uncached_service.handle(request);
    const std::string cold = cached_service.handle(request);  // miss + insert
    const std::string warm = cached_service.handle(request);  // L2 hit
    EXPECT_EQ(cold, oracle) << request;
    EXPECT_EQ(warm, cold) << request;
    // DOM-level cross-check: byte equality is the strong claim, canonical
    // DOM equality catches any accidental byte-compare blind spot.
    EXPECT_EQ(xml::canonical(xml::parse(warm)), xml::canonical(xml::parse(oracle)));
  }
  // handle() probes no L2 (that is the dispatcher's parse-free fast path)
  // but repeated queries do re-enter the engine-level memo.
  EXPECT_GT(cached.cache_metrics().l1.hits.load(), 0u);
  EXPECT_GT(cached.cache_metrics().l2.inserts.load(), 0u);
}

// ---- the dispatcher's synchronous fast path serves the same bytes ----

TEST(QueryCache, DispatcherFastPathMatchesWorkerPath) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 8);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  const std::string request = query_to_xml(workload::paper_example_query());
  const std::string first = dispatcher.call(request);  // worker path, inserts
  // Now the entry is hot: try_cached must return the identical buffer.
  auto hit = dispatcher.try_cached(request);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body, first);
  EXPECT_TRUE(hit->ok);
  // And the future path serves it synchronously too.
  EXPECT_EQ(dispatcher.call(request), first);
}

// ---- per-type metrics stay truthful on cache hits ----

TEST(QueryCache, CacheHitsChargeRequestMetrics) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 4);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  const std::string request = query_to_xml(workload::paper_example_query());
  dispatcher.call(request);
  dispatcher.call(request);  // L2 hit
  const int slot = dispatcher.metrics().find("query");
  ASSERT_GE(slot, 0);
  const util::RequestStats& stats = dispatcher.metrics().at(static_cast<std::size_t>(slot));
  EXPECT_EQ(stats.handled.load(), 2u);
  EXPECT_EQ(stats.ok.load(), 2u);
  EXPECT_EQ(stats.errors.load(), 0u);
}

// ---- timeoutMs="0" must never be answered from cache ----

TEST(QueryCache, ExpiredDeadlineBypassesCache) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 4);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  std::string request = query_to_xml(workload::paper_example_query());
  dispatcher.call(request);  // warm the entry
  std::string expired = request;
  expired.replace(expired.find("<catalogRequest"), 15,
                  "<catalogRequest timeoutMs=\"0\"");
  const std::uint64_t bypass_before = catalog.cache_metrics().bypass.load();
  const xml::Document response = xml::parse(dispatcher.call(expired));
  EXPECT_EQ(*response.root->attribute("status"), "error");
  EXPECT_EQ(*response.root->attribute("code"), "timeout");
  EXPECT_GT(catalog.cache_metrics().bypass.load(), bypass_before);
}

// ---- negative results are cached ----

TEST(QueryCache, NotFoundFetchIsNegativelyCached) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 2);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  const std::string request = "<catalogRequest type=\"fetch\" objectID=\"999\"/>";
  const std::string first = dispatcher.call(request);
  const xml::Document doc = xml::parse(first);
  EXPECT_EQ(*doc.root->attribute("status"), "error");
  EXPECT_EQ(*doc.root->attribute("code"), "not_found");

  auto hit = dispatcher.try_cached(request);
  ASSERT_NE(hit, nullptr) << "negative fetch result must be cached";
  EXPECT_FALSE(hit->ok);
  EXPECT_EQ(hit->error_code, static_cast<int>(ErrorCode::kNotFound));
  EXPECT_EQ(hit->body, first);

  // The error must be charged to errors, not ok, on the hit path too.
  const int slot = dispatcher.metrics().find("fetch");
  ASSERT_GE(slot, 0);
  const util::RequestStats& stats = dispatcher.metrics().at(static_cast<std::size_t>(slot));
  EXPECT_EQ(stats.errors.load(), 2u);  // miss path + try_cached hit
}

// ---- zero-hit queries are cached ----

TEST(QueryCache, ZeroHitQueryIsCached) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 2);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  AttrQuery attr("nonexistent-attr", "NOSRC");
  ObjectQuery query;
  query.add_attribute(std::move(attr));
  const std::string request = query_to_xml(query);
  const std::string cold = dispatcher.call(request);
  const std::uint64_t hits_before = catalog.cache_metrics().l2.hits.load();
  const std::string warm = dispatcher.call(request);
  EXPECT_EQ(warm, cold);
  EXPECT_GT(catalog.cache_metrics().l2.hits.load(), hits_before);
}

// ---- mutation invalidates (new generation, fresh empty segment) ----

TEST(QueryCache, MutationInvalidatesByGenerationTurnover) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  // Fig. 3 documents all match the paper's example query.
  for (int i = 0; i < 4; ++i) {
    catalog.ingest_xml(workload::fig3_document(), "fig3-" + std::to_string(i), "u");
  }
  CatalogService service(catalog);

  const ObjectQuery query = workload::paper_example_query();
  const std::string ids_request = queryIds_wire(query);
  const std::string before = service.handle(ids_request);
  EXPECT_EQ(service.handle(ids_request), before);  // cached, identical

  const std::vector<ObjectId> before_ids = catalog.query(query);
  ASSERT_FALSE(before_ids.empty());
  catalog.delete_object(before_ids.front());

  // The new snapshot owns a fresh segment: the stale entry is unreachable.
  const xml::Document after = xml::parse(service.handle(ids_request));
  std::vector<std::string> after_ids;
  for (const xml::Node* node :
       after.root->first_child("objectIDs")->children_named("objectID")) {
    after_ids.push_back(std::string(node->text_content()));
  }
  EXPECT_EQ(std::count(after_ids.begin(), after_ids.end(),
                       std::to_string(before_ids.front())),
            0)
      << "deleted object must vanish from the cached query immediately";
}

// ---- cursor pagination re-enters through the L1 memo ----

TEST(QueryCache, CursorPagesReuseMemoizedIdSet) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  for (int i = 0; i < 6; ++i) {
    catalog.ingest_xml(workload::fig3_document(), "fig3-" + std::to_string(i), "u");
  }

  const ObjectQuery base = workload::paper_example_query();
  const std::vector<ObjectId> all = catalog.query(base);
  ASSERT_GT(all.size(), 2u) << "need multiple pages for this test";

  ObjectQuery paged = base;
  paged.set_limit(1);
  std::vector<ObjectId> collected;
  std::string cursor;
  const std::uint64_t l1_hits_before = catalog.cache_metrics().l1.hits.load();
  for (;;) {
    ObjectQuery page_query = base;
    page_query.set_limit(1);
    if (!cursor.empty()) page_query.set_cursor(cursor);
    const QueryPage page = catalog.read_guard().query_paged(page_query);
    collected.insert(collected.end(), page.ids.begin(), page.ids.end());
    if (page.next_cursor.empty()) break;
    cursor = page.next_cursor;
  }
  EXPECT_EQ(collected, all);
  // Page 2..N re-entered via the memoized id-set: at least N-1 L1 hits.
  EXPECT_GE(catalog.cache_metrics().l1.hits.load() - l1_hits_before, all.size() - 1);
}

// ---- bounded capacity: CLOCK eviction under pressure ----

TEST(QueryCache, EvictionKeepsCapacityBoundedAndAnswersCorrect) {
  CatalogConfig config = cached_config();
  config.cache.shards = 1;
  config.cache.l2_max_entries = 8;
  config.cache.l1_max_entries = 8;
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), config);
  ingest_docs(catalog, 32);
  CatalogService service(catalog);

  // 32 distinct fetches through an 8-entry L2: eviction must kick in, the
  // resident gauge must respect the bound, and every response (evicted and
  // re-computed or cached) must stay correct.
  std::vector<std::string> oracles;
  for (int id = 0; id < 32; ++id) {
    const std::string request =
        "<catalogRequest type=\"fetch\" objectID=\"" + std::to_string(id) + "\"/>";
    oracles.push_back(service.handle(request));
  }
  EXPECT_GT(catalog.cache_metrics().l2.evictions.load(), 0u);
  EXPECT_LE(catalog.cache_metrics().l2.entries.load(), 8u);
  for (int id = 0; id < 32; ++id) {
    const std::string request =
        "<catalogRequest type=\"fetch\" objectID=\"" + std::to_string(id) + "\"/>";
    EXPECT_EQ(service.handle(request), oracles[static_cast<std::size_t>(id)]);
  }
}

// ---- stats XML exposes the cache section ----

TEST(QueryCache, StatsReportCacheCounters) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 4);
  ServiceDispatcher dispatcher(catalog, {.workers = 2});

  const std::string request = query_to_xml(workload::paper_example_query());
  dispatcher.call(request);
  dispatcher.call(request);  // L2 hit through the dispatcher probe

  const xml::Document stats =
      xml::parse(dispatcher.call("<catalogRequest type=\"stats\"/>"));
  const xml::Node* cache = stats.root->first_child("stats")->first_child("cache");
  ASSERT_NE(cache, nullptr);
  const xml::Node* l2 = cache->first_child("l2");
  ASSERT_NE(l2, nullptr);
  EXPECT_GE(std::stoull(std::string(*l2->attribute("hits"))), 1u);
  EXPECT_GE(std::stoull(std::string(*l2->attribute("entries"))), 1u);
  ASSERT_NE(cache->first_child("l1"), nullptr);
  EXPECT_NE(cache->attribute("bypass"), nullptr);
  EXPECT_NE(cache->attribute("inline_served"), nullptr);

  // Disabled cache: no <cache> section, and probes never hit.
  MetadataCatalog plain(schema, workload::lead_annotations(), uncached_config());
  CatalogService plain_service(plain);
  const xml::Document plain_stats =
      xml::parse(plain_service.handle("<catalogRequest type=\"stats\"/>"));
  EXPECT_EQ(plain_stats.root->first_child("stats")->first_child("cache"), nullptr);
}

// ---- canonical keys are injective: value bytes can't forge structure ----

TEST(QueryCache, CanonicalKeyStringValueCannotForgeStructure) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  const QueryEngine engine(catalog.partition(), catalog.registry(),
                           catalog.database());

  // Regression: with raw value embedding, the single-predicate query whose
  // string value is crafted as "x" + <separator> + <the second predicate's
  // key bytes> serialized byte-identically to the genuine two-predicate
  // conjunction — and a colliding key serves one query's cached id-set (and
  // L2 response) to the other. Length prefixes must keep them distinct.
  AttrQuery forged("ghost-attr", "S");
  forged.add_element("n1", "s1", rel::Value("x;eu:n2:s2?"), CompareOp::kEq);
  ObjectQuery forged_query;
  forged_query.add_attribute(std::move(forged));

  AttrQuery genuine("ghost-attr", "S");
  genuine.add_element("n1", "s1", rel::Value("x"), CompareOp::kEq);
  genuine.require_element("n2", "s2");
  ObjectQuery genuine_query;
  genuine_query.add_attribute(std::move(genuine));

  EXPECT_NE(engine.canonical_key(forged_query, QueryContext{}),
            engine.canonical_key(genuine_query, QueryContext{}));

  // Same forgery one level up: an unresolved attribute name containing the
  // old "u:<name>:<source>" separator must not alias a different split of
  // the same bytes.
  ObjectQuery colon_name;
  colon_name.add_attribute(AttrQuery("a:b", "c"));
  ObjectQuery colon_source;
  colon_source.add_attribute(AttrQuery("a", "b:c"));
  EXPECT_NE(engine.canonical_key(colon_name, QueryContext{}),
            engine.canonical_key(colon_source, QueryContext{}));
}

// ---- remapping a synonym (size-neutral) still changes the key ----

TEST(QueryCache, ThesaurusRemapChangesCanonicalKey) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  const QueryEngine engine(catalog.partition(), catalog.registry(),
                           catalog.database());

  Thesaurus thesaurus;
  thesaurus.add_synonym("res", "CF", "dx", "ARPS");
  QueryContext ctx;
  ctx.thesaurus = &thesaurus;

  AttrQuery grid("grid", "ARPS");
  grid.add_element("res", "CF", rel::Value(1000.0), CompareOp::kEq);
  ObjectQuery query;
  query.add_attribute(std::move(grid));
  const std::string before = engine.canonical_key(query, ctx);

  // Overwriting an existing alias leaves size() unchanged; the fingerprint
  // must still move or entries minted under the old map stay hittable.
  thesaurus.add_synonym("res", "CF", "dzmin", "ARPS");
  ASSERT_EQ(thesaurus.size(), 1u);
  EXPECT_NE(engine.canonical_key(query, ctx), before);
}

// ---- MVCC contract: a pinned snapshot never sees a newer generation ----

TEST(QueryCache, PinnedSnapshotReadsStableUnderChurn) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 8);

  workload::QueryGenerator query_gen;
  const std::uint64_t seed = env_size("HXRC_STRESS_SEED", 1);
  std::vector<ObjectQuery> queries;
  for (std::uint64_t q = 0; q < 8; ++q) queries.push_back(query_gen.generate(seed * 31 + q));

  workload::DocumentGenerator generator;
  std::vector<xml::Document> extra;
  for (int i = 0; i < 24; ++i) {
    extra.push_back(generator.generate(1000 + static_cast<std::uint64_t>(i)));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 24 && !stop.load(); ++i) {
      catalog.ingest(extra[static_cast<std::size_t>(i)], "churn", "u");
      catalog.delete_object(i % 4);
    }
  });

  const std::size_t readers = std::max<std::size_t>(2, env_size("HXRC_STRESS_THREADS", 2));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 40; ++round) {
        const ObjectQuery& q = queries[(r + static_cast<std::size_t>(round)) % queries.size()];
        // One pinned guard; the first run fills the L1 memo of THIS
        // snapshot, the second must return the identical set even though
        // the writer keeps publishing newer generations (whose segments it
        // must not reach).
        MetadataCatalog::ReadGuard guard(catalog);
        const std::vector<ObjectId> first = guard.query(q);
        const std::vector<ObjectId> second = guard.query(q);
        if (first != second) failures.fetch_add(1);
        if (!std::is_sorted(first.begin(), first.end())) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  catalog.quiesce_epochs();  // retired segments reclaimed; ASan keeps us honest
}

// ---- dispatcher churn: cached and fresh responses interleave safely ----

TEST(QueryCache, DispatcherChurnServesWellFormedResponses) {
  xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), cached_config());
  ingest_docs(catalog, 8);
  ServiceDispatcher dispatcher(catalog, {.workers = 3});

  workload::QueryGenerator query_gen;
  const std::uint64_t seed = env_size("HXRC_STRESS_SEED", 1);
  std::vector<std::string> requests;
  for (std::uint64_t q = 0; q < 6; ++q) {
    requests.push_back(query_to_xml(query_gen.generate(seed * 17 + q)));
  }
  requests.push_back("<catalogRequest type=\"fetch\" objectID=\"0\"/>");
  requests.push_back("<catalogRequest type=\"fetch\" objectID=\"424242\"/>");

  workload::DocumentGenerator generator;
  std::vector<std::string> ingest_requests;
  for (int i = 0; i < 12; ++i) {
    xml::Document doc = generator.generate(2000 + static_cast<std::uint64_t>(i));
    ingest_requests.push_back("<catalogRequest type=\"ingest\" user=\"u\">" +
                              xml::write(doc) + "</catalogRequest>");
  }

  const std::size_t readers = std::max<std::size_t>(2, env_size("HXRC_STRESS_THREADS", 2));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.emplace_back([&] {
    for (const std::string& request : ingest_requests) dispatcher.call(request);
  });
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 40; ++round) {
        const std::string& request =
            requests[(r + static_cast<std::size_t>(round)) % requests.size()];
        const xml::Document response = xml::parse(dispatcher.call(request));
        const std::string_view* status = response.root->attribute("status");
        if (status == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        if (*status == "error" &&
            *response.root->attribute("code") != "not_found") {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  dispatcher.drain();
}

// ---- overwriting a key with a larger value still honors the budget ----

TEST(QueryCache, ShardedCacheOverwriteEvictsBackToByteBudget) {
  util::ShardedCacheConfig config;
  config.shards = 1;
  config.max_entries = 64;
  config.max_bytes = 1000;
  util::ShardedCache<std::string> cache(config);
  for (int i = 0; i < 9; ++i) {
    cache.insert("k" + std::to_string(i),
                 std::make_shared<const std::string>("v"), 100);
  }
  ASSERT_LE(cache.byte_count(), 1000u);

  // Regression: the overwrite branch used to skip the eviction loop, so
  // growing an existing entry left the shard over budget until the next
  // new-key insert happened to trigger eviction.
  cache.insert("k0", std::make_shared<const std::string>("w"), 900);
  EXPECT_LE(cache.byte_count(), 1000u);
  const auto kept = cache.find("k0");
  ASSERT_NE(kept, nullptr) << "the just-written slot must never be evicted";
  EXPECT_EQ(*kept, "w");
}

}  // namespace

// ---- satellite: log2+linear histogram interpolation precision ----

namespace util_test {

TEST(LatencyHistogram, SubBucketInterpolationBoundsError) {
  hxrc::util::LatencyHistogram histogram;
  // The BENCH_net regression: all samples in one log2 range used to snap
  // p50 to the bucket's upper bound (262144 exactly). With 4 linear
  // sub-buckets + rank interpolation the estimate must sit within 25% of
  // the true percentile.
  for (std::uint64_t v = 150000; v < 250000; v += 100) histogram.record(v);
  const std::uint64_t p50 = histogram.percentile_micros(0.50);
  EXPECT_GT(p50, 170000u);
  EXPECT_LT(p50, 230000u);
  const std::uint64_t p99 = histogram.percentile_micros(0.99);
  EXPECT_GT(p99, 230000u);
  EXPECT_LE(p99, 262144u);
}

TEST(LatencyHistogram, SmallValuesStayExactish) {
  hxrc::util::LatencyHistogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.record(100);
  const std::uint64_t p50 = histogram.percentile_micros(0.50);
  EXPECT_GE(p50, 64u);   // 100 lands in range (64,128], sub-bucket (96,112]
  EXPECT_LE(p50, 112u);
}

}  // namespace util_test
}  // namespace hxrc::core
