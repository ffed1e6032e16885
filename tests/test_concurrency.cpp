// Concurrency stress: mixed ingest / query / add_attribute / delete /
// stats traffic against ONE catalog, plus the same mix pushed through the
// ServiceDispatcher. Run under ThreadSanitizer via
// `cmake -DHXRC_SANITIZE=thread` (the CI concurrency job); the assertions
// here are deliberately invariant-shaped — TSan provides the race
// detection, the test provides the interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dom_matcher.hpp"
#include "core/browse.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace hxrc::core {
namespace {

CatalogConfig auto_define_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

/// CI matrix knobs: the mvcc-stress job raises the thread count and varies
/// the PRNG seed without recompiling.
std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

// Sized for TSan: enough operations to interleave every pair of request
// kinds, small enough to finish in seconds at 10-15x slowdown.
constexpr int kPreloaded = 8;
constexpr int kWriterDocs = 24;
constexpr int kReaderRounds = 40;

TEST(CatalogConcurrency, MixedIngestQueryAddDeleteStress) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());

  // Pre-generate every document and query before any thread starts — the
  // generator is not part of the system under test.
  workload::DocumentGenerator generator;
  std::vector<xml::Document> docs;
  for (int i = 0; i < kPreloaded + kWriterDocs; ++i) {
    docs.push_back(generator.generate(static_cast<std::uint64_t>(i)));
  }
  workload::QueryGenerator query_gen;
  std::vector<ObjectQuery> queries;
  for (std::uint64_t q = 0; q < 16; ++q) queries.push_back(query_gen.generate(q));

  for (int i = 0; i < kPreloaded; ++i) {
    catalog.ingest(docs[static_cast<std::size_t>(i)], "seed", "u");
  }

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;

  // Writer: steady ingest.
  threads.emplace_back([&] {
    for (int i = 0; i < kWriterDocs; ++i) {
      catalog.ingest(docs[static_cast<std::size_t>(kPreloaded + i)], "w", "u");
    }
  });

  // Writer: late-arriving metadata attributes on the preloaded objects.
  threads.emplace_back([&] {
    for (int i = 0; i < kReaderRounds; ++i) {
      catalog.add_attribute(
          i % kPreloaded, "data/idinfo/keywords/theme",
          *xml::parse_fragment("<theme><themekt>CF</themekt><themekey>stress_key_" +
                               std::to_string(i) + "</themekey></theme>"),
          "u");
    }
  });

  // Writer: tombstones half of the preloaded objects, then re-deletes
  // (idempotent) to keep contending.
  threads.emplace_back([&] {
    for (int i = 0; i < kReaderRounds; ++i) {
      catalog.delete_object(i % (kPreloaded / 2));
    }
  });

  // Readers: full queries, paginated queries with cursor continuation
  // (stale cursors are expected — writers are live), fetches, responses.
  const int readers =
      static_cast<int>(std::max<std::size_t>(2, env_size("HXRC_STRESS_THREADS", 2)));
  for (int reader = 0; reader < readers; ++reader) {
    threads.emplace_back([&, reader] {
      for (int round = 0; round < kReaderRounds; ++round) {
        const ObjectQuery& q =
            queries[static_cast<std::size_t>((round + reader) % queries.size())];
        const std::vector<ObjectId> hits = catalog.query(q);
        for (const ObjectId id : hits) {
          EXPECT_GE(id, 0);
          EXPECT_LT(static_cast<std::size_t>(id), catalog.object_count());
        }
        catalog.build_response(hits);

        ObjectQuery paged = q;
        paged.set_limit(3);
        try {
          QueryPage page = catalog.read_guard().query_paged(paged);
          if (!page.next_cursor.empty()) {
            ObjectQuery next = q;
            next.set_limit(3).set_cursor(page.next_cursor);
            catalog.read_guard().query_paged(next);
          }
        } catch (const StaleCursorError&) {
          // A writer moved the epoch between pages — the designed outcome.
        }

        try {
          catalog.fetch(round % kPreloaded);
        } catch (const ValidationError&) {
          // Tombstoned by the deleter thread — also fine.
        }
      }
    });
  }

  // Reader: stats surface + browser + version monotonicity.
  threads.emplace_back([&] {
    CatalogBrowser browser(catalog);
    std::uint64_t last_version = 0;
    for (int round = 0; round < kReaderRounds; ++round) {
      const std::uint64_t version = catalog.version();
      EXPECT_GE(version, last_version);
      last_version = version;
      catalog.stats_snapshot();
      catalog.deleted_count();
      browser.attributes("u");
    }
  });

  for (std::thread& t : threads) t.join();
  writers_done.store(true);

  // Quiesced invariants: every ingest landed, tombstones filter queries.
  EXPECT_EQ(catalog.object_count(), static_cast<std::size_t>(kPreloaded + kWriterDocs));
  EXPECT_EQ(catalog.deleted_count(), static_cast<std::size_t>(kPreloaded / 2));
  for (const ObjectQuery& q : queries) {
    for (const ObjectId id : catalog.query(q)) {
      EXPECT_FALSE(catalog.is_deleted(id));
    }
  }
  // The epoch counted every mutation at least once.
  EXPECT_GE(catalog.version(), static_cast<std::uint64_t>(kWriterDocs + kReaderRounds));
}

// Snapshot isolation: a reader that pins an epoch and then keeps reading
// while writers delete, re-ingest, and rotate snapshots must see EXACTLY
// its pinned epoch's results on every re-read — byte-identical responses,
// tombstones of its epoch only — and those results must agree with the DOM
// oracle evaluated over the documents that existed at the pin. TSan runs
// this with real concurrent commits; the equality assertions catch any
// torn read a data race would produce.
TEST(CatalogConcurrency, PinnedSnapshotIsImmuneToConcurrentCommits) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());

  const auto seed = static_cast<std::uint64_t>(env_size("HXRC_STRESS_SEED", 0));
  const std::size_t churners = std::max<std::size_t>(2, env_size("HXRC_STRESS_THREADS", 2));

  constexpr int kSeedDocs = 12;
  constexpr int kChurnDocs = 16;
  constexpr int kChurnRounds = 24;
  workload::DocumentGenerator generator;
  std::vector<xml::Document> docs;
  for (int i = 0; i < kSeedDocs + kChurnDocs; ++i) {
    docs.push_back(generator.generate(seed + static_cast<std::uint64_t>(i)));
  }
  workload::QueryGenerator query_gen;
  std::vector<ObjectQuery> queries;
  for (std::uint64_t q = 0; q < 8; ++q) queries.push_back(query_gen.generate(seed + q));

  for (int i = 0; i < kSeedDocs; ++i) {
    catalog.ingest(docs[static_cast<std::size_t>(i)], "seed", "u");
  }

  {
    // Pin BEFORE any churn starts.
    const MetadataCatalog::ReadGuard guard(catalog);
    const std::uint64_t pinned_epoch = guard.epoch();

    std::vector<std::vector<ObjectId>> pinned_hits;
    std::vector<std::string> pinned_responses;
    for (const ObjectQuery& q : queries) {
      pinned_hits.push_back(guard.query(q));
      pinned_responses.push_back(guard.build_response(pinned_hits.back()));
    }

    // Oracle cross-check at the pinned epoch: the snapshot's answer to
    // every query equals DOM evaluation over exactly the seed documents.
    const baselines::DomMatcher oracle(catalog.partition());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      for (int d = 0; d < kSeedDocs; ++d) {
        const bool in_hits =
            std::binary_search(pinned_hits[qi].begin(), pinned_hits[qi].end(),
                               static_cast<ObjectId>(d));
        EXPECT_EQ(in_hits,
                  oracle.matches(docs[static_cast<std::size_t>(d)], queries[qi]))
            << "query " << qi << " object " << d;
      }
    }

    // Churn: concurrent deletes, re-ingest, and snapshot rotation.
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (int i = 0; i < kChurnRounds; ++i) catalog.delete_object(i % kSeedDocs);
    });
    threads.emplace_back([&] {
      for (int i = 0; i < kChurnDocs; ++i) {
        catalog.ingest(docs[static_cast<std::size_t>(kSeedDocs + i)], "churn", "u");
      }
    });
    for (std::size_t extra = 2; extra < churners; ++extra) {
      threads.emplace_back([&, extra] {
        for (int i = 0; i < kChurnRounds; ++i) {
          catalog.add_attribute(
              static_cast<ObjectId>((i + static_cast<int>(extra)) % kSeedDocs),
              "data/idinfo/keywords/theme",
              *xml::parse_fragment("<theme><themekt>CF</themekt><themekey>churn_" +
                                   std::to_string(extra) + "_" + std::to_string(i) +
                                   "</themekey></theme>"),
              "u");
        }
      });
    }
    // Rotator: publishes fresh snapshots without a version bump, retiring
    // the previous one each time — reclamation churn under the reader.
    threads.emplace_back([&] {
      for (int i = 0; i < kChurnRounds; ++i) catalog.publish();
    });

    // The pinned reader re-reads while the churn runs: every answer must
    // be identical to the pre-churn answer.
    for (int round = 0; round < kChurnRounds; ++round) {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(guard.query(queries[qi]), pinned_hits[qi]) << "round " << round;
        EXPECT_EQ(guard.build_response(pinned_hits[qi]), pinned_responses[qi])
            << "round " << round;
      }
      EXPECT_EQ(guard.epoch(), pinned_epoch);
      EXPECT_TRUE(guard->deleted->empty());  // deletes are after the pin
    }

    for (std::thread& t : threads) t.join();

    // Churn is quiesced but the guard still pins: one more full re-read.
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(guard.query(queries[qi]), pinned_hits[qi]);
      EXPECT_EQ(guard.build_response(pinned_hits[qi]), pinned_responses[qi]);
    }
    // The catalog has moved on — the pin is what holds this epoch's view.
    EXPECT_GT(catalog.version(), pinned_epoch);
  }

  // Guard dropped: fresh reads see the churned state, and reclamation can
  // now free everything the pin was holding.
  EXPECT_EQ(catalog.object_count(), static_cast<std::size_t>(kSeedDocs + kChurnDocs));
  EXPECT_GT(catalog.deleted_count(), 0u);
  for (const ObjectQuery& q : queries) {
    for (const ObjectId id : catalog.query(q)) {
      EXPECT_FALSE(catalog.is_deleted(id));
    }
  }
  catalog.quiesce_epochs();
  EXPECT_EQ(catalog.mvcc_stats().retired_pending, 0u);
  EXPECT_GT(catalog.mvcc_stats().reclamations, 0u);
}

TEST(DispatcherConcurrency, MixedRequestStormThroughDispatcher) {
  static xml::Schema schema = workload::lead_schema();
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  ServiceDispatcher dispatcher(catalog,
                               DispatcherConfig{.workers = 4, .max_queue = 1024});

  workload::DocumentGenerator generator;
  std::vector<std::string> ingest_requests;
  for (int i = 0; i < 12; ++i) {
    ingest_requests.push_back(
        "<catalogRequest type=\"ingest\" name=\"doc\">" +
        xml::write(generator.generate(static_cast<std::uint64_t>(i))) +
        "</catalogRequest>");
  }
  workload::QueryGenerator query_gen;
  std::vector<std::string> query_requests;
  for (std::uint64_t q = 0; q < 8; ++q) {
    ObjectQuery query = query_gen.generate(q);
    query.set_limit(4);
    query_requests.push_back(query_to_xml(query));
  }

  // Seed one object so fetches can succeed.
  dispatcher.call(ingest_requests[0]);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 24;
  std::vector<std::future<std::string>> futures(
      static_cast<std::size_t>(kSubmitters * kPerSubmitter));
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int kind = (s + i) % 6;
        std::string request;
        switch (kind) {
          case 0:
            request = ingest_requests[static_cast<std::size_t>(i % 12)];
            break;
          case 1:
          case 2:
            request = query_requests[static_cast<std::size_t>(i % 8)];
            break;
          case 3:
            request = "<catalogRequest type=\"fetch\" objectID=\"0\"/>";
            break;
          case 4:
            request = "<catalogRequest type=\"stats\"/>";
            break;
          default:
            request = "<catalogRequest type=\"bogus\"/>";
            break;
        }
        futures[static_cast<std::size_t>(s * kPerSubmitter + i)] =
            dispatcher.submit(std::move(request));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::size_t ok = 0, errors = 0;
  for (auto& future : futures) {
    const xml::Document response = xml::parse(future.get());
    ASSERT_EQ(response.root->name(), "catalogResponse");
    if (*response.root->attribute("status") == "ok") {
      ++ok;
    } else {
      ++errors;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(errors, 0u);  // the bogus requests

  // Metrics reconcile with what was submitted: every admitted request was
  // handled exactly once, and handled = ok + errors + timeouts per slot.
  const util::MetricsRegistry& metrics = dispatcher.metrics();
  std::uint64_t handled = 0, rejected = 0;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const util::RequestStats& slot = metrics.at(i);
    handled += slot.handled.load();
    rejected += slot.rejected.load();
    EXPECT_EQ(slot.handled.load(),
              slot.ok.load() + slot.errors.load() + slot.timeouts.load());
    EXPECT_EQ(slot.latency.count(), slot.handled.load());
  }
  EXPECT_EQ(handled + rejected, futures.size() + 1);  // +1 seed ingest
  EXPECT_EQ(rejected, 0u);  // queue was sized for the storm

  // drain() waits for epoch-reclamation quiescence: after it returns no
  // retired snapshot or index generation may still be pending (the ASan CI
  // job turns a violated promise here into a leak report).
  dispatcher.drain();
  EXPECT_EQ(catalog.mvcc_stats().retired_pending, 0u);
}

}  // namespace
}  // namespace hxrc::core
