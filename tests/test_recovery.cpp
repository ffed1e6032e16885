// Crash recovery: the crash matrix (a kill at every WAL record boundary and
// mid-record), snapshot + tail recovery, delete across snapshot boundaries,
// cursor staleness across restarts, and full query-suite equality after a
// restart.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "storage/fault_fs.hpp"
#include "storage/recovery.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"

namespace hxrc::storage {
namespace {

using core::MetadataCatalog;
using core::ObjectId;

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("hxrc_rec_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// WAL options that fsync eagerly — the matrix tests care about record
/// boundaries, not group-commit timing.
WalOptions eager_sync() {
  WalOptions options;
  options.fsync_every_n = 1;
  options.fsync_every_ms = 1;
  return options;
}

/// Two catalogs hold the same metadata: same objects, same tombstones, and
/// canonically identical reconstructions of every live object.
void expect_equal_catalogs(MetadataCatalog& recovered, MetadataCatalog& oracle) {
  ASSERT_EQ(recovered.object_count(), oracle.object_count());
  ASSERT_EQ(recovered.deleted_count(), oracle.deleted_count());
  for (ObjectId id = 0; id < static_cast<ObjectId>(oracle.object_count()); ++id) {
    ASSERT_EQ(recovered.is_deleted(id), oracle.is_deleted(id)) << "object " << id;
    if (oracle.is_deleted(id)) continue;
    EXPECT_EQ(xml::canonical(recovered.fetch(id)), xml::canonical(oracle.fetch(id)))
        << "object " << id;
  }
}

/// The mutation script the crash matrix kills at every point of. Each step
/// is exactly one WAL record, so "first K records" == "first K steps".
std::vector<std::function<void(MetadataCatalog&)>> mutation_script() {
  workload::DocumentGenerator generator;
  const auto docs = std::make_shared<std::vector<xml::Document>>(generator.corpus(8));
  std::vector<std::function<void(MetadataCatalog&)>> steps;
  for (int i = 0; i < 3; ++i) {
    steps.push_back([docs, i](MetadataCatalog& c) {
      c.ingest((*docs)[static_cast<std::size_t>(i)], "doc-" + std::to_string(i), "alice");
    });
  }
  steps.push_back([](MetadataCatalog& c) {
    c.define_dynamic_attribute("wrfparams", "WRF",
                               {{"nx", xml::LeafType::kInt, "WRF"},
                                {"dt", xml::LeafType::kDouble, "WRF"}},
                               core::Visibility::kUser, "bob");
  });
  steps.push_back([](MetadataCatalog& c) {
    // The sub-attribute id depends on how many definitions the ingests
    // auto-registered; look the parent up by the replayed state.
    const core::AttrDefId parent =
        static_cast<core::AttrDefId>(c.registry().attribute_count() - 1);
    c.define_dynamic_sub_attribute(parent, "nesting", "WRF",
                                   {{"ratio", xml::LeafType::kInt, ""}});
  });
  steps.push_back([docs](MetadataCatalog& c) {
    c.ingest((*docs)[3], "doc-3", "carol");
  });
  steps.push_back([](MetadataCatalog& c) {
    c.add_attribute(1, "data/idinfo/keywords/theme",
                    *xml::parse_fragment(
                        "<theme><themekt>lead</themekt><themekey>tornado</themekey></theme>"),
                    "alice");
  });
  steps.push_back([](MetadataCatalog& c) { c.delete_object(2); });
  steps.push_back([docs](MetadataCatalog& c) {
    c.ingest((*docs)[4], "doc-4", "dave");
  });
  steps.push_back([](MetadataCatalog& c) { c.delete_object(0); });
  return steps;
}

/// Oracle: a never-persisted catalog with the first `k` script steps applied.
std::unique_ptr<MetadataCatalog> oracle_after(const xml::Schema& schema, std::size_t k) {
  auto catalog = std::make_unique<MetadataCatalog>(schema, workload::lead_annotations(),
                                                   auto_define_config());
  const auto steps = mutation_script();
  for (std::size_t i = 0; i < k && i < steps.size(); ++i) steps[i](*catalog);
  return catalog;
}

TEST(CrashMatrix, EveryRecordBoundaryAndMidRecordCut) {
  const xml::Schema schema = workload::lead_schema();
  const auto steps = mutation_script();

  // Run the full script durably once; keep the resulting WAL image.
  const std::string master_dir = fresh_dir("matrix_master");
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {master_dir, eager_sync()});
    for (const auto& step : steps) step(catalog);
    durable.close();
  }
  const std::string image = real_fs().read_file(master_dir + "/" + wal_name(0));
  const WalScan full = scan_wal(image);
  ASSERT_EQ(full.records.size(), steps.size());
  ASSERT_FALSE(full.torn_tail);

  // Per-record boundary offsets (the kill points).
  std::vector<std::size_t> boundaries{sizeof kWalMagic};
  for (const WalRecord& record : full.records) {
    boundaries.push_back(boundaries.back() + 8 + 9 + record.payload.size());
  }
  ASSERT_EQ(boundaries.back(), image.size());

  const std::string dir = fresh_dir("matrix_cut");
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    // Kill exactly at the boundary after record k, and torn mid-way into
    // record k+1 — both must recover to "first k records applied".
    std::vector<std::size_t> cuts{boundaries[k]};
    if (k + 1 < boundaries.size()) {
      cuts.push_back(boundaries[k] + (boundaries[k + 1] - boundaries[k]) / 2);
    }
    for (const std::size_t cut : cuts) {
      std::filesystem::remove_all(dir);
      real_fs().create_dirs(dir);
      auto file = real_fs().create(dir + "/" + wal_name(0));
      file->write(image.data(), cut);
      file->close();

      MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
      DurableCatalog durable(catalog, {dir, eager_sync()});
      EXPECT_EQ(durable.recovery().replayed_records, k);
      EXPECT_EQ(durable.recovery().torn_tail, cut != boundaries[k]);

      const auto oracle = oracle_after(schema, k);
      expect_equal_catalogs(catalog, *oracle);

      // The torn tail was truncated in place: a second scan is clean, and a
      // post-recovery mutation appends where the valid prefix ended.
      if (k < steps.size()) steps[k](catalog);
      durable.close();
      const WalScan rescan = scan_wal(real_fs().read_file(dir + "/" + wal_name(0)));
      EXPECT_FALSE(rescan.torn_tail);
      EXPECT_EQ(rescan.records.size(), k + (k < steps.size() ? 1 : 0));
    }
  }
  std::filesystem::remove_all(master_dir);
  std::filesystem::remove_all(dir);
}

TEST(CrashMatrix, LiveKillViaFaultInjection) {
  const xml::Schema schema = workload::lead_schema();
  const auto steps = mutation_script();
  const std::string dir = fresh_dir("livekill");

  // "Power-cut" the filesystem at an awkward byte count mid-script: the
  // in-flight record is torn on disk, and the writer poisons — exactly a
  // process that died with unacknowledged appends.
  FaultFs fs(real_fs());
  std::size_t acknowledged = 0;
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()}, fs);
    fs.fail_after_bytes(3000);  // 3000 more bytes, then the "power cut"
    try {
      for (const auto& step : steps) {
        step(catalog);
        durable.flush();  // the acknowledgment point under group commit
        ++acknowledged;
      }
      FAIL() << "fault never fired";
    } catch (const WalError&) {
      // The step whose flush failed is NOT counted: the client never got
      // an acknowledgement for it.
    }
    // The dead process persists nothing more (its writer is poisoned; the
    // torn file is what recovery gets).
  }
  fs.clear_faults();

  // What actually reached "disk" decides everything below. Every
  // acknowledged record must be intact on disk; the failing batch may have
  // landed additional complete frames before the cut (written but never
  // fsync-acknowledged), and usually a torn partial frame after them.
  const WalScan on_disk = scan_wal(fs.read_file(dir + "/" + wal_name(0)));
  ASSERT_GE(on_disk.records.size(), acknowledged);

  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()}, fs);
  EXPECT_EQ(durable.recovery().torn_tail, on_disk.torn_tail);
  EXPECT_EQ(durable.recovery().replayed_records, on_disk.records.size());
  const auto oracle = oracle_after(schema, on_disk.records.size());
  expect_equal_catalogs(catalog, *oracle);
  durable.close();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, SnapshotPlusTailAndCheckpointRotation) {
  const xml::Schema schema = workload::lead_schema();
  const auto steps = mutation_script();
  const std::string dir = fresh_dir("snap_tail");
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()});
    for (std::size_t i = 0; i < 6; ++i) steps[i](catalog);
    durable.checkpoint();
    EXPECT_EQ(durable.wal_seq(), 1u);
    // The superseded pair is gone; the live pair exists.
    EXPECT_FALSE(real_fs().exists(dir + "/" + wal_name(0)));
    EXPECT_TRUE(real_fs().exists(dir + "/" + snapshot_name(1)));
    for (std::size_t i = 6; i < steps.size(); ++i) steps[i](catalog);
    durable.close();
    // Only the tail since the checkpoint is in the live WAL.
    const WalScan scan = scan_wal(real_fs().read_file(dir + "/" + wal_name(1)));
    EXPECT_EQ(scan.records.size(), steps.size() - 6);
  }
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()});
  EXPECT_TRUE(durable.recovery().snapshot_loaded);
  EXPECT_EQ(durable.recovery().snapshot_seq, 1u);
  EXPECT_EQ(durable.recovery().replayed_records, steps.size() - 6);
  const auto oracle = oracle_after(schema, steps.size());
  expect_equal_catalogs(catalog, *oracle);
  durable.close();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, DeleteAndReingestAcrossSnapshotBoundaryNoResurrection) {
  const xml::Schema schema = workload::lead_schema();
  workload::DocumentGenerator generator;
  const auto docs = generator.corpus(4);
  const std::string dir = fresh_dir("no_resurrect");
  ObjectId victim = -1;
  ObjectId replacement = -1;
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()});
    victim = catalog.ingest(docs[0], "victim", "alice");
    catalog.ingest(docs[1], "bystander", "alice");
    catalog.delete_object(victim);
    durable.checkpoint();  // tombstone is now *only* in the snapshot
    replacement = catalog.ingest(docs[2], "victim", "alice");  // same name, new object
    durable.close();
  }
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()});
  // Ids are never reused, the tombstone survives the snapshot boundary, and
  // the re-ingested namesake is a distinct live object.
  EXPECT_NE(replacement, victim);
  EXPECT_TRUE(catalog.is_deleted(victim));
  EXPECT_FALSE(catalog.is_deleted(replacement));
  EXPECT_EQ(catalog.object_count(), 3u);
  EXPECT_THROW(catalog.fetch(victim), core::ValidationError);
  EXPECT_EQ(xml::canonical(catalog.fetch(replacement)), xml::canonical(docs[2]));
  durable.close();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, CursorsGoStaleAcrossRestart) {
  const xml::Schema schema = workload::lead_schema();
  const std::string dir = fresh_dir("stale_cursor");
  constexpr std::size_t kDocs = 6;
  // Every Fig. 3 document carries this theme keyword, so the paged query
  // matches all of them two at a time.
  const auto paged_query = [] {
    core::ObjectQuery q = workload::theme_keyword_query("convective_precipitation_flux");
    q.set_limit(2);
    return q;
  };
  std::string cursor;
  std::uint64_t pre_crash_version = 0;
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()});
    for (std::size_t i = 0; i < kDocs; ++i) {
      catalog.ingest_xml(workload::fig3_document(), "d" + std::to_string(i), "u");
    }
    const core::QueryPage page = catalog.read_guard().query_paged(paged_query());
    ASSERT_FALSE(page.next_cursor.empty());
    cursor = page.next_cursor;
    pre_crash_version = catalog.version();
    durable.flush();
    // Scope exit closes cleanly: zero records are lost, which is the
    // interesting case — staleness must come from the restart itself.
  }
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()});
  // Epochs are monotonic across restarts — strictly past the dead
  // process's — so its cursors are stale even though no record was lost.
  EXPECT_GT(catalog.version(), pre_crash_version);
  core::ObjectQuery resumed = paged_query();
  resumed.set_cursor(cursor);
  EXPECT_THROW(catalog.read_guard().query_paged(resumed), core::StaleCursorError);
  // A fresh query works and sees everything.
  EXPECT_EQ(catalog.query(workload::theme_keyword_query("convective_precipitation_flux"))
                .size(),
            kDocs);
  durable.close();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, RetiredRecordTypeInTailFailsRecovery) {
  // Types 5 and 6 logged the retired collection mutations; a log that still
  // carries one is refused by name rather than replayed past.
  const xml::Schema schema = workload::lead_schema();
  const auto steps = mutation_script();
  const std::string dir = fresh_dir("retired_type");
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()});
    for (std::size_t i = 0; i < 3; ++i) steps[i](catalog);
    durable.close();
  }
  WalEncoder payload;
  payload.i64(0);
  payload.i64(-1);
  payload.str("runs");
  payload.str("alice");
  std::string frame;
  encode_frame(frame, static_cast<WalRecordType>(5), 4, payload.bytes());
  const auto wal = real_fs().open_append(dir + "/" + wal_name(0));
  wal->write(frame.data(), frame.size());
  wal->sync();
  wal->close();

  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  try {
    DurableCatalog durable(catalog, {dir, eager_sync()});
    ADD_FAILURE() << "recovery replayed a type-5 record";
  } catch (const RecoveryError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown WAL record type 5"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(Recovery, EmptyDirIsAFreshStart) {
  const xml::Schema schema = workload::lead_schema();
  const std::string dir = fresh_dir("fresh");
  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()});
  EXPECT_FALSE(durable.recovery().snapshot_loaded);
  EXPECT_EQ(durable.recovery().replayed_records, 0u);
  EXPECT_FALSE(durable.recovery().torn_tail);
  catalog.ingest_xml(workload::fig3_document(), "a", "u");
  durable.close();
  EXPECT_TRUE(real_fs().exists(dir + "/" + wal_name(0)));
  std::filesystem::remove_all(dir);
}

TEST(Recovery, CorruptNewestSnapshotFallsBackToOlder) {
  const xml::Schema schema = workload::lead_schema();
  const std::string dir = fresh_dir("fallback");
  real_fs().create_dirs(dir);
  // Valid snapshot 1 (one object), corrupt snapshot 2, and a wal.1 tail.
  MetadataCatalog source(schema, workload::lead_annotations(), auto_define_config());
  source.ingest_xml(workload::fig3_document(), "a", "u");
  write_snapshot_file(real_fs(), dir, 1, encode_snapshot(source, false), nullptr);
  std::string corrupt = encode_snapshot(source, false);
  corrupt[corrupt.size() / 3] ^= 0x10;
  write_snapshot_file(real_fs(), dir, 2, corrupt, nullptr);
  {
    // Produce a wal.1.log tail by running a durable catalog seeded from
    // snapshot 1 in a directory that does not have snapshot 2 yet.
    const std::string side = fresh_dir("fallback_side");
    real_fs().create_dirs(side);
    write_snapshot_file(real_fs(), side, 1, encode_snapshot(source, false), nullptr);
    MetadataCatalog tail(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(tail, {side, eager_sync()});
    tail.ingest_xml(workload::fig3_document(), "b", "u");
    durable.close();
    real_fs().rename(side + "/" + wal_name(1), dir + "/" + wal_name(1));
    std::filesystem::remove_all(side);
  }

  MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(catalog, {dir, eager_sync()});
  EXPECT_TRUE(durable.recovery().snapshot_loaded);
  EXPECT_EQ(durable.recovery().snapshot_seq, 1u);
  EXPECT_EQ(durable.recovery().replayed_records, 1u);
  EXPECT_EQ(catalog.object_count(), 2u);
  // The corrupt newer snapshot was cleaned out of the directory.
  EXPECT_FALSE(real_fs().exists(dir + "/" + snapshot_name(2)));
  durable.close();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, RestartAnswersFullQuerySuiteIdentically) {
  // The E3-style gate: a restarted catalog answers the whole generated
  // query suite exactly as the pre-crash oracle did.
  const xml::Schema schema = workload::lead_schema();
  workload::DocumentGenerator generator;
  const auto docs = generator.corpus(60);
  const std::string dir = fresh_dir("query_suite");

  MetadataCatalog oracle(schema, workload::lead_annotations(), auto_define_config());
  {
    MetadataCatalog catalog(schema, workload::lead_annotations(), auto_define_config());
    DurableCatalog durable(catalog, {dir, eager_sync()});
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::string name = "doc-" + std::to_string(i);
      catalog.ingest(docs[i], name, "u");
      oracle.ingest(docs[i], name, "u");
      if (i % 2 == 0) durable.checkpoint();  // exercise snapshot+tail mixes
    }
    catalog.delete_object(7);
    oracle.delete_object(7);
    catalog.delete_object(33);
    oracle.delete_object(33);
    durable.flush();
    // Everything is flushed; scope exit stands in for the crash.
  }

  MetadataCatalog recovered(schema, workload::lead_annotations(), auto_define_config());
  DurableCatalog durable(recovered, {dir, eager_sync()});
  expect_equal_catalogs(recovered, oracle);

  workload::QueryGenerator queries;
  for (std::uint64_t q = 0; q < 40; ++q) {
    const core::ObjectQuery query = queries.generate(q);
    EXPECT_EQ(recovered.query(query), oracle.query(query)) << "query " << q;
  }
  EXPECT_EQ(recovered.query(workload::paper_example_query()),
            oracle.query(workload::paper_example_query()));
  durable.close();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hxrc::storage
