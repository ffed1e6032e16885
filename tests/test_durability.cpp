// Unit tests for the durability building blocks: CRC32C, WAL framing and
// torn-tail scanning, group commit, fault injection, snapshot validity.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "core/catalog.hpp"
#include "storage/fault_fs.hpp"
#include "storage/fs.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "xml/canonical.hpp"

namespace hxrc::storage {
namespace {

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("hxrc_dur_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Crc32c, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix).
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(0, digits, 9), 0xE3069283u);
}

TEST(Crc32c, SeedChaining) {
  const char data[] = "hello, wal";
  const std::uint32_t whole = crc32c(0, data, sizeof data - 1);
  // CRC32C with post-conditioning is not naively chainable byte ranges;
  // the contract we rely on is determinism and sensitivity, not chaining.
  EXPECT_NE(crc32c(0, data, sizeof data - 2), whole);
  EXPECT_EQ(crc32c(0, data, sizeof data - 1), whole);
}

std::string wal_image(const std::vector<std::pair<std::uint64_t, std::string>>& frames) {
  std::string out(kWalMagic, sizeof kWalMagic);
  for (const auto& [epoch, payload] : frames) {
    encode_frame(out, WalRecordType::kIngest, epoch, payload);
  }
  return out;
}

TEST(WalScan, EmptyAndHeaderOnly) {
  EXPECT_FALSE(scan_wal("").torn_tail);
  EXPECT_TRUE(scan_wal("").records.empty());

  const std::string header(kWalMagic, sizeof kWalMagic);
  const WalScan scan = scan_wal(header);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, sizeof kWalMagic);
}

TEST(WalScan, TornHeaderIsNotAnError) {
  const WalScan scan = scan_wal(std::string(kWalMagic, 3));
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(WalScan, BadMagicThrows) {
  EXPECT_THROW(scan_wal("NOTAWAL!xxxxxxxx"), WalError);
}

TEST(WalScan, RoundTripsFrames) {
  const std::string image = wal_image({{1, "alpha"}, {2, "beta"}, {3, ""}});
  const WalScan scan = scan_wal(image);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.records[0].payload, "alpha");
  EXPECT_EQ(scan.records[1].epoch, 2u);
  EXPECT_EQ(scan.records[2].payload, "");
  EXPECT_EQ(scan.records[0].type, WalRecordType::kIngest);
}

TEST(WalScan, EveryTruncationPointYieldsAPrefix) {
  const std::string image = wal_image({{1, "alpha"}, {2, "beta"}, {3, "gamma"}});
  const WalScan full = scan_wal(image);
  for (std::size_t cut = sizeof kWalMagic; cut < image.size(); ++cut) {
    // scan.records holds views into the scanned bytes — the prefix must
    // outlive the assertions below, not die at the end of this statement.
    const std::string prefix = image.substr(0, cut);
    const WalScan scan = scan_wal(prefix);
    // A cut mid-file loses only whole records off the end, never reorders.
    ASSERT_LE(scan.records.size(), full.records.size());
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].payload, full.records[i].payload);
      EXPECT_EQ(scan.records[i].epoch, full.records[i].epoch);
    }
    if (cut < image.size()) {
      EXPECT_EQ(scan.torn_tail, scan.valid_bytes != cut);
    }
    EXPECT_LE(scan.valid_bytes, cut);
  }
}

TEST(WalScan, CorruptCrcStopsScan) {
  std::string image = wal_image({{1, "alpha"}, {2, "beta"}});
  image[image.size() - 1] ^= 0x40;  // flip a bit in the last record's body
  const WalScan scan = scan_wal(image);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.stop_reason, "frame CRC mismatch");
}

TEST(WalScan, ImplausibleLengthIsTorn) {
  std::string image(kWalMagic, sizeof kWalMagic);
  image += std::string("\xff\xff\xff\x7f", 4);  // 2 GiB body length
  image += std::string(12, 'x');
  const WalScan scan = scan_wal(image);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, sizeof kWalMagic);
}

TEST(WalEncoderDecoder, RoundTrip) {
  WalEncoder enc;
  enc.u8(7);
  enc.u32(123456);
  enc.u64(0xdeadbeefcafebabeull);
  enc.i64(-42);
  enc.str("metadata");
  enc.str("");
  const std::string bytes = enc.take();

  WalDecoder dec(bytes);
  EXPECT_EQ(dec.u8(), 7);
  EXPECT_EQ(dec.u32(), 123456u);
  EXPECT_EQ(dec.u64(), 0xdeadbeefcafebabeull);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_EQ(dec.str(), "metadata");
  EXPECT_EQ(dec.str(), "");
  EXPECT_TRUE(dec.done());
  EXPECT_THROW(dec.u8(), WalError);
}

TEST(WalWriter, AppendsScannableRecords) {
  const std::string dir = fresh_dir("writer");
  real_fs().create_dirs(dir);
  const std::string path = dir + "/wal.0.log";
  {
    util::DurabilityMetrics metrics;
    WalWriter writer(real_fs().open_append(path), WalOptions{}, &metrics);
    EXPECT_EQ(writer.append(WalRecordType::kIngest, 1, "one"), 1u);
    EXPECT_EQ(writer.append(WalRecordType::kDelete, 2, "two"), 2u);
    writer.flush();
    EXPECT_GE(metrics.wal_fsyncs.load(), 1u);
    writer.close();
  }
  const WalScan scan = scan_wal(real_fs().read_file(path));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "one");
  EXPECT_EQ(scan.records[1].type, WalRecordType::kDelete);
  EXPECT_FALSE(scan.torn_tail);
  std::filesystem::remove_all(dir);
}

TEST(WalWriter, GroupCommitBatchesFsyncs) {
  const std::string dir = fresh_dir("group");
  real_fs().create_dirs(dir);
  FaultFs fs(real_fs());
  WalOptions options;
  options.fsync_every_ms = 10'000;  // force the count-based trigger
  options.fsync_every_n = 8;
  {
    util::DurabilityMetrics metrics;
    WalWriter writer(fs.open_append(dir + "/wal.0.log"), options, &metrics);
    for (int i = 0; i < 64; ++i) {
      writer.append(WalRecordType::kIngest, static_cast<std::uint64_t>(i), "p");
    }
    writer.flush();
    // 64 records at one fsync per 8 — plus at most a couple of extras from
    // flush() itself racing the flusher. Far fewer than one per record.
    EXPECT_LE(metrics.wal_fsyncs.load(), 16u);
    EXPECT_GE(metrics.wal_fsyncs.load(), 1u);
    writer.close();
  }
  EXPECT_LE(fs.syncs(), 17u);  // close() adds one more at most
  std::filesystem::remove_all(dir);
}

TEST(WalWriter, PoisonedAfterInjectedWriteFailure) {
  const std::string dir = fresh_dir("poison");
  real_fs().create_dirs(dir);
  FaultFs fs(real_fs());
  WalWriter writer(fs.open_append(dir + "/wal.0.log"), WalOptions{}, nullptr);
  writer.append(WalRecordType::kIngest, 1, "ok");
  writer.flush();  // record 1 is acknowledged durable
  fs.fail_after_bytes(5);  // tears the next batch's write mid-frame
  writer.append(WalRecordType::kIngest, 2, "torn-record-payload");
  // Appends only buffer; the failure surfaces at the acknowledgment point.
  EXPECT_THROW(writer.flush(), WalError);
  // Poisoned: even after the fault clears, the writer refuses to continue.
  fs.clear_faults();
  EXPECT_THROW(writer.append(WalRecordType::kIngest, 3, "x"), WalError);
  writer.close();

  // The torn tail on disk scans back to exactly the acknowledged prefix.
  const WalScan scan = scan_wal(fs.read_file(dir + "/wal.0.log"));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  std::filesystem::remove_all(dir);
}

TEST(FaultFs, ShortWritePersistsPrefix) {
  const std::string dir = fresh_dir("faultfs");
  real_fs().create_dirs(dir);
  FaultFs fs(real_fs());
  auto file = fs.create(dir + "/t");
  fs.fail_after_bytes(4);
  EXPECT_THROW(file->write("abcdefgh", 8), IoError);
  file->close();
  EXPECT_EQ(fs.read_file(dir + "/t"), "abcd");
  EXPECT_EQ(fs.bytes_written(), 4u);

  fs.clear_faults();
  fs.fail_syncs();
  auto file2 = fs.create(dir + "/u");
  file2->write("x", 1);
  EXPECT_THROW(file2->sync(), IoError);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, NamesParseBothWays) {
  EXPECT_EQ(snapshot_name(7), "snapshot.7.hxs");
  EXPECT_EQ(wal_name(7), "wal.7.log");
  EXPECT_EQ(parse_snapshot_name("snapshot.7.hxs"), 7u);
  EXPECT_EQ(parse_wal_name("wal.123.log"), 123u);
  EXPECT_EQ(parse_snapshot_name("snapshot.tmp"), std::nullopt);
  EXPECT_EQ(parse_snapshot_name("snapshot..hxs"), std::nullopt);
  EXPECT_EQ(parse_wal_name("wal.x.log"), std::nullopt);
}

TEST(Snapshot, RoundTripsCatalog) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog catalog(schema, workload::lead_annotations(),
                                auto_define_config());
  workload::DocumentGenerator generator;
  for (const xml::Document& doc : generator.corpus(20)) {
    catalog.ingest(doc, "d", "owner");
  }
  catalog.delete_object(3);

  const std::string bytes = encode_snapshot(catalog, /*locked=*/false);
  EXPECT_TRUE(snapshot_valid(bytes));

  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog restored(schema2, workload::lead_annotations(),
                                 auto_define_config());
  load_snapshot(restored, bytes);
  EXPECT_EQ(restored.object_count(), catalog.object_count());
  EXPECT_TRUE(restored.is_deleted(3));
  EXPECT_EQ(restored.version(), catalog.version());
  EXPECT_EQ(xml::canonical(restored.fetch(5)), xml::canonical(catalog.fetch(5)));
}

TEST(Snapshot, EveryTruncationIsInvalid) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog catalog(schema, workload::lead_annotations(),
                                auto_define_config());
  catalog.ingest_xml(workload::fig3_document(), "a", "u");
  const std::string bytes = encode_snapshot(catalog, false);
  ASSERT_TRUE(snapshot_valid(bytes));
  // A snapshot is all-or-nothing: no prefix may validate.
  const std::size_t step = bytes.size() / 61 + 1;
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    EXPECT_FALSE(snapshot_valid(std::string_view(bytes).substr(0, cut)));
  }
  // ... and a single flipped bit is caught by the trailer CRC.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(snapshot_valid(flipped));
  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog target(schema2, workload::lead_annotations(),
                               auto_define_config());
  EXPECT_THROW(load_snapshot(target, flipped), SnapshotError);
}

}  // namespace
}  // namespace hxrc::storage
