// Off-heap CLOB paging: seal/spill lifecycle, the segment LRU, page-file
// framing, and end-to-end document reconstruction through the pager.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "rel/clob_store.hpp"
#include "storage/clob_pager.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "xml/canonical.hpp"

namespace hxrc {
namespace {

std::string temp_page_file(const char* tag) {
  return std::string(::testing::TempDir()) + "clob_pages_" + tag + ".bin";
}

std::string payload(std::size_t i) {
  std::string s = "clob-" + std::to_string(i) + "-";
  s.append(40 + (i % 17), static_cast<char>('a' + (i % 26)));
  return s;
}

TEST(ClobPaging, RoundTripThroughPageFile) {
  storage::PagedClobFile pager(temp_page_file("roundtrip"));
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/512, /*cache_segments=*/2);

  std::vector<std::string> originals;
  for (std::size_t i = 0; i < 200; ++i) {
    originals.push_back(payload(i));
    EXPECT_EQ(store.append(originals.back()), static_cast<rel::ClobId>(i));
  }
  store.flush();

  EXPECT_EQ(store.sealed_count(), 200u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_GT(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.payload_bytes(), store.spilled_bytes());
  EXPECT_GT(pager.segment_count(), 10u);  // 512-byte segments force many

  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(store.get(static_cast<rel::ClobId>(i)), originals[i]) << i;
  }
}

TEST(ClobPaging, TailBelowThresholdStaysResident) {
  storage::PagedClobFile pager(temp_page_file("tail"));
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/1u << 20);

  const std::string text = payload(7);
  store.append(text);
  EXPECT_EQ(store.sealed_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), text.size());
  EXPECT_EQ(store.get(0), text);
  EXPECT_EQ(pager.segment_count(), 0u);
}

TEST(ClobPaging, LruCachesWholeSegments) {
  storage::PagedClobFile pager(temp_page_file("lru"));
  rel::ClobStore store;
  // Large segments: neighbouring appends share one, so a run of reads over
  // one document's clobs is one miss then hits.
  store.enable_paging(&pager, /*segment_bytes=*/1u << 16, /*cache_segments=*/1);
  for (std::size_t i = 0; i < 50; ++i) store.append(payload(i));
  store.flush();
  ASSERT_EQ(pager.segment_count(), 1u);

  for (std::size_t i = 0; i < 50; ++i) store.get(static_cast<rel::ClobId>(i));
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(store.cache_hits(), 49u);
}

TEST(ClobPaging, SealedPayloadsRetireThroughReclaimer) {
  storage::PagedClobFile pager(temp_page_file("epoch"));
  util::EpochManager epochs;
  rel::ClobStore store;
  store.set_reclaimer(&epochs);
  store.enable_paging(&pager, /*segment_bytes=*/64);

  for (std::size_t i = 0; i < 8; ++i) store.append(payload(i));
  store.flush();
  EXPECT_GT(epochs.retired_pending(), 0u);  // deferred, not freed in place
  epochs.quiesce();
  EXPECT_EQ(epochs.retired_pending(), 0u);
  EXPECT_EQ(store.get(3), payload(3));  // still readable from the page file
}

TEST(ClobPaging, CorruptSegmentIsDetected) {
  const std::string path = temp_page_file("corrupt");
  storage::PagedClobFile pager(path);
  const std::string text(300, 'x');
  const std::uint32_t segment = pager.write_segment(text);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);  // inside the payload, past the 12-byte header
    f.put('y');
  }
  EXPECT_THROW(pager.read_segment(segment), storage::ClobPagerError);
}

TEST(ClobPaging, UnknownSegmentIsRejected) {
  storage::PagedClobFile pager(temp_page_file("unknown"));
  EXPECT_THROW(pager.read_segment(0), storage::ClobPagerError);
}

TEST(ClobPaging, CatalogReconstructionReadsThroughPager) {
  workload::DocumentGenerator generator;
  const auto docs = generator.corpus(30);

  xml::Schema schema = workload::lead_schema();
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  core::MetadataCatalog catalog(schema, workload::lead_annotations(), config);

  storage::PagedClobFile pager(temp_page_file("catalog"));
  catalog.database().clobs().enable_paging(&pager, /*segment_bytes=*/4096,
                                           /*cache_segments=*/4);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    catalog.ingest(docs[i], "doc-" + std::to_string(i), "u");
  }
  catalog.database().clobs().flush();
  EXPECT_GT(catalog.database().clobs().spilled_bytes(), 0u);

  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(xml::canonical(docs[i]),
              xml::canonical(catalog.fetch(static_cast<core::ObjectId>(i))))
        << "document " << i;
  }
}

}  // namespace
}  // namespace hxrc
