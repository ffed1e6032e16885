#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "rel/table.hpp"
#include "util/epoch.hpp"
#include "util/prng.hpp"

namespace hxrc::rel {
namespace {

Table make_table() {
  return Table("t", TableSchema{{"id", Type::kInt},
                                {"name", Type::kString},
                                {"score", Type::kDouble}});
}

TEST(Table, AppendAndRead) {
  Table t = make_table();
  const RowId id = t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.5)});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.row(0)[1].as_string(), "a");
}

TEST(Table, ValidatesArity) {
  Table t = make_table();
  EXPECT_THROW(t.append(Row{Value(std::int64_t{1})}), TypeError);
}

TEST(Table, ValidatesTypes) {
  Table t = make_table();
  EXPECT_THROW(t.append(Row{Value("not-int"), Value("a"), Value(0.5)}), TypeError);
  // NULLs are allowed in any column; ints widen into double columns.
  EXPECT_NO_THROW(
      t.append(Row{Value::null(), Value::null(), Value(std::int64_t{1})}));
}

TEST(Table, HashIndexLookup) {
  Table t = make_table();
  t.create_hash_index("by_name", {"name"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.append(Row{Value(std::int64_t{2}), Value("b"), Value(0.2)});
  t.append(Row{Value(std::int64_t{3}), Value("a"), Value(0.3)});

  const Index* index = t.index("by_name");
  ASSERT_NE(index, nullptr);
  const auto hits = index->lookup(Key{{Value("a")}});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(index->lookup(Key{{Value("zzz")}}).empty());
}

TEST(Table, IndexBackfillsExistingRows) {
  Table t = make_table();
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  const Index* index = t.create_hash_index("by_id", {"id"});
  EXPECT_EQ(index->lookup(Key{{Value(std::int64_t{1})}}).size(), 1u);
}

TEST(Table, CompositeKeyIndex) {
  Table t = make_table();
  t.create_hash_index("compound", {"id", "name"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.append(Row{Value(std::int64_t{1}), Value("b"), Value(0.2)});
  const Index* index = t.index("compound");
  EXPECT_EQ(index->lookup(Key{{Value(std::int64_t{1}), Value("a")}}).size(), 1u);
}

TEST(Table, TruncateClearsRowsAndKeepsIndexDefinitions) {
  Table t = make_table();
  t.create_hash_index("by_id", {"id"});
  t.create_hash_index("by_score", {"score"});
  t.append(Row{Value(std::int64_t{1}), Value("a"), Value(0.1)});
  t.truncate();
  EXPECT_EQ(t.row_count(), 0u);
  ASSERT_NE(t.index("by_id"), nullptr);
  EXPECT_EQ(t.index("by_id")->entry_count(), 0u);
  // New rows index correctly after truncate.
  t.append(Row{Value(std::int64_t{2}), Value("b"), Value(0.2)});
  EXPECT_EQ(t.index("by_id")->lookup(Key{{Value(std::int64_t{2})}}).size(), 1u);
  ASSERT_NE(t.index("by_score"), nullptr);
  EXPECT_EQ(t.index("by_score")->key_columns(), std::vector<std::size_t>{2});
  EXPECT_EQ(t.index("by_score")->lookup(Key{{Value(0.2)}}), std::vector<RowId>{0});
  EXPECT_TRUE(t.index("by_score")->lookup(Key{{Value(0.1)}}).empty());
}

TEST(Table, ApproxBytesGrowsWithData) {
  Table t = make_table();
  const std::size_t empty = t.approx_bytes();
  t.append(Row{Value(std::int64_t{1}), Value(std::string(1000, 'x')), Value(0.1)});
  EXPECT_GT(t.approx_bytes(), empty + 900);
}


TEST(Table, AppendBatchMatchesSingleAppendsAndMaintainsIndexes) {
  Table batched = make_table();
  Table serial = make_table();
  for (Table* t : {&batched, &serial}) {
    t->create_hash_index("by_name", {"name"});
    t->create_hash_index("by_id", {"id"});
  }

  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(Row{Value(std::int64_t{i}), Value(i % 2 ? "odd" : "even"),
                       Value(i * 0.5)});
  }
  for (const Row& row : rows) serial.append(Row(row));

  const RowId first = batched.append_batch_unchecked(std::move(rows));
  EXPECT_EQ(first, 0u);
  EXPECT_TRUE(rows.empty());  // consumed, capacity reusable

  ASSERT_EQ(batched.row_count(), serial.row_count());
  for (RowId id = 0; id < batched.row_count(); ++id) {
    EXPECT_EQ(batched.row(id), serial.row(id));
  }
  EXPECT_EQ(batched.index("by_name")->lookup(Key{{Value("odd")}}),
            serial.index("by_name")->lookup(Key{{Value("odd")}}));
  EXPECT_EQ(batched.index("by_id")->lookup(Key{{Value(std::int64_t{7})}}),
            std::vector<RowId>{7});
}

TEST(Table, AppendBatchAfterExistingRowsContinuesRowIds) {
  Table t = make_table();
  t.create_hash_index("by_name", {"name"});
  t.append(Row{Value(std::int64_t{0}), Value("pre"), Value(0.0)});
  std::vector<Row> rows;
  rows.push_back(Row{Value(std::int64_t{1}), Value("post"), Value(1.0)});
  rows.push_back(Row{Value(std::int64_t{2}), Value("post"), Value(2.0)});
  EXPECT_EQ(t.append_batch_unchecked(std::move(rows)), 1u);
  EXPECT_EQ(t.index("by_name")->lookup(Key{{Value("post")}}).size(), 2u);
  EXPECT_EQ(t.index("by_name")->lookup(Key{{Value("pre")}}).size(), 1u);
}

// ---- Differential check: generation-versioned probes vs a linear scan ----

/// Row ids below `limit` whose `id` column equals `key` — the oracle every
/// MVCC probe must reproduce.
std::vector<RowId> scan_below(const Table& t, std::int64_t key, std::size_t limit) {
  std::vector<RowId> out;
  for (RowId r = 0; r < limit; ++r) {
    if (t.row(r)[0] == Value(key)) out.push_back(r);
  }
  return out;
}

TEST(Table, IndexProbesAtEveryWatermarkMatchALinearScan) {
  constexpr std::int64_t kKeys = 23;
  for (const std::size_t sync_every : {1u, 7u, 64u, 1000u}) {
    SCOPED_TRACE("sync every " + std::to_string(sync_every) + " rows");
    Table t = make_table();
    const Index* index = t.create_hash_index("by_id", {"id"});
    util::Prng prng(0x5eed0000u + sync_every);
    constexpr std::size_t kRows = 1200;
    for (std::size_t i = 0; i < kRows; ++i) {
      // Skewed keys: key 0 is hot, the rest share the remainder.
      const std::int64_t key = prng.chance(0.3) ? 0 : prng.uniform(1, kKeys - 1);
      t.append(Row{Value(key), Value("x"), Value(static_cast<double>(i))});
      // Syncing every k rows builds generations of k rows, so size-tiered
      // merges run; rows after the last sync stay in the uncovered tail.
      if ((i + 1) % sync_every == 0) t.sync_indexes();
    }
    for (std::size_t limit = 0; limit <= kRows + 5; limit += 37) {
      for (std::int64_t key = 0; key <= kKeys; ++key) {  // kKeys is absent
        const std::vector<RowId> expected = scan_below(t, key, std::min(limit, kRows));
        std::vector<RowId> got;
        index->lookup_into_at(Key{{Value(key)}}, limit, got);
        ASSERT_EQ(got, expected) << "key " << key << " limit " << limit;
        ASSERT_EQ(index->bucket_size_at(Key{{Value(key)}}, limit), expected.size())
            << "key " << key << " limit " << limit;
      }
    }
    // Whole-index probes sync first and then agree with the scan too.
    for (std::int64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(index->lookup(Key{{Value(key)}}), scan_below(t, key, kRows));
    }
  }
}

TEST(Table, PinnedReadersProbeWhileTheWriterAppendsAndMerges) {
  // One writer appends and syncs (merging generations and retiring the
  // superseded ones through the epoch manager); readers pin an epoch, read
  // the published watermark and probe below it, as catalog snapshots do.
  constexpr std::int64_t kKeys = 11;
  constexpr std::size_t kRows = 3000;
  constexpr std::size_t kBatch = 25;
  constexpr int kReaders = 3;
  const auto key_of = [](std::size_t i) {
    return static_cast<std::int64_t>((i * 2654435761u) % kKeys);
  };

  util::EpochManager epochs;
  Table t = make_table();
  t.set_reclaimer(&epochs);
  const Index* index = t.create_hash_index("by_id", {"id"});
  std::atomic<std::size_t> watermark{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> probes{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Prng prng(0xC0FFEEu + static_cast<std::uint64_t>(r));
      std::vector<RowId> got;
      // At least 20 probes each, however fast the writer finishes.
      for (int n = 0; n < 20 || !done.load(std::memory_order_acquire); ++n) {
        const util::EpochPin pin(epochs);
        const std::size_t limit = watermark.load(std::memory_order_acquire);
        const std::int64_t key = prng.uniform(0, kKeys - 1);
        got.clear();
        index->lookup_into_at(Key{{Value(key)}}, limit, got);
        std::vector<RowId> expected;
        for (std::size_t i = 0; i < limit; ++i) {
          if (key_of(i) == key) expected.push_back(i);
        }
        if (got != expected ||
            index->bucket_size_at(Key{{Value(key)}}, limit) != expected.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t i = 0; i < kRows; ++i) {
    t.append(Row{Value(key_of(i)), Value("x"), Value(0.0)});
    if ((i + 1) % kBatch != 0) continue;
    // Every other batch publishes before syncing, so readers also take the
    // uncovered-tail fallback below the watermark.
    const bool sync_first = ((i + 1) / kBatch) % 2 == 0;
    if (sync_first) t.sync_indexes();
    watermark.store(i + 1, std::memory_order_release);
    if (!sync_first) t.sync_indexes();
    epochs.advance();
    epochs.reclaim();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  epochs.quiesce();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(probes.load(), 0u);
  for (std::int64_t key = 0; key < kKeys; ++key) {
    std::vector<RowId> expected;
    for (std::size_t i = 0; i < kRows; ++i) {
      if (key_of(i) == key) expected.push_back(i);
    }
    EXPECT_EQ(index->lookup(Key{{Value(key)}}), expected);
  }
}

}  // namespace
}  // namespace hxrc::rel
