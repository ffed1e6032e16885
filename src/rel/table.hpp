// Row-store table with optional secondary indexes.
//
// Tables are append-only (plus truncate), matching a metadata catalog's
// insert-and-query workload. Concurrency contract: writes require external
// serialization (the catalog's commit lock); reads are safe concurrently
// with each other AND with a serialized writer, because row storage is a
// StableVector (appends never move existing rows) and MVCC readers only
// touch row ids below a published snapshot watermark. truncate() and
// destruction require quiescence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rel/index.hpp"
#include "rel/stable_vector.hpp"
#include "rel/value.hpp"

namespace hxrc::rel {

class Table {
 public:
  Table(std::string name, TableSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const noexcept { return name_; }
  const TableSchema& schema() const noexcept { return schema_; }
  std::size_t row_count() const noexcept { return rows_.size(); }
  const Row& row(RowId id) const {
    if (id >= rows_.size()) {
      throw TypeError("table '" + name_ + "': row id out of range");
    }
    return rows_[id];
  }
  /// Unchecked row access for hot loops iterating ids an index just
  /// produced (ids from this table's own indexes are always in range).
  const Row& row_unchecked(RowId id) const noexcept { return rows_[id]; }
  const StableVector<Row>& rows() const noexcept { return rows_; }

  /// Position of this table in its database's creation order; snapshot
  /// watermark vectors are indexed by it. kNoSlot for standalone tables.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t slot() const noexcept { return slot_; }
  void set_slot(std::size_t slot) noexcept { slot_ = slot; }

  /// Defers reclamation of superseded index generations to `reclaimer`;
  /// applies to existing and future indexes of this table.
  void set_reclaimer(util::EpochManager* reclaimer) noexcept {
    reclaimer_ = reclaimer;
    for (const auto& index : indexes_) index->set_reclaimer(reclaimer);
  }

  /// Syncs every index with the row store (see Index::sync).
  void sync_indexes() const {
    for (const auto& index : indexes_) index->sync();
  }

  /// Validates arity and types and appends; returns the row id. Index
  /// maintenance is deferred to the next probe (see rel/index.hpp).
  RowId append(Row row);

  /// Appends without per-value type checks, for rows typed correctly by
  /// construction.
  RowId append_unchecked(Row row);

  /// Pre-sizes row storage for an expected total row count.
  void reserve(std::size_t total_rows) { rows_.reserve(total_rows); }

  /// Appends every row with geometric storage growth and without per-value
  /// type checks, for callers whose rows are typed correctly by
  /// construction (the shredder's row builders); index maintenance is
  /// deferred to the next probe. `rows` is consumed. Returns the id of the
  /// first appended row.
  RowId append_batch_unchecked(std::vector<Row>&& rows);

  /// Removes all rows and clears indexes.
  void truncate();

  /// Creates an index over the named columns; returns a stable pointer.
  /// Existing rows are picked up lazily by the first probe.
  const Index* create_hash_index(const std::string& index_name,
                                 const std::vector<std::string>& column_names);

  /// Index by name; nullptr when absent.
  const Index* index(std::string_view index_name) const noexcept;

  const std::vector<std::unique_ptr<Index>>& indexes() const noexcept { return indexes_; }

  /// Approximate heap footprint in bytes (storage experiment E10).
  std::size_t approx_bytes() const noexcept;

  /// Aggregated posting-list footprint across this table's indexes.
  IndexStats postings_stats() const noexcept;

 private:
  void validate(const Row& row) const;
  /// Installs an empty index over this table's rows.
  const Index* add_index(std::string index_name, std::vector<std::size_t> key_columns);

  std::string name_;
  TableSchema schema_;
  StableVector<Row> rows_;
  std::vector<std::unique_ptr<Index>> indexes_;
  std::size_t slot_ = kNoSlot;
  util::EpochManager* reclaimer_ = nullptr;
};

}  // namespace hxrc::rel
