// The database: named tables, a CLOB store, and a SQL entry point.
//
// This is the "RDBMS" substrate the paper assumes. The hybrid catalog keeps
// its shredded-attribute tables, ordering tables, inverted lists, and
// per-attribute CLOBs in one Database instance.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "rel/clob_store.hpp"
#include "rel/interner.hpp"
#include "rel/ops.hpp"
#include "rel/table.hpp"

namespace hxrc::rel {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Creates a table; throws TypeError if the name is taken.
  Table& create_table(const std::string& name, TableSchema schema);

  /// nullptr when absent.
  Table* table(std::string_view name) noexcept;
  const Table* table(std::string_view name) const noexcept;

  /// Throws TypeError when absent.
  Table& require_table(std::string_view name);
  const Table& require_table(std::string_view name) const;

  std::vector<std::string> table_names() const;

  ClobStore& clobs() noexcept { return clobs_; }
  const ClobStore& clobs() const noexcept { return clobs_; }

  /// String dictionary for dictionary-encoded columns. Lives exactly as
  /// long as the tables, so interned values stored in them are always
  /// valid. Note the move constructor keeps the dictionary with its tables.
  Interner& interner() noexcept { return interner_; }
  const Interner& interner() const noexcept { return interner_; }

  /// Parses and executes one SQL statement. DDL/DML return an empty result
  /// (INSERT reports the row count in a single-cell result).
  ResultSet execute(std::string_view sql);

  /// Approximate total footprint: all tables + CLOB store (experiment E10).
  /// CLOBs count their RESIDENT bytes: payload spilled to a page file (see
  /// rel/clob_store.hpp paging) is off-heap by design.
  std::size_t approx_bytes() const noexcept;

  /// Aggregated posting-list footprint across all tables' indexes — the
  /// compression ratio reported in BENCH_scale.json.
  IndexStats postings_stats() const noexcept {
    IndexStats total;
    for (const auto& [name, table] : tables_) total += table->postings_stats();
    return total;
  }

  /// Defers reclamation of superseded index generations and sealed CLOB
  /// payloads to `reclaimer`; applies to all existing and future tables.
  void set_reclaimer(util::EpochManager* reclaimer) noexcept {
    reclaimer_ = reclaimer;
    for (auto& [name, table] : tables_) table->set_reclaimer(reclaimer);
    clobs_.set_reclaimer(reclaimer);
  }

  /// Brings every index of every table up to date with its row store; the
  /// catalog's commit protocol calls this before publishing a snapshot so
  /// MVCC probes never find uncovered rows.
  void sync_indexes() const {
    for (const auto& [name, table] : tables_) table->sync_indexes();
  }

  /// Current row counts by table slot — the watermark vector a snapshot
  /// freezes. Call with writers excluded (the commit lock).
  std::vector<std::size_t> watermarks() const {
    std::vector<std::size_t> marks(slots_assigned_, 0);
    for (const auto& [name, table] : tables_) {
      if (table->slot() < marks.size()) marks[table->slot()] = table->row_count();
    }
    return marks;
  }

 private:
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  ClobStore clobs_;
  Interner interner_;
  util::EpochManager* reclaimer_ = nullptr;
  std::size_t slots_assigned_ = 0;
};

}  // namespace hxrc::rel
