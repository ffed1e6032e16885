// A frozen read view over a database: per-table row-count watermarks.
//
// A published catalog snapshot embeds one ReadView. MVCC readers route
// every index probe and row scan through it: rows at or above a table's
// watermark were appended by commits after the snapshot and are invisible,
// so a reader sees exactly the state the publishing commit saw — without a
// lock, while the (serialized) writer keeps appending. Watermarks are
// indexed by Table::slot(); a table the view does not know (created after
// the snapshot) reads as empty.
#pragma once

#include <cstddef>
#include <vector>

#include "rel/index.hpp"
#include "rel/table.hpp"

namespace hxrc::rel {

class ReadView {
 public:
  ReadView() = default;
  explicit ReadView(std::vector<std::size_t> watermarks)
      : watermarks_(std::move(watermarks)) {}

  /// Rows of `table` visible to this view.
  std::size_t visible_rows(const Table& table) const noexcept {
    const std::size_t slot = table.slot();
    if (slot == Table::kNoSlot) return table.row_count();  // standalone table
    return slot < watermarks_.size() ? watermarks_[slot] : 0;
  }

  void lookup_into(const Table& table, const Index& index, const Key& key,
                   std::vector<RowId>& out) const {
    index.lookup_into_at(key, visible_rows(table), out);
  }

  std::size_t bucket_size(const Table& table, const Index& index,
                          const Key& key) const {
    return index.bucket_size_at(key, visible_rows(table));
  }

 private:
  std::vector<std::size_t> watermarks_;
};

}  // namespace hxrc::rel
