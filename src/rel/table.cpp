#include "rel/table.hpp"

#include <algorithm>

namespace hxrc::rel {

void Table::validate(const Row& row) const {
  if (row.size() != schema_.size()) {
    throw TypeError("table '" + name_ + "': row arity " + std::to_string(row.size()) +
                    " != schema arity " + std::to_string(schema_.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!type_compatible(schema_.column(i).type, row[i])) {
      throw TypeError("table '" + name_ + "': column '" + schema_.column(i).name +
                      "' expects " + std::string(to_string(schema_.column(i).type)) +
                      ", got " + std::string(to_string(row[i].type())));
    }
  }
}

RowId Table::append(Row row) {
  validate(row);
  return append_unchecked(std::move(row));
}

RowId Table::append_unchecked(Row row) {
  // Indexes are not touched: they catch up from their high-water mark on
  // the next probe (see rel/index.hpp).
  const RowId id = rows_.size();
  rows_.push_back(std::move(row));
  return id;
}

RowId Table::append_batch_unchecked(std::vector<Row>&& rows) {
  const RowId first = rows_.size();
  for (Row& row : rows) {
    rows_.push_back(std::move(row));
  }
  rows.clear();
  return first;
}

void Table::truncate() {
  // Requires quiescence: rows and index generations are freed in place.
  rows_.clear();
  // Rebuild empty indexes with the same definitions.
  const std::vector<std::unique_ptr<Index>> old = std::move(indexes_);
  indexes_.clear();
  for (const auto& index : old) add_index(index->name(), index->key_columns());
}

const Index* Table::add_index(std::string index_name, std::vector<std::size_t> key_columns) {
  auto index = std::make_unique<Index>(std::move(index_name), std::move(key_columns), rows_);
  index->set_reclaimer(reclaimer_);
  return indexes_.emplace_back(std::move(index)).get();
}

const Index* Table::create_hash_index(const std::string& index_name,
                                      const std::vector<std::string>& column_names) {
  std::vector<std::size_t> key_columns;
  key_columns.reserve(column_names.size());
  for (const auto& column : column_names) {
    key_columns.push_back(schema_.require(column));
  }
  return add_index(index_name, std::move(key_columns));
}

const Index* Table::index(std::string_view index_name) const noexcept {
  for (const auto& index : indexes_) {
    if (index->name() == index_name) return index.get();
  }
  return nullptr;
}

std::size_t Table::approx_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Row& row : rows_) {
    bytes += sizeof(Row) + row.capacity() * sizeof(Value);
    for (const Value& value : row) {
      // Interned strings cost one pointer (already counted in sizeof(Value));
      // the dictionary bytes are counted once by the owning Interner.
      if (value.type() == Type::kString && !value.is_interned()) {
        bytes += value.as_string().capacity();
      }
    }
  }
  // Indexes: key copies per distinct key plus the physical posting bytes
  // (compressed lists report their real footprint; see rel/postings.hpp).
  for (const auto& index : indexes_) {
    const IndexStats st = index->stats();
    bytes += st.keys * (sizeof(Key) + index->key_columns().size() * sizeof(Value));
    bytes += st.postings_bytes;
  }
  return bytes;
}

IndexStats Table::postings_stats() const noexcept {
  IndexStats total;
  for (const auto& index : indexes_) total += index->stats();
  return total;
}

}  // namespace hxrc::rel
