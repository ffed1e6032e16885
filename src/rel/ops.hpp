// Materialized relational operators.
//
// The SQL executor is built from these primitives, and the §5 response
// builder uses the index probe, index join and distinct_on. Operators
// consume and produce ResultSets (schema + rows); tables enter a pipeline
// through scan() or an index probe. The Fig. 4 query engine uses only
// for_each_match, which visits index buckets without copying rows.
#pragma once

#include <string>
#include <vector>

#include "rel/expr.hpp"
#include "rel/read_view.hpp"
#include "rel/table.hpp"

namespace hxrc::rel {

/// A materialized intermediate result.
struct ResultSet {
  TableSchema schema;
  std::vector<Row> rows;

  std::size_t size() const noexcept { return rows.size(); }
  bool empty() const noexcept { return rows.empty(); }

  /// Column position by name; throws TypeError when absent.
  std::size_t column(std::string_view name) const { return schema.require(name); }

  /// Renders an aligned ASCII table (examples and debugging).
  std::string pretty() const;
};

/// Full scan: every row of the table.
ResultSet scan(const Table& table);

/// Index probe: all rows matching the key, as a ResultSet. With a ReadView,
/// only snapshot-visible rows match and the probe never locks or syncs;
/// nullptr falls back to the syncing probe.
ResultSet index_scan(const Table& table, const Index& index, const Key& key,
                     const ReadView* view);

/// Visits every base-table row under `key` without copying: `visit` is
/// called as visit(row, id). `scratch` is cleared and reused for the probe,
/// so a caller-owned vector amortizes allocations across calls. Probes
/// through `view` (visiting only snapshot-visible rows, never locking);
/// nullptr falls back to the syncing probe.
template <typename Visitor>
void for_each_match(const Table& table, const Index& index, const Key& key,
                    const ReadView* view, std::vector<RowId>& scratch,
                    Visitor&& visit) {
  scratch.clear();
  if (view != nullptr) {
    view->lookup_into(table, index, key, scratch);
  } else {
    index.lookup_into(key, scratch);
  }
  for (const RowId id : scratch) visit(table.row_unchecked(id), id);
}

/// Keeps rows satisfying the predicate.
ResultSet filter(ResultSet input, const Expr& predicate);

/// Computed projection: each output column is an expression over the input.
ResultSet project_exprs(const ResultSet& input,
                        const std::vector<std::pair<ExprPtr, Column>>& outputs);

enum class JoinType { kInner, kLeftOuter };

/// Hash equi-join on positional key columns. Output schema is left columns
/// followed by right columns (right columns are prefixed with `right_prefix`
/// when a name collision would result).
ResultSet hash_join(const ResultSet& left, const std::vector<std::size_t>& left_keys,
                    const ResultSet& right, const std::vector<std::size_t>& right_keys,
                    JoinType type = JoinType::kInner,
                    const std::string& right_prefix = "r_");

/// Join left rows against a table through one of its indexes: for each left
/// row, probe index with values of `left_key_columns`; emit left ++ table row.
ResultSet index_join(const ResultSet& left, const std::vector<std::size_t>& left_key_columns,
                     const Table& table, const Index& index,
                     const std::string& right_prefix = "r_");

/// Aggregate functions for group_by.
struct Aggregate {
  enum class Fn { kCount, kCountDistinct, kSum, kMin, kMax };
  Fn fn = Fn::kCount;
  /// Input column; ignored for kCount.
  std::size_t column = 0;
  /// Output column name.
  std::string name = "agg";
};

/// Hash group-by. Output schema: key columns (names preserved) followed by
/// one column per aggregate. With no key columns, produces a single row
/// (global aggregate), even over empty input.
ResultSet group_by(const ResultSet& input, const std::vector<std::size_t>& key_columns,
                   const std::vector<Aggregate>& aggregates);

/// Stable sort by (column, descending?) pairs.
ResultSet sort_by(ResultSet input, const std::vector<std::pair<std::size_t, bool>>& keys);

/// Removes duplicate rows (full-row comparison).
ResultSet distinct(ResultSet input);

/// Removes rows whose projection on `columns` duplicates an earlier row.
ResultSet distinct_on(const ResultSet& input, const std::vector<std::size_t>& columns);

ResultSet limit(ResultSet input, std::size_t n);

}  // namespace hxrc::rel
