#include "rel/ops.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace hxrc::rel {

std::string ResultSet::pretty() const {
  std::vector<std::size_t> widths(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    widths[c] = schema.column(c).name.size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(row[c].to_string());
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += "| ";
      out += cells[c];
      out.append(widths[c] - cells[c].size() + 1, ' ');
    }
    out += "|\n";
  };
  std::vector<std::string> header;
  header.reserve(schema.size());
  for (const auto& column : schema.columns()) header.push_back(column.name);
  emit_row(header);
  for (std::size_t c = 0; c < schema.size(); ++c) {
    out += "|";
    out.append(widths[c] + 2, '-');
  }
  out += "|\n";
  for (const auto& cells : rendered) emit_row(cells);
  return out;
}

ResultSet scan(const Table& table) {
  ResultSet out;
  out.schema = table.schema();
  out.rows.reserve(table.row_count());
  for (const Row& row : table.rows()) out.rows.push_back(row);
  return out;
}

ResultSet index_scan(const Table& table, const Index& index, const Key& key,
                     const ReadView* view) {
  ResultSet out;
  out.schema = table.schema();
  std::vector<RowId> ids;
  if (view != nullptr) {
    view->lookup_into(table, index, key, ids);
  } else {
    index.lookup_into(key, ids);
  }
  out.rows.reserve(ids.size());
  for (const RowId id : ids) {
    out.rows.push_back(table.row_unchecked(id));
  }
  return out;
}

ResultSet filter(ResultSet input, const Expr& predicate) {
  std::vector<Row> kept;
  kept.reserve(input.rows.size());
  for (Row& row : input.rows) {
    if (predicate.eval_bool(row)) kept.push_back(std::move(row));
  }
  input.rows = std::move(kept);
  return input;
}

ResultSet project_exprs(const ResultSet& input,
                        const std::vector<std::pair<ExprPtr, Column>>& outputs) {
  ResultSet out;
  for (const auto& [expr, column] : outputs) {
    (void)expr;
    out.schema.add(column);
  }
  out.rows.reserve(input.rows.size());
  for (const Row& row : input.rows) {
    Row computed;
    computed.reserve(outputs.size());
    for (const auto& [expr, column] : outputs) {
      (void)column;
      computed.push_back(expr->eval(row));
    }
    out.rows.push_back(std::move(computed));
  }
  return out;
}

namespace {

TableSchema joined_schema(const TableSchema& left, const TableSchema& right,
                          const std::string& right_prefix) {
  TableSchema schema = left;
  for (const auto& column : right.columns()) {
    std::string name = column.name;
    if (schema.index_of(name).has_value()) name = right_prefix + name;
    schema.add(Column{std::move(name), column.type});
  }
  return schema;
}

Key key_of(const Row& row, const std::vector<std::size_t>& columns) {
  Key key;
  key.parts.reserve(columns.size());
  for (const std::size_t c : columns) key.parts.push_back(row[c]);
  return key;
}

bool key_has_null(const Key& key) noexcept {
  for (const auto& part : key.parts) {
    if (part.is_null()) return true;
  }
  return false;
}

}  // namespace

ResultSet hash_join(const ResultSet& left, const std::vector<std::size_t>& left_keys,
                    const ResultSet& right, const std::vector<std::size_t>& right_keys,
                    JoinType type, const std::string& right_prefix) {
  if (left_keys.size() != right_keys.size()) {
    throw TypeError("hash_join: key arity mismatch");
  }
  ResultSet out;
  out.schema = joined_schema(left.schema, right.schema, right_prefix);

  // Build on the right side.
  std::unordered_multimap<Key, std::size_t, KeyHash> build;
  build.reserve(right.rows.size());
  for (std::size_t i = 0; i < right.rows.size(); ++i) {
    const Key key = key_of(right.rows[i], right_keys);
    if (!key_has_null(key)) build.emplace(key, i);
  }

  const std::size_t right_arity = right.schema.size();
  for (const Row& lrow : left.rows) {
    const Key key = key_of(lrow, left_keys);
    bool matched = false;
    if (!key_has_null(key)) {
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        Row combined = lrow;
        const Row& rrow = right.rows[it->second];
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        out.rows.push_back(std::move(combined));
        matched = true;
      }
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row combined = lrow;
      combined.resize(combined.size() + right_arity);  // NULL padding
      out.rows.push_back(std::move(combined));
    }
  }
  return out;
}

ResultSet index_join(const ResultSet& left, const std::vector<std::size_t>& left_key_columns,
                     const Table& table, const Index& index,
                     const std::string& right_prefix) {
  ResultSet out;
  out.schema = joined_schema(left.schema, table.schema(), right_prefix);
  std::vector<RowId> scratch;
  for (const Row& lrow : left.rows) {
    const Key key = key_of(lrow, left_key_columns);
    if (key_has_null(key)) continue;
    scratch.clear();
    index.lookup_into(key, scratch);
    for (const RowId id : scratch) {
      Row combined = lrow;
      const Row& rrow = table.row_unchecked(id);
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      out.rows.push_back(std::move(combined));
    }
  }
  return out;
}

ResultSet group_by(const ResultSet& input, const std::vector<std::size_t>& key_columns,
                   const std::vector<Aggregate>& aggregates) {
  struct GroupState {
    Row key_values;
    std::vector<std::int64_t> counts;
    std::vector<double> sums;
    std::vector<bool> sum_is_int;
    std::vector<Value> mins;
    std::vector<Value> maxs;
    std::vector<std::set<std::string>> distincts;
  };

  std::unordered_map<Key, GroupState, KeyHash> groups;
  auto make_state = [&](Row key_values) {
    GroupState state;
    state.key_values = std::move(key_values);
    state.counts.assign(aggregates.size(), 0);
    state.sums.assign(aggregates.size(), 0.0);
    state.sum_is_int.assign(aggregates.size(), true);
    state.mins.assign(aggregates.size(), Value::null());
    state.maxs.assign(aggregates.size(), Value::null());
    state.distincts.resize(aggregates.size());
    return state;
  };

  // Global aggregate over empty input still yields one row.
  if (key_columns.empty()) {
    groups.emplace(Key{}, make_state(Row{}));
  }

  for (const Row& row : input.rows) {
    Key key = key_of(row, key_columns);
    auto it = groups.find(key);
    if (it == groups.end()) {
      Row key_values;
      key_values.reserve(key_columns.size());
      for (const std::size_t c : key_columns) key_values.push_back(row[c]);
      it = groups.emplace(std::move(key), make_state(std::move(key_values))).first;
    }
    GroupState& state = it->second;
    for (std::size_t a = 0; a < aggregates.size(); ++a) {
      const Aggregate& agg = aggregates[a];
      if (agg.fn == Aggregate::Fn::kCount) {
        ++state.counts[a];
        continue;
      }
      const Value& v = row[agg.column];
      if (v.is_null()) continue;
      switch (agg.fn) {
        case Aggregate::Fn::kCountDistinct:
          state.distincts[a].insert(v.to_string());
          break;
        case Aggregate::Fn::kSum:
          ++state.counts[a];
          state.sums[a] += v.as_double();
          if (v.type() != Type::kInt) state.sum_is_int[a] = false;
          break;
        case Aggregate::Fn::kMin:
          if (state.mins[a].is_null() || v.compare(state.mins[a]) < 0) state.mins[a] = v;
          break;
        case Aggregate::Fn::kMax:
          if (state.maxs[a].is_null() || v.compare(state.maxs[a]) > 0) state.maxs[a] = v;
          break;
        case Aggregate::Fn::kCount:
          break;
      }
    }
  }

  ResultSet out;
  for (const std::size_t c : key_columns) out.schema.add(input.schema.column(c));
  for (const auto& agg : aggregates) {
    Type type = Type::kInt;
    if (agg.fn == Aggregate::Fn::kSum) {
      type = Type::kDouble;  // refined per-group below via Value type
    } else if (agg.fn == Aggregate::Fn::kMin || agg.fn == Aggregate::Fn::kMax) {
      type = input.schema.column(agg.column).type;
    }
    out.schema.add(Column{agg.name, type});
  }

  out.rows.reserve(groups.size());
  for (auto& [key, state] : groups) {
    (void)key;
    Row row = state.key_values;
    for (std::size_t a = 0; a < aggregates.size(); ++a) {
      switch (aggregates[a].fn) {
        case Aggregate::Fn::kCount:
          row.push_back(Value(state.counts[a]));
          break;
        case Aggregate::Fn::kCountDistinct:
          row.push_back(Value(static_cast<std::int64_t>(state.distincts[a].size())));
          break;
        case Aggregate::Fn::kSum:
          if (state.counts[a] == 0) {
            row.push_back(Value::null());
          } else if (state.sum_is_int[a]) {
            row.push_back(Value(static_cast<std::int64_t>(state.sums[a])));
          } else {
            row.push_back(Value(state.sums[a]));
          }
          break;
        case Aggregate::Fn::kMin:
          row.push_back(state.mins[a]);
          break;
        case Aggregate::Fn::kMax:
          row.push_back(state.maxs[a]);
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

ResultSet sort_by(ResultSet input, const std::vector<std::pair<std::size_t, bool>>& keys) {
  std::stable_sort(input.rows.begin(), input.rows.end(), [&](const Row& a, const Row& b) {
    for (const auto& [column, descending] : keys) {
      const int c = a[column].compare(b[column]);
      if (c != 0) return descending ? c > 0 : c < 0;
    }
    return false;
  });
  return input;
}

ResultSet distinct(ResultSet input) {
  std::vector<std::size_t> all(input.schema.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return distinct_on(input, all);
}

ResultSet distinct_on(const ResultSet& input, const std::vector<std::size_t>& columns) {
  ResultSet out;
  out.schema = input.schema;
  std::unordered_set<Key, KeyHash> seen;
  seen.reserve(input.rows.size());
  for (const Row& row : input.rows) {
    if (seen.insert(key_of(row, columns)).second) out.rows.push_back(row);
  }
  return out;
}

ResultSet limit(ResultSet input, std::size_t n) {
  if (input.rows.size() > n) input.rows.resize(n);
  return input;
}

}  // namespace hxrc::rel
