#include "rel/database.hpp"

#include "rel/sql/parser.hpp"
#include "rel/sql/planner.hpp"

namespace hxrc::rel {

Table& Database::create_table(const std::string& name, TableSchema schema) {
  if (tables_.count(name) != 0) {
    throw TypeError("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  table->set_slot(slots_assigned_++);
  table->set_reclaimer(reclaimer_);
  Table& ref = *table;
  tables_.emplace(name, std::move(table));
  return ref;
}

Table* Database::table(std::string_view name) noexcept {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(std::string_view name) const noexcept {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Database::require_table(std::string_view name) {
  Table* t = table(name);
  if (t == nullptr) throw TypeError("unknown table '" + std::string(name) + "'");
  return *t;
}

const Table& Database::require_table(std::string_view name) const {
  const Table* t = table(name);
  if (t == nullptr) throw TypeError("unknown table '" + std::string(name) + "'");
  return *t;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

ResultSet Database::execute(std::string_view sql_text) {
  const sql::Statement stmt = sql::parse_statement(sql_text);

  if (const auto* select = std::get_if<sql::SelectStmt>(&stmt)) {
    return sql::execute_select(*this, *select);
  }

  if (const auto* create = std::get_if<sql::CreateTableStmt>(&stmt)) {
    create_table(create->name, TableSchema(create->columns));
    return ResultSet{};
  }

  if (const auto* create_index = std::get_if<sql::CreateIndexStmt>(&stmt)) {
    Table& t = require_table(create_index->table_name);
    t.create_hash_index(create_index->index_name, create_index->columns);
    return ResultSet{};
  }

  const auto& insert = std::get<sql::InsertStmt>(stmt);
  Table& t = require_table(insert.table_name);
  std::vector<std::size_t> positions;
  if (!insert.columns.empty()) {
    for (const auto& column : insert.columns) {
      positions.push_back(t.schema().require(column));
    }
  }
  for (const auto& literals : insert.rows) {
    if (positions.empty()) {
      t.append(Row(literals.begin(), literals.end()));
    } else {
      if (literals.size() != positions.size()) {
        throw TypeError("INSERT arity mismatch");
      }
      Row row(t.schema().size());
      for (std::size_t i = 0; i < positions.size(); ++i) row[positions[i]] = literals[i];
      t.append(std::move(row));
    }
  }
  ResultSet out;
  out.schema.add(Column{"inserted", Type::kInt});
  out.rows.push_back(Row{Value(static_cast<std::int64_t>(insert.rows.size()))});
  return out;
}

std::size_t Database::approx_bytes() const noexcept {
  std::size_t bytes = clobs_.resident_bytes() + interner_.approx_bytes();
  for (const auto& [name, table] : tables_) {
    (void)name;
    bytes += table->approx_bytes();
  }
  return bytes;
}

}  // namespace hxrc::rel
