// Database serialization: the stable binary form of a database's content,
// used as the table/CLOB section of the catalog snapshot stream.
//
// Layout (little-endian fixed-width integers, length-prefixed strings):
//   "HXRCDBB1"
//   u64 clob_count; per clob: u64 len, bytes
//   u32 table_count; per table: str name, u32 cols, u64 rows, rows*cols values
//   value := u8 tag (0 NULL, 1 INT, 2 DOUBLE, 3 STRING)
//            | i64 | raw IEEE double bit pattern | u32 len + bytes
//   "HXRCDBE1"
//
// save_database writes every table (alphabetical) plus the CLOB store.
// Doubles round-trip exactly. Interned string values serialize by content,
// so the bytes are independent of interner pointer identity; on load they
// become owned strings. Index definitions are NOT serialized —
// load_database_into refills the target database's existing tables
// (created by the application with their indexes), so indexes rebuild on
// load.
#pragma once

#include <iosfwd>

#include "rel/database.hpp"

namespace hxrc::rel {

class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& message) : std::runtime_error(message) {}
};

/// Writes the database (tables + CLOB store) to a stream.
void save_database(const Database& db, std::ostream& out);

/// Restores into an existing database whose tables were already created
/// (schemas must match by name/arity; extra tables in `db` that are absent
/// from the stream are truncated). Existing rows and CLOBs are discarded.
/// Leading ASCII whitespace is skipped so the section can follow a text
/// header. Throws SerializeError on an unknown table, an arity mismatch, a
/// bad magic or end marker, or a truncated stream.
void load_database_into(Database& db, std::istream& in);

}  // namespace hxrc::rel
