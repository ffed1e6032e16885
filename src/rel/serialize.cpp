#include "rel/serialize.hpp"

#include <cstring>
#include <istream>
#include <ostream>

namespace hxrc::rel {

namespace {

constexpr char kMagic[8] = {'H', 'X', 'R', 'C', 'D', 'B', 'B', '1'};
constexpr char kEnd[8] = {'H', 'X', 'R', 'C', 'D', 'B', 'E', '1'};

void put_u32(std::ostream& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(buf, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(buf, 8);
}

void get_exact(std::istream& in, char* buf, std::size_t n) {
  in.read(buf, static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) {
    throw SerializeError("truncated database stream");
  }
}

std::uint32_t get_u32(std::istream& in) {
  char buf[4];
  get_exact(in, buf, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  char buf[8];
  get_exact(in, buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

void put_str(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_str(std::istream& in) {
  const std::uint32_t n = get_u32(in);
  std::string s(n, '\0');
  if (n > 0) get_exact(in, s.data(), n);
  return s;
}

void put_value(std::ostream& out, const Value& value) {
  switch (value.type()) {
    case Type::kNull:
      out.put(0);
      break;
    case Type::kInt:
      out.put(1);
      put_u64(out, static_cast<std::uint64_t>(value.as_int()));
      break;
    case Type::kDouble: {
      out.put(2);
      const double d = value.as_double();
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      put_u64(out, bits);
      break;
    }
    case Type::kString:
      // Interned values serialize identically to owned strings — by content.
      out.put(3);
      put_str(out, value.as_string());
      break;
  }
}

Value get_value(std::istream& in) {
  char tag = 0;
  get_exact(in, &tag, 1);
  switch (tag) {
    case 0:
      return Value::null();
    case 1:
      return Value(static_cast<std::int64_t>(get_u64(in)));
    case 2: {
      const std::uint64_t bits = get_u64(in);
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof d);
      return Value(d);
    }
    case 3:
      return Value(get_str(in));
    default:
      throw SerializeError("unknown value tag " + std::to_string(int(tag)));
  }
}

}  // namespace

void save_database(const Database& db, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  put_u64(out, db.clobs().count());
  for (std::size_t c = 0; c < db.clobs().count(); ++c) {
    const std::string& clob = db.clobs().get(static_cast<ClobId>(c));
    put_u64(out, clob.size());
    out.write(clob.data(), static_cast<std::streamsize>(clob.size()));
  }
  const auto names = db.table_names();
  put_u32(out, static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table& table = *db.table(name);
    put_str(out, name);
    put_u32(out, static_cast<std::uint32_t>(table.schema().size()));
    put_u64(out, table.row_count());
    for (const Row& row : table.rows()) {
      for (const Value& value : row) put_value(out, value);
    }
  }
  out.write(kEnd, sizeof kEnd);
  if (!out) throw SerializeError("write failed");
}

void load_database_into(Database& db, std::istream& in) {
  // Tolerate the newline (or spaces) the catalog stream's text header
  // leaves behind.
  while (in.peek() == '\n' || in.peek() == ' ' || in.peek() == '\r') in.get();
  char magic[8];
  get_exact(in, magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof magic) != 0) {
    throw SerializeError("not an HXRCDBB1 database stream");
  }
  db.clobs().clear();
  const std::uint64_t clob_count = get_u64(in);
  for (std::uint64_t c = 0; c < clob_count; ++c) {
    const std::uint64_t len = get_u64(in);
    std::string clob(static_cast<std::size_t>(len), '\0');
    if (len > 0) get_exact(in, clob.data(), static_cast<std::size_t>(len));
    db.clobs().append(std::move(clob));
  }
  for (const std::string& name : db.table_names()) {
    db.require_table(name).truncate();
  }
  const std::uint32_t table_count = get_u32(in);
  for (std::uint32_t t = 0; t < table_count; ++t) {
    const std::string name = get_str(in);
    const std::uint32_t cols = get_u32(in);
    const std::uint64_t rows = get_u64(in);
    Table* table = db.table(name);
    if (table == nullptr) {
      throw SerializeError("stream contains unknown table '" + name + "'");
    }
    if (table->schema().size() != cols) {
      throw SerializeError("arity mismatch for table '" + name + "'");
    }
    table->reserve(static_cast<std::size_t>(rows));
    for (std::uint64_t r = 0; r < rows; ++r) {
      Row row;
      row.reserve(cols);
      for (std::uint32_t c = 0; c < cols; ++c) row.push_back(get_value(in));
      table->append(std::move(row));
    }
  }
  char end[8];
  get_exact(in, end, sizeof end);
  if (std::memcmp(end, kEnd, sizeof end) != 0) {
    throw SerializeError("missing end marker");
  }
}

}  // namespace hxrc::rel
