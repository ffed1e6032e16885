// Typed values, rows, and table schemas for the relational engine.
//
// The engine supports the four types a metadata catalog needs: NULL, 64-bit
// integers, doubles, and strings (dates are stored as ISO-8601 strings,
// which order correctly lexicographically). Values are small value types;
// rows are vectors of values.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hxrc::rel {

enum class Type { kNull, kInt, kDouble, kString };

std::string_view to_string(Type type) noexcept;

class TypeError : public std::runtime_error {
 public:
  explicit TypeError(const std::string& message) : std::runtime_error(message) {}
};

class Value {
 public:
  /// NULL by default.
  Value() = default;
  Value(std::int64_t v) : data_(v) {}                 // NOLINT(google-explicit-constructor)
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}                       // NOLINT
  Value(std::string v) : data_(std::move(v)) {}       // NOLINT
  Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
  Value(const char* v) : data_(std::string(v)) {}     // NOLINT

  static Value null() { return Value(); }

  /// Dictionary-encoded STRING: stores only the canonical pointer from an
  /// Interner. Behaves exactly like Value(*s) everywhere (type, compare,
  /// hash, accessors) but costs a pointer per row and compares by pointer
  /// when both sides are interned. The pointee must outlive the value (see
  /// rel/interner.hpp for the lifetime contract).
  static Value interned(const std::string* s) {
    Value v;
    v.data_ = s;
    return v;
  }

  Type type() const noexcept {
    switch (data_.index()) {
      case 1: return Type::kInt;
      case 2: return Type::kDouble;
      case 3:
      case 4: return Type::kString;
      default: return Type::kNull;
    }
  }

  bool is_null() const noexcept { return data_.index() == 0; }
  /// True for dictionary-encoded strings (footprint accounting in E10).
  bool is_interned() const noexcept { return data_.index() == 4; }
  bool is_numeric() const noexcept {
    return type() == Type::kInt || type() == Type::kDouble;
  }

  /// Typed accessors; throw TypeError on mismatch.
  std::int64_t as_int() const;
  double as_double() const;  // accepts kInt too (widening)
  const std::string& as_string() const;

  /// Zero-copy view of a string value; throws TypeError on mismatch. Used
  /// by in-place predicate evaluation over base-table rows, where the
  /// engine compares against the stored string without constructing
  /// temporary Values.
  std::string_view as_string_view() const { return as_string(); }

  /// Human-readable rendering (NULL prints as "NULL").
  std::string to_string() const;

  /// Total ordering for sorting (ORDER BY, MIN/MAX):
  /// NULL < numerics (compared as doubles) < strings.
  /// Returns <0, 0, >0.
  int compare(const Value& other) const noexcept;

  /// SQL-style equality: NULL equals nothing (including NULL).
  bool sql_equals(const Value& other) const noexcept {
    if (is_null() || other.is_null()) return false;
    return compare(other) == 0;
  }

  /// Structural equality (NULL == NULL): used by indexes and tests.
  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.compare(b) == 0 && a.is_null() == b.is_null();
  }
  friend bool operator<(const Value& a, const Value& b) noexcept {
    return a.compare(b) < 0;
  }

  std::size_t hash() const noexcept;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string, const std::string*>
      data_;
};

using Row = std::vector<Value>;

/// Composite key for indexes and grouping.
struct Key {
  std::vector<Value> parts;

  friend bool operator==(const Key& a, const Key& b) noexcept {
    if (a.parts.size() != b.parts.size()) return false;
    for (std::size_t i = 0; i < a.parts.size(); ++i) {
      if (!(a.parts[i] == b.parts[i])) return false;
    }
    return true;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto& part : key.parts) {
      h ^= part.hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// A named, typed column.
struct Column {
  std::string name;
  Type type = Type::kString;
};

/// Ordered column list; resolves names to positions.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::initializer_list<Column> columns) : columns_(columns) {}
  explicit TableSchema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const noexcept { return columns_; }
  std::size_t size() const noexcept { return columns_.size(); }
  const Column& column(std::size_t i) const { return columns_.at(i); }

  /// Position of a column by name; nullopt when absent.
  std::optional<std::size_t> index_of(std::string_view name) const noexcept;

  /// Position of a column by name; throws TypeError when absent.
  std::size_t require(std::string_view name) const;

  void add(Column column) { columns_.push_back(std::move(column)); }

 private:
  std::vector<Column> columns_;
};

/// True when `value` is storable in a column of type `type` (NULL always is;
/// kInt widens into kDouble columns).
bool type_compatible(Type type, const Value& value) noexcept;

}  // namespace hxrc::rel
