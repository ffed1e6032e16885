// String dictionary for dictionary-encoded columns.
//
// The catalog's name-bearing columns (tag names, attribute-definition and
// element names) repeat the same handful of strings across millions of rows.
// The interner stores each distinct string once in pointer-stable storage
// and hands out `const std::string*` handles; `Value::interned` wraps a
// handle as a STRING value whose payload is one pointer, so row storage
// stops duplicating the bytes and equality between two interned values from
// the same interner is a pointer compare.
//
// Lifetime contract: interned Values must not outlive the Interner they
// came from. The Database owns one interner with the same lifetime as its
// tables, so values in those tables are always safe.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace hxrc::rel {

class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;
  // Movable: deque nodes stay put, so canonical pointers and the map's
  // string_view keys survive a move (Database relies on this).
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Returns the canonical pointer for `s`, storing a copy on first sight.
  /// Pointers are stable for the interner's lifetime; equal content always
  /// yields the same pointer.
  const std::string* intern(std::string_view s) {
    const auto it = map_.find(s);
    if (it != map_.end()) return it->second;
    storage_.emplace_back(s);
    const std::string* canonical = &storage_.back();
    map_.emplace(*canonical, canonical);
    return canonical;
  }

  /// Number of distinct strings interned.
  std::size_t size() const noexcept { return storage_.size(); }

  /// Approximate heap footprint of the dictionary itself.
  std::size_t approx_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const std::string& s : storage_) bytes += sizeof(std::string) + s.capacity();
    bytes += map_.size() * (sizeof(std::string_view) + sizeof(const std::string*) +
                            2 * sizeof(void*));
    return bytes;
  }

 private:
  /// deque: stable addresses under growth (the map keys view into it).
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, const std::string*> map_;
};

}  // namespace hxrc::rel
