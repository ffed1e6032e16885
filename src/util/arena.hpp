// Bump allocator for ingest-side transient ownership.
//
// An Arena hands out raw bytes from geometrically growing blocks and frees
// everything at once on destruction (or reset()). The XML arena parse mode
// owns each document's unescaped text and node pool this way, so parsing
// costs O(blocks) allocations instead of O(nodes). Objects placed in the
// arena must be trivially destructible — the arena never runs destructors;
// anything needing one (e.g. the DOM node pool) lives beside the arena in a
// container that does.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace hxrc::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 4096;

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes == 0 ? kDefaultBlockBytes : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `size` bytes aligned to `align` (a power of two).
  char* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (current_ == nullptr || offset + size > capacity_) {
      grow(size + align);
      offset = (used_ + align - 1) & ~(align - 1);
    }
    char* out = current_ + offset;
    used_ = offset + size;
    return out;
  }

  /// Copies `s` into the arena and returns a stable view of the copy.
  std::string_view store(std::string_view s) {
    if (s.empty()) return {};
    char* out = allocate(s.size(), 1);
    std::memcpy(out, s.data(), s.size());
    return {out, s.size()};
  }

  /// Drops every block; previously returned pointers become invalid.
  void reset() noexcept {
    blocks_.clear();
    current_ = nullptr;
    capacity_ = 0;
    used_ = 0;
    reserved_ = 0;
  }

  /// Total block bytes reserved from the heap.
  std::size_t bytes_reserved() const noexcept { return reserved_; }

 private:
  void grow(std::size_t at_least) {
    std::size_t block = next_block_bytes_;
    if (block < at_least) block = at_least;
    next_block_bytes_ = block * 2;
    blocks_.push_back(std::make_unique<char[]>(block));
    current_ = blocks_.back().get();
    capacity_ = block;
    used_ = 0;
    reserved_ += block;
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* current_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t next_block_bytes_;
  std::size_t reserved_ = 0;
};

}  // namespace hxrc::util
