// Page file backing for spilled CLOB segments.
//
// PagedClobFile implements rel::ClobPager over a single append-only file:
// each sealed segment is one framed record (magic, length, CRC32C, payload)
// written with pwrite at the running tail and read back with pread. The
// in-memory directory maps segment id -> (offset, length); the file is
// derived cache data, rebuilt by re-ingest, and is NOT part of the
// WAL/snapshot durability contract — so writes need no fsync and a torn
// tail is detected by the CRC on read, not repaired.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rel/clob_store.hpp"

namespace hxrc::storage {

class ClobPagerError : public std::runtime_error {
 public:
  explicit ClobPagerError(const std::string& message)
      : std::runtime_error(message) {}
};

class PagedClobFile final : public rel::ClobPager {
 public:
  /// Creates (truncating) the page file at `path`.
  explicit PagedClobFile(std::string path);
  ~PagedClobFile() override;

  PagedClobFile(const PagedClobFile&) = delete;
  PagedClobFile& operator=(const PagedClobFile&) = delete;

  std::uint32_t write_segment(std::string_view payload) override;
  std::string read_segment(std::uint32_t segment) override;

  std::size_t segment_count() const;

 private:
  struct SegmentLoc {
    std::uint64_t offset = 0;  // of the frame header
    std::uint32_t length = 0;  // payload bytes
  };

  std::string path_;
  int fd_ = -1;
  mutable std::mutex mutex_;  // directory + tail; pread/pwrite positioned
  std::uint64_t end_ = 0;
  std::vector<SegmentLoc> segments_;
};

}  // namespace hxrc::storage
