// Character-large-object storage with off-heap paging.
//
// The hybrid approach stores one CLOB per metadata attribute instance; the
// pure-CLOB and DB2/Oracle-style baselines store one per document. CLOBs are
// immutable once appended, matching the catalog's insert-and-query workload.
//
// At million-object scale the response-reconstruction payloads dominate the
// catalog's memory footprint while being touched only when a full document
// is rebuilt. The store therefore spills COLD payloads to a page file: once
// enable_paging() is armed, appended CLOBs accumulate until a segment's
// worth of payload is pending, then the whole run is sealed into one
// contiguous segment written through a ClobPager and the resident strings
// are released. Readers fetch spilled payloads through a small LRU cache of
// whole segments, so reconstructing one document (whose attribute CLOBs were
// appended together and thus share a segment) costs one page read.
//
// Concurrency contract (mirrors the MVCC row stores): ONE serialized writer
// appends and seals; any number of readers call get() on ids below a
// published snapshot watermark. Entries live in a StableVector (never
// moved); each entry's resident payload is published through one atomic
// pointer. Sealing retires the resident string through the epoch reclaimer,
// so a reader that loaded the pointer before the seal keeps dereferencing a
// live string; a reader that observes nullptr sees the entry's segment
// coordinates (release/acquire on the pointer exchange orders them).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "rel/stable_vector.hpp"
#include "util/epoch.hpp"

namespace hxrc::rel {

using ClobId = std::int64_t;

/// Backing storage for sealed CLOB segments. Implemented by
/// storage::PagedClobFile; the interface lives here so the rel layer does
/// not depend on the storage layer. The page file is derived cache data —
/// it is rebuilt by re-ingest/recovery, never part of the WAL/snapshot
/// durability contract.
class ClobPager {
 public:
  virtual ~ClobPager() = default;

  /// Persists one segment and returns its id. Writer-only.
  virtual std::uint32_t write_segment(std::string_view payload) = 0;

  /// Reads a whole segment back. Must tolerate concurrent write_segment of
  /// LATER segments (sealed segments are immutable).
  virtual std::string read_segment(std::uint32_t segment) = 0;
};

class ClobStore {
 public:
  static constexpr std::uint32_t kNoSegment = 0xffffffffu;

  ClobStore() = default;
  ClobStore(const ClobStore&) = delete;
  ClobStore& operator=(const ClobStore&) = delete;
  ClobStore(ClobStore&& other) noexcept { steal(other); }
  ClobStore& operator=(ClobStore&& other) noexcept {
    if (this != &other) {
      clear();
      steal(other);
    }
    return *this;
  }
  ~ClobStore() { clear(); }

  /// Arms paging: payloads spill to `pager` in ~segment_bytes segments;
  /// readers keep up to cache_segments spilled segments resident. The pager
  /// is borrowed, must outlive the store (or a clear()), and must be empty.
  /// Writer-context; call before the first append that should page.
  void enable_paging(ClobPager* pager, std::size_t segment_bytes = 4u << 20,
                     std::size_t cache_segments = 8) {
    pager_ = pager;
    segment_bytes_ = segment_bytes > 0 ? segment_bytes : 1;
    cache_capacity_ = cache_segments > 0 ? cache_segments : 1;
  }

  /// Defers freeing of sealed entries' resident strings so concurrent MVCC
  /// readers holding the pointer stay safe. Without one, sealing frees
  /// immediately (single-threaded use).
  void set_reclaimer(util::EpochManager* reclaimer) noexcept {
    reclaimer_ = reclaimer;
  }

  /// Stores a CLOB and returns its id (ids are dense, starting at 0).
  /// Writer-only (external serialization). May seal a full segment.
  ClobId append(std::string content) {
    const std::size_t size = content.size();
    auto* owned = new std::string(std::move(content));
    Entry entry;
    entry.resident.store(owned, std::memory_order_relaxed);
    entry.length = static_cast<std::uint32_t>(size);
    entries_.push_back(std::move(entry));
    bytes_.fetch_add(size, std::memory_order_relaxed);
    resident_bytes_.fetch_add(size, std::memory_order_relaxed);
    pending_bytes_ += size;
    if (pager_ != nullptr && pending_bytes_ >= segment_bytes_) seal_pending();
    return static_cast<ClobId>(entries_.size() - 1);
  }

  /// The payload, resident or paged back in. By value: a spilled payload
  /// has no stable address to reference (it is copied out of a cache
  /// segment that LRU eviction may drop).
  std::string get(ClobId id) const {
    const auto index = static_cast<std::size_t>(id);
    if (id < 0 || index >= entries_.size()) {
      throw std::out_of_range("clob id out of range");
    }
    const Entry& entry = entries_[index];
    if (const std::string* resident =
            entry.resident.load(std::memory_order_acquire)) {
      return *resident;
    }
    return read_spilled(entry);
  }

  /// Force-seals the pending tail into a (possibly short) segment.
  /// Writer-context; no-op without a pager or pending payload. Benches call
  /// this after ingest so the resident footprint reflects steady state.
  void flush() {
    if (pager_ != nullptr) seal_pending();
  }

  std::size_t count() const noexcept { return entries_.size(); }

  /// Total logical payload bytes, resident or spilled.
  std::size_t payload_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Payload bytes currently held on-heap (the footprint approx_bytes
  /// charges; spilled payload is off-heap by design).
  std::size_t resident_bytes() const noexcept {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  std::size_t spilled_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed) -
           resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Entries sealed into segments so far (a prefix of all ids).
  std::size_t sealed_count() const noexcept { return sealed_; }

  std::size_t cache_hits() const noexcept {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::size_t cache_misses() const noexcept {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  /// Requires quiescence (restore/teardown paths). Drops segment
  /// coordinates too: re-enable paging with a fresh pager afterwards.
  void clear() noexcept {
    const std::size_t n = entries_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::string* resident =
          entries_[i].resident.exchange(nullptr, std::memory_order_relaxed);
      delete resident;
    }
    entries_.clear();
    bytes_.store(0, std::memory_order_relaxed);
    resident_bytes_.store(0, std::memory_order_relaxed);
    pending_bytes_ = 0;
    sealed_ = 0;
    pager_ = nullptr;
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    cache_index_.clear();
  }

 private:
  struct Entry {
    std::atomic<const std::string*> resident{nullptr};
    std::uint32_t segment = kNoSegment;
    std::uint32_t offset = 0;
    std::uint32_t length = 0;

    Entry() = default;
    // Writer-side only (StableVector::push_back constructs in place before
    // the slot is published).
    Entry(Entry&& other) noexcept
        : resident(other.resident.exchange(nullptr, std::memory_order_relaxed)),
          segment(other.segment),
          offset(other.offset),
          length(other.length) {}
  };

  /// Seals entries [sealed_, count) into one segment: concatenated payload
  /// goes to the pager, then each entry's coordinates are set and its
  /// resident string retired. Coordinate stores happen BEFORE the pointer
  /// exchange (release) so a reader seeing nullptr (acquire) sees them.
  void seal_pending() {
    const std::size_t end = entries_.size();
    if (sealed_ == end) return;
    std::string payload;
    payload.reserve(pending_bytes_);
    for (std::size_t i = sealed_; i < end; ++i) {
      payload += *entries_[i].resident.load(std::memory_order_relaxed);
    }
    const std::uint32_t segment = pager_->write_segment(payload);
    std::uint32_t offset = 0;
    for (std::size_t i = sealed_; i < end; ++i) {
      Entry& entry = entries_[i];
      entry.segment = segment;
      entry.offset = offset;
      offset += entry.length;
      const std::string* resident =
          entry.resident.exchange(nullptr, std::memory_order_release);
      resident_bytes_.fetch_sub(resident->size(), std::memory_order_relaxed);
      if (reclaimer_ != nullptr) {
        reclaimer_->retire(resident);
      } else {
        delete resident;
      }
    }
    sealed_ = end;
    pending_bytes_ = 0;
  }

  std::string read_spilled(const Entry& entry) const {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    auto hit = cache_index_.find(entry.segment);
    if (hit == cache_index_.end()) {
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      cache_.emplace_front(entry.segment, pager_->read_segment(entry.segment));
      cache_index_[entry.segment] = cache_.begin();
      while (cache_.size() > cache_capacity_) {
        cache_index_.erase(cache_.back().first);
        cache_.pop_back();
      }
      hit = cache_index_.find(entry.segment);
    } else {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_.splice(cache_.begin(), cache_, hit->second);
    }
    return hit->second->second.substr(entry.offset, entry.length);
  }

  void steal(ClobStore& other) noexcept {
    entries_ = std::move(other.entries_);
    bytes_.store(other.bytes_.exchange(0, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    resident_bytes_.store(
        other.resident_bytes_.exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
    pending_bytes_ = std::exchange(other.pending_bytes_, 0);
    sealed_ = std::exchange(other.sealed_, 0);
    pager_ = std::exchange(other.pager_, nullptr);
    segment_bytes_ = other.segment_bytes_;
    cache_capacity_ = other.cache_capacity_;
    reclaimer_ = std::exchange(other.reclaimer_, nullptr);
    cache_ = std::move(other.cache_);
    cache_index_ = std::move(other.cache_index_);
    other.cache_.clear();
    other.cache_index_.clear();
  }

  StableVector<Entry> entries_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::size_t pending_bytes_ = 0;
  std::size_t sealed_ = 0;
  ClobPager* pager_ = nullptr;
  std::size_t segment_bytes_ = 4u << 20;
  util::EpochManager* reclaimer_ = nullptr;

  // Whole-segment LRU for spilled reads; front = most recent.
  mutable std::mutex cache_mutex_;
  mutable std::list<std::pair<std::uint32_t, std::string>> cache_;
  mutable std::unordered_map<
      std::uint32_t, std::list<std::pair<std::uint32_t, std::string>>::iterator>
      cache_index_;
  std::size_t cache_capacity_ = 8;
  mutable std::atomic<std::size_t> cache_hits_{0};
  mutable std::atomic<std::size_t> cache_misses_{0};
};

}  // namespace hxrc::rel
