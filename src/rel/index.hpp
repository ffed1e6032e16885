// Secondary indexes over table rows, generation-versioned for MVCC reads.
//
// One physical form: a hash index answering equality probes, the only kind
// the Fig. 4 pipeline and the §5 response builder issue (joins on
// attribute- and element-definition ids, value keys and object-ID inverted
// lists). Range criteria need no index of their own: the engine probes the
// element-definition bucket and filters the rows it visits.
//
// The probe API is append-to-out (`lookup_into`): hot paths reuse one
// scratch vector across thousands of probes instead of allocating a fresh
// std::vector per lookup. `bucket_size` exposes per-key entry counts as a
// cheap cardinality estimate so the query engine can order criteria by
// selectivity before touching any row.
//
// Physical layout: an index is a list of immutable GENERATIONS, each
// covering a contiguous row range [begin, end) and holding grouped postings
// (one entry per distinct key, row ids ascending — catch-up inserts rows in
// increasing id order). The generation list is published through one atomic
// pointer. sync() — called by writers under the catalog's commit lock, or
// by the first probe in single-threaded use — builds a generation over the
// un-indexed row tail and merges size-tiered from the newest end (merge
// while the older neighbour holds at most twice the rows), which bounds the
// list at O(log n) generations for amortised O(log n) work per row.
//
// Superseded generation lists (and merged-away generations) are handed to
// an optional util::EpochManager: a concurrent reader that pinned an epoch
// before the merge keeps probing the old list safely until it unpins. With
// no reclaimer attached (baselines, SQL examples — all
// single-threaded) superseded structures are deleted immediately.
//
// Probe forms:
//   lookup_into / bucket_size — sync first, then probe the whole index.
//     Single-writer contexts; a probe may take sync_mutex_.
//   lookup_into_at / bucket_size_at — MVCC form: never mutates, never
//     locks. Probes the published generations, truncating to rows below a
//     snapshot watermark (postings are ascending, so a straddling
//     generation is cut with one binary search). Rows the generations do
//     not cover yet are matched by a linear tail scan — normally empty,
//     because the commit protocol syncs before publishing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rel/postings.hpp"
#include "rel/stable_vector.hpp"
#include "rel/value.hpp"
#include "util/epoch.hpp"

namespace hxrc::rel {

using RowId = std::size_t;

/// Physical footprint of an index's published generations (rel/postings.hpp
/// compression surfaces here: postings_bytes vs postings_raw_bytes is the
/// ratio reported in BENCH_scale.json).
struct IndexStats {
  std::size_t keys = 0;                // distinct keys summed over generations
  std::size_t postings = 0;            // total posting entries
  std::size_t postings_bytes = 0;      // physical posting-list heap bytes
  std::size_t postings_raw_bytes = 0;  // sizeof(RowId) per entry equivalent

  IndexStats& operator+=(const IndexStats& o) noexcept {
    keys += o.keys;
    postings += o.postings;
    postings_bytes += o.postings_bytes;
    postings_raw_bytes += o.postings_raw_bytes;
    return *this;
  }
};

class Index {
 public:
  static constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

  /// An index over `rows`, its table's row storage. Tables hold their
  /// indexes and live behind unique_ptr, so the reference is stable for the
  /// index's whole lifetime. Existing rows are picked up by the first sync.
  Index(std::string name, std::vector<std::size_t> key_columns, const StableVector<Row>& rows)
      : name_(std::move(name)), key_columns_(std::move(key_columns)), rows_(rows) {}
  ~Index() {
    const GenList* list = published_.load(std::memory_order_relaxed);
    if (list != nullptr) {
      for (const Gen* gen : list->gens) delete gen;
      delete list;
    }
  }

  const std::string& name() const noexcept { return name_; }
  const std::vector<std::size_t>& key_columns() const noexcept { return key_columns_; }

  /// Defers reclamation of superseded generations to `reclaimer` (nullptr:
  /// delete immediately — single-threaded use).
  void set_reclaimer(util::EpochManager* reclaimer) noexcept { reclaimer_ = reclaimer; }

  /// Appends every row id under `key` to `out` (does not clear it). Hot
  /// paths pass a reused scratch vector; no allocation happens when the
  /// scratch capacity suffices. Syncs first — single-writer contexts only.
  void lookup_into(const Key& key, std::vector<RowId>& out) const {
    sync();
    lookup_into_at(key, kNoLimit, out);
  }

  /// Number of entries under `key` — a cheap cardinality estimate (no row
  /// access, no predicate evaluation) used to order criteria by estimated
  /// selectivity. Syncs first — single-writer contexts only.
  std::size_t bucket_size(const Key& key) const {
    sync();
    return bucket_size_at(key, kNoLimit);
  }

  /// MVCC probe: row ids under `key` that are < `limit`, appended to `out`
  /// in ascending order. Never mutates the index, never blocks.
  void lookup_into_at(const Key& key, std::size_t limit, std::vector<RowId>& out) const {
    const GenList* list = published_.load(std::memory_order_acquire);
    std::size_t covered = 0;
    if (list != nullptr) {
      covered = list->end;
      for (const Gen* gen : list->gens) {
        if (gen->begin >= limit) break;
        const auto it = gen->map.find(key);
        if (it == gen->map.end()) continue;
        if (gen->end <= limit) {
          it->second.append_to(out);
        } else {
          it->second.append_below(limit, out);
        }
      }
    }
    if (covered < limit) scan_tail(key, covered, limit, out);
  }

  std::size_t bucket_size_at(const Key& key, std::size_t limit) const {
    const GenList* list = published_.load(std::memory_order_acquire);
    std::size_t covered = 0;
    std::size_t n = 0;
    if (list != nullptr) {
      covered = list->end;
      for (const Gen* gen : list->gens) {
        if (gen->begin >= limit) break;
        const auto it = gen->map.find(key);
        if (it == gen->map.end()) continue;
        n += gen->end <= limit ? it->second.size() : it->second.count_below(limit);
      }
    }
    if (covered < limit) n += count_tail(key, covered, limit);
    return n;
  }

  /// Every row contributes exactly one posting, so the logical entry count
  /// is the attached table's row count — no catch-up needed to answer.
  std::size_t entry_count() const noexcept { return rows_.size(); }

  /// Physical footprint of the published generations (never syncs).
  IndexStats stats() const noexcept {
    IndexStats st;
    const GenList* list = published_.load(std::memory_order_acquire);
    if (list == nullptr) return st;
    for (const Gen* gen : list->gens) {
      st.keys += gen->map.size();
      for (const auto& [key, postings] : gen->map) {
        st.postings += postings.size();
        st.postings_bytes += postings.heap_bytes();
        st.postings_raw_bytes += postings.raw_bytes();
      }
    }
    return st;
  }

  /// Convenience wrapper; allocates per probe, so hot paths should prefer
  /// lookup_into with a reused scratch vector.
  std::vector<RowId> lookup(const Key& key) const {
    std::vector<RowId> out;
    lookup_into(key, out);
    return out;
  }

  /// Brings the generations up to date with the attached row store.
  /// Lock-free when already synced (one acquire load); the catalog's commit
  /// protocol calls this for every index before publishing a snapshot, so
  /// MVCC probes never find uncovered rows.
  void sync() const {
    if (synced_rows() >= rows_.size()) return;
    const std::lock_guard<std::mutex> lock(sync_mutex_);
    const_cast<Index*>(this)->rebuild_to(rows_.size());
  }

 private:
  using KeyMap = std::unordered_map<Key, PostingList, KeyHash>;
  struct Gen {
    std::size_t begin = 0;
    std::size_t end = 0;
    KeyMap map;
    std::size_t row_span() const noexcept { return end - begin; }
  };
  struct GenList {
    std::vector<const Gen*> gens;
    std::size_t end = 0;
  };

  /// Rows covered by the published generations (acquire load; no lock).
  std::size_t synced_rows() const noexcept {
    const GenList* list = published_.load(std::memory_order_acquire);
    return list == nullptr ? 0 : list->end;
  }

  /// Builds/merges generations so they cover rows [0, target). Called with
  /// sync_mutex_ held; re-checks the covered prefix under the lock.
  void rebuild_to(std::size_t target) {
    const GenList* current = published_.load(std::memory_order_relaxed);
    const std::size_t from = current == nullptr ? 0 : current->end;
    if (from >= target) return;

    auto* fresh = new Gen;
    fresh->begin = from;
    fresh->end = target;
    for (std::size_t r = from; r < target; ++r) {
      postings_for(fresh->map, rows_[r]).push_back(r);
    }
    // The generation is immutable once published; drop building slack.
    for (auto& [key, ids] : fresh->map) ids.shrink();

    auto* next = new GenList;
    if (current != nullptr) next->gens = current->gens;
    next->gens.push_back(fresh);
    next->end = target;

    // Size-tiered merge from the newest end: keeps O(log n) generations.
    while (next->gens.size() >= 2) {
      const Gen* older = next->gens[next->gens.size() - 2];
      const Gen* newer = next->gens.back();
      if (older->row_span() > 2 * newer->row_span()) break;
      auto* merged = new Gen;
      merged->begin = older->begin;
      merged->end = newer->end;
      merged->map = older->map;
      for (const auto& [key, ids] : newer->map) {
        PostingList& list = merged->map[key];
        list.append_all(ids);
        list.shrink();
      }
      dispose(older);
      dispose(newer);
      next->gens.pop_back();
      next->gens.back() = merged;
    }

    published_.store(next, std::memory_order_release);
    dispose(current);
  }

  PostingList& postings_for(KeyMap& map, const Row& row) {
    // Probe with a reused scratch key: on the hit path (almost every insert
    // of a catch-up pass) nothing is allocated. Only a first-seen key pays
    // the copy-into-the-map cost. Inserts run under sync_mutex_, so the
    // mutable scratch is safe.
    scratch_.parts.clear();
    for (const std::size_t c : key_columns_) scratch_.parts.push_back(row[c]);
    const auto it = map.find(scratch_);
    if (it != map.end()) return it->second;
    return map.emplace(std::move(scratch_), PostingList{}).first->second;
  }

  /// Deletes `object` once no pinned reader can still reach it.
  template <typename T>
  void dispose(const T* object) const {
    if (object == nullptr) return;
    if (reclaimer_ != nullptr) {
      reclaimer_->retire(object);
    } else {
      delete object;
    }
  }

  bool row_matches(const Row& row, const Key& key) const {
    if (key.parts.size() != key_columns_.size()) return false;
    for (std::size_t i = 0; i < key_columns_.size(); ++i) {
      if (!(row[key_columns_[i]] == key.parts[i])) return false;
    }
    return true;
  }

  /// Defensive fallback for MVCC probes: linear scan of rows the published
  /// generations do not cover (normally an empty range — the commit
  /// protocol syncs before publishing).
  void scan_tail(const Key& key, std::size_t from, std::size_t limit,
                 std::vector<RowId>& out) const {
    const std::size_t to = std::min(limit, rows_.size());
    for (std::size_t r = from; r < to; ++r) {
      if (row_matches(rows_[r], key)) out.push_back(r);
    }
  }

  std::size_t count_tail(const Key& key, std::size_t from, std::size_t limit) const {
    const std::size_t to = std::min(limit, rows_.size());
    std::size_t n = 0;
    for (std::size_t r = from; r < to; ++r) {
      if (row_matches(rows_[r], key)) ++n;
    }
    return n;
  }

  std::string name_;
  std::vector<std::size_t> key_columns_;
  const StableVector<Row>& rows_;
  util::EpochManager* reclaimer_ = nullptr;
  mutable std::mutex sync_mutex_;
  std::atomic<const GenList*> published_{nullptr};
  Key scratch_;
};

}  // namespace hxrc::rel
