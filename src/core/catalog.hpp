// MetadataCatalog: the public facade of the hybrid XML-relational catalog.
//
// Wires together the partitioned schema, the definition registry, the
// relational database (shredded tables + ordering tables + CLOB store), the
// shredder, the Fig. 4 query engine, and the §5 response builder.
//
// Typical use:
//
//   xml::Schema schema = workload::lead_schema();
//   MetadataCatalog catalog(schema, workload::lead_annotations());
//   catalog.define_dynamic_attribute("grid", "ARPS", {{"dx", LeafType::kDouble}, ...});
//   ObjectId id = catalog.ingest_xml(document_text, "run-042", "alice");
//   auto ids = catalog.query(query);
//   std::string response = catalog.build_response(ids);
//
// Concurrency: MVCC snapshot reads. Mutations (ingest/add_attribute/define/
// delete/restore) serialize on an exclusive commit lock, apply their rows to
// pointer-stable storage, sync the index generations, and publish an
// immutable CatalogSnapshot (epoch, per-table watermarks, stats) through one
// atomic pointer. Definitions and tombstones are table rows too, so the
// watermarks freeze them with everything else. Reads
// (query/query_paged/fetch/build_response/browse/stats) pin an epoch in a
// reclamation slot, load the snapshot, and run entirely against that frozen
// state — they NEVER take a lock and never block behind a writer. Superseded snapshots and index generations
// are reclaimed once no reader pins their epoch (util::EpochManager).
// Continuation cursors carry the epoch they were issued at and go stale on
// any mutation. The accessors that hand out raw internals (database(),
// registry(), thesaurus()) are NOT snapshot-isolated — confine their use to
// single-threaded setup/teardown or hold read_lock() (which pauses writers
// but not other readers).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/model.hpp"
#include "core/partition.hpp"
#include "core/query.hpp"
#include "core/query_cache.hpp"
#include "core/registry.hpp"
#include "core/response.hpp"
#include "core/shredder.hpp"
#include "rel/database.hpp"
#include "rel/read_view.hpp"
#include "util/epoch.hpp"
#include "util/metrics.hpp"
#include "xml/dom.hpp"
#include "xml/schema.hpp"

namespace hxrc::core {

struct CatalogConfig {
  ShredOptions shred;
  EngineOptions engine;
  /// Snapshot-keyed query cache (core/query_cache.hpp). Enabled by default;
  /// each published snapshot owns an empty per-generation segment.
  CacheConfig cache;
};

/// A continuation cursor named a catalog version that no longer exists: a
/// mutation (ingest, add_attribute, define, delete, ...) happened between
/// pages. Clients must restart the query; the service layer maps this to
/// `<catalogResponse status="error" code="stale_cursor">`.
class StaleCursorError : public ValidationError {
 public:
  using ValidationError::ValidationError;
};

/// One page of paginated query results (see ReadGuard::query_paged).
struct QueryPage {
  /// Matching ids, ascending, at most the query's limit.
  std::vector<ObjectId> ids;
  /// Opaque continuation cursor; empty when this is the last page.
  std::string next_cursor;
  /// Catalog version (epoch) the page was computed at.
  std::uint64_t version = 0;
};

/// Continuation cursors are opaque on the wire but versioned inside:
/// "HXC1.<epoch-hex>.<after-id-hex>". The epoch pin is what makes pages
/// coherent without holding a lock between requests — any mutation bumps
/// the epoch and invalidates outstanding cursors. Fields are 1-16 lowercase
/// hex digits with no sign, prefix or whitespace; decode_cursor accepts
/// exactly what encode_cursor emits. The federation router synthesizes
/// shard cursors with the same codec.
std::string encode_cursor(std::uint64_t epoch, std::uint64_t after);
bool decode_cursor(std::string_view text, std::uint64_t& epoch, std::uint64_t& after);

/// One ".<hex>" cursor field: append_hex_field writes it; take_hex_field
/// reads it at `pos` (which must point at the dot) and requires the field
/// to end at the next '.' or at the end of `text`.
void append_hex_field(std::string& out, std::uint64_t value);
bool take_hex_field(std::string_view text, std::size_t& pos, std::uint64_t& value);

/// Declaration of one element of a dynamic attribute definition.
struct DynamicElementSpec {
  std::string name;
  xml::LeafType type = xml::LeafType::kString;
  /// Defaults to the attribute's source when empty.
  std::string source;
};

/// One catalog mutation, as seen by the durability layer. Emitted by every
/// state-changing method while the exclusive commit lock is still held,
/// after the in-memory mutation succeeded and the version epoch was bumped
/// but BEFORE the snapshot is published — so an observer (the WAL appender)
/// sees mutations in exactly the order a recovery replay must reapply them,
/// and a mutation is durable before any reader can observe it. Views/
/// pointers are valid only for the duration of the callback. Every field
/// after `kind` has a default, so an event names only what it carries.
struct MutationEvent {
  enum class Kind {
    kIngest,
    kDefine,
    kAddAttribute,
    kDelete,
  };
  Kind kind;
  /// Catalog version after the mutation.
  std::uint64_t epoch = 0;
  ObjectId object = -1;          ///< ingest / addAttribute / delete
  AttrDefId attr = kNoAttr;      ///< define: the assigned definition id
  AttrDefId parent = kNoAttr;    ///< define: parent definition (kNoAttr = top-level)
  Visibility visibility = Visibility::kAdmin;
  std::string_view name{};       ///< ingest doc name / define name
  std::string_view source{};     ///< define source
  std::string_view owner{};
  std::string_view path{};       ///< addAttribute schema path
  const xml::Node* content = nullptr;  ///< ingest root / addAttribute subtree
  const std::vector<DynamicElementSpec>* elements = nullptr;  ///< define
};

/// Observer invoked under the exclusive commit lock; see MutationEvent. A
/// throwing observer propagates to the mutating caller — the in-memory
/// mutation has already been applied (and is published on the way out), so
/// the durability layer treats that as a poisoned log (the process keeps
/// serving memory but must surface the I/O failure).
using MutationObserver = std::function<void(const MutationEvent&)>;

/// The immutable state one commit published: everything a reader needs to
/// answer any read at that epoch. Its size does not grow with the catalog;
/// the struct is freed by epoch reclamation once no reader pins it.
struct CatalogSnapshot {
  std::uint64_t epoch = 0;
  /// Per-table row-count watermarks: rows at or above them are invisible.
  /// They cover the definition and tombstone tables too.
  rel::ReadView view;
  ShredStats stats;
  ObjectId next_object = 0;
  /// This generation's query-cache segment (nullptr when caching is off).
  /// Readers reach it only through their pinned snapshot, so an entry can
  /// never be observed by a reader of a different generation; the segment
  /// is reclaimed with the snapshot once no reader pins the epoch.
  std::unique_ptr<QueryCacheSegment> cache;
};

class MetadataCatalog {
 public:
  /// The schema is partitioned with the given annotations (see
  /// Partition::build). The schema must outlive the catalog.
  MetadataCatalog(const xml::Schema& schema, PartitionAnnotations annotations,
                  CatalogConfig config = {});
  ~MetadataCatalog();

  // ---- ingest ----

  /// Ingests a parsed document; returns the new object id.
  ObjectId ingest(const xml::Document& doc, const std::string& name,
                  const std::string& owner);

  /// Parses and ingests serialized XML.
  ObjectId ingest_xml(std::string_view xml_text, const std::string& name,
                      const std::string& owner);

  /// Adds one attribute instance to an existing object (§5: "as metadata
  /// attributes were inserted later"). `attribute_path` is the schema path
  /// of the attribute root (e.g. "data/idinfo/keywords/theme"); `content`
  /// is the attribute subtree (its root tag must match). The instance
  /// sequences after the object's existing siblings in rebuilt responses.
  void add_attribute(ObjectId object, std::string_view attribute_path,
                     const xml::Node& content, const std::string& owner = {});

  // ---- definitions ----

  /// Registers a dynamic attribute (admin level by default) with its
  /// elements. Returns the attribute definition id.
  AttrDefId define_dynamic_attribute(const std::string& name, const std::string& source,
                                     const std::vector<DynamicElementSpec>& elements = {},
                                     Visibility visibility = Visibility::kAdmin,
                                     const std::string& owner = {}) {
    return define_dynamic(kNoAttr, name, source, elements, visibility, owner);
  }

  /// Registers a dynamic sub-attribute under an existing definition.
  AttrDefId define_dynamic_sub_attribute(AttrDefId parent, const std::string& name,
                                         const std::string& source,
                                         const std::vector<DynamicElementSpec>& elements = {},
                                         Visibility visibility = Visibility::kAdmin,
                                         const std::string& owner = {}) {
    return define_dynamic(parent, name, source, elements, visibility, owner);
  }

  // ---- query & response ----

  std::vector<ObjectId> query(const ObjectQuery& q, QueryPlanInfo* info = nullptr) const;

  /// Full tagged-XML response for a set of object ids (§5).
  std::string build_response(std::span<const ObjectId> ids) const;

  /// Projected response: only the attributes at the given schema paths
  /// (e.g. {"data/idinfo/keywords/theme"}) are returned for each object.
  std::string build_response(std::span<const ObjectId> ids,
                             const std::vector<std::string>& attribute_paths) const;

  /// One object's reconstructed document, parsed back to a DOM.
  /// Throws ValidationError for deleted objects.
  xml::Document fetch(ObjectId id) const;

  // ---- deletion ----

  /// Tombstones an object: it stops matching queries and can no longer be
  /// fetched. Storage is reclaimed lazily (the tables are append-only).
  void delete_object(ObjectId id);

  bool is_deleted(ObjectId id) const { return ReadGuard(*this).is_deleted(id); }
  std::size_t deleted_count() const { return ReadGuard(*this).deleted_count(); }

  // ---- persistence ----

  /// Serializes the whole catalog state as an `HXRCCAT 4` stream — the
  /// snapshot format of the durability subsystem: version epoch, object
  /// counter, structural definition counts, thesaurus, same-sibling
  /// counters, and the database (shredded tables, definition and tombstone
  /// tables, ordering tables, CLOBs) in the stable binary form of
  /// rel::save_database. Interned columns
  /// serialize by content, so a stream is independent of interner pointer
  /// identity.
  void save(std::ostream& out) const;

  /// save without taking the write-pause lock — for the durability layer's
  /// checkpoint, which already holds read_lock() so that no mutation can
  /// slip between the snapshot and the WAL rotation.
  void save_unlocked(std::ostream& out) const;

  /// Restores state written by save(); any other header throws
  /// ValidationError, including the retired `HXRCCAT 1` (text),
  /// `HXRCCAT 2` (which carried collection tables) and `HXRCCAT 3` (which
  /// carried definitions and tombstones as text sections). The catalog
  /// must have been constructed with the same schema and annotations and
  /// hold no dynamic definitions (the structural definition counts are
  /// verified here). Existing ingested data is discarded
  /// and the recorded version epoch is restored. Requires quiescence (no
  /// concurrent readers): row storage and index generations are freed in
  /// place, and the rebuilt catalog republishes a clean snapshot at the
  /// restored epoch.
  void restore(std::istream& in);

  /// Overwrites the version epoch and republishes the snapshot at it.
  /// Recovery only: replay re-applies logged mutations (each bumping the
  /// epoch) and then pins the epoch to the value the original process had
  /// recorded, plus a final bump so every pre-crash cursor is stale. Not
  /// for general use — epochs must stay monotonic for cursor validation to
  /// be sound.
  void restore_version(std::uint64_t epoch);

  // ---- durability hooks ----

  /// Installs (or clears, with nullptr) the mutation observer. Install
  /// during single-threaded open/recovery, before concurrent traffic: the
  /// pointer swap itself is not synchronized against in-flight mutations.
  void set_mutation_observer(MutationObserver observer) {
    observer_ = std::move(observer);
  }

  /// Durability counters rendered by the service `stats` request; owned by
  /// the durability layer, which must outlive the catalog's use of them.
  void set_durability_metrics(const util::DurabilityMetrics* metrics) noexcept {
    durability_metrics_ = metrics;
  }
  const util::DurabilityMetrics* durability_metrics() const noexcept {
    return durability_metrics_;
  }

  /// Network-backpressure counters rendered by the service `stats` request;
  /// owned by the server (net::ServerStats), which must outlive the
  /// catalog's use of them. Wire during single-threaded startup.
  void set_server_pauses(const util::ServerPauses* pauses) noexcept {
    server_pauses_ = pauses;
  }
  const util::ServerPauses* server_pauses() const noexcept { return server_pauses_; }

  /// Replication watermarks rendered by the service `stats` request; owned
  /// by the replication apply loop (fed::ReplicationListener), which must
  /// outlive the catalog's use of them. Wire during single-threaded startup.
  void set_replication_state(const util::ReplicationState* state) noexcept {
    replication_state_ = state;
  }
  const util::ReplicationState* replication_state() const noexcept {
    return replication_state_;
  }

  // ---- concurrency ----

  /// Current catalog version (epoch). Bumped by every mutation; readable
  /// without a lock. Continuation cursors embed the version they were
  /// issued at and are rejected once it moves.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Write-pause lock: holds writers out (they take mutex_ exclusively)
  /// while readers keep running lock-free. For external code that must walk
  /// raw internals (database()/registry(), the durability checkpoint)
  /// coherently. The catalog's own read methods are snapshot-isolated and
  /// never touch this lock — holding it around them is safe but pointless.
  std::shared_lock<std::shared_mutex> read_lock() const {
    return std::shared_lock(mutex_);
  }

  /// An RAII pinned snapshot: pins the current epoch in a reclamation slot
  /// and loads the published CatalogSnapshot. Every read through the guard
  /// sees exactly the pinned epoch's state, concurrent commits and
  /// reclamation notwithstanding. Cheap (two atomic ops to pin, one to
  /// unpin); hold only for the duration of a read.
  class ReadGuard {
   public:
    explicit ReadGuard(const MetadataCatalog& catalog)
        : catalog_(&catalog),
          pin_(catalog.epochs_),
          snap_(catalog.snapshot_.load(std::memory_order_acquire)) {}

    const CatalogSnapshot& snapshot() const noexcept { return *snap_; }
    const CatalogSnapshot* operator->() const noexcept { return snap_; }
    std::uint64_t epoch() const noexcept { return snap_->epoch; }

    /// Query against the pinned snapshot (tombstones of that epoch applied).
    std::vector<ObjectId> query(const ObjectQuery& q,
                                QueryPlanInfo* info = nullptr) const {
      return catalog_->query_at(*snap_, q, info);
    }
    /// Paginated query against the pinned snapshot: honors the query's
    /// `limit` and continuation `cursor`. Cursors are opaque and carry the
    /// catalog version they were issued at: one issued before a later
    /// mutation throws StaleCursorError, a syntactically bad one throws
    /// ValidationError. Cursor validation, id slicing and the L1 memo all
    /// run at one epoch, so the service layer can compute a page AND
    /// serialize it from the same snapshot. Ids are ascending, so the
    /// cursor is a resume-after id.
    QueryPage query_paged(const ObjectQuery& q) const {
      return catalog_->query_paged_at(*snap_, q);
    }
    /// Tagged-XML response from the pinned snapshot.
    std::string build_response(std::span<const ObjectId> ids) const {
      return catalog_->build_response_at(*snap_, ids, nullptr);
    }
    /// Tombstones as of the pinned snapshot.
    bool is_deleted(ObjectId id) const { return catalog_->tombstoned(snap_->view, id); }
    std::size_t deleted_count() const { return snap_->view.visible_rows(*catalog_->tombstones_); }

   private:
    const MetadataCatalog* catalog_;
    util::EpochPin pin_;
    const CatalogSnapshot* snap_;
  };

  /// Pins and returns a read guard (convenience for expression use).
  ReadGuard read_guard() const { return ReadGuard(*this); }

  /// MVCC observability for the service `stats` surface.
  util::MvccStats mvcc_stats() const noexcept {
    util::MvccStats stats;
    stats.epoch = version();
    stats.pinned_readers = epochs_.pinned_readers();
    stats.retired_pending = epochs_.retired_pending();
    stats.reclamations = epochs_.reclaimed_total();
    stats.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Blocks until every retired snapshot/generation has been reclaimed —
  /// i.e. until all readers that pinned an old epoch have unpinned. The
  /// dispatcher calls this from drain() after its workers go idle so a
  /// shutdown cannot leak retired generations.
  void quiesce_epochs() const { epochs_.quiesce(); }

  /// Republishes the current state as a fresh snapshot (same epoch). For
  /// single-threaded setup that mutated internals directly — registry()
  /// imports, thesaurus edits — and wants snapshot readers to see them
  /// without a committing mutation.
  void publish() {
    std::unique_lock lock(mutex_);
    publish_locked();
  }

  // ---- introspection ----

  const Partition& partition() const noexcept { return partition_; }
  const DefinitionRegistry& registry() const noexcept { return *registry_; }
  /// Mutable registry access for bulk definition import. Single-threaded
  /// setup only; the next commit publishes the imported definitions.
  DefinitionRegistry& registry() noexcept { return *registry_; }

  /// The catalog's ontology (§3): synonyms added here are consulted when a
  /// query criterion does not match a definition directly. Setup-time
  /// mutation only (snapshots share the live thesaurus).
  Thesaurus& thesaurus() noexcept { return thesaurus_; }
  const Thesaurus& thesaurus() const noexcept { return thesaurus_; }
  const rel::Database& database() const noexcept { return db_; }
  rel::Database& database() noexcept { return db_; }
  /// Unlocked reference — single-threaded use only; concurrent callers
  /// want stats_snapshot().
  const ShredStats& total_stats() const noexcept { return stats_; }
  /// Copy of the aggregate shred stats from the published snapshot.
  ShredStats stats_snapshot() const {
    ReadGuard guard(*this);
    return guard->stats;
  }
  std::size_t object_count() const noexcept {
    return static_cast<std::size_t>(next_object_.load(std::memory_order_acquire));
  }

  /// Cumulative ingest-path observability (docs/s, rows/s, arena bytes).
  /// Lock-free to read; see util::IngestMetrics.
  const util::IngestMetrics& ingest_metrics() const noexcept { return ingest_metrics_; }

  /// Query-cache observability: counters aggregated across every snapshot
  /// generation's segment (hits/misses/inserts/evictions plus resident
  /// bytes/entries gauges). Lock-free to read; see util::CacheMetrics.
  const util::CacheMetrics& cache_metrics() const noexcept { return cache_metrics_; }
  /// Mutable form for the dispatcher's bypass / inline-served accounting.
  util::CacheMetrics& cache_metrics() noexcept { return cache_metrics_; }
  bool cache_enabled() const noexcept { return config_.cache.enabled; }

 private:
  friend class ReadGuard;

  std::string build_response_at(const CatalogSnapshot& snap, std::span<const ObjectId> ids,
                                const std::vector<OrderId>* orders) const;
  /// Engine run + tombstone filter against one snapshot, ids ascending.
  /// Plain runs (info == nullptr) go through the snapshot's L1 memo.
  std::vector<ObjectId> query_at(const CatalogSnapshot& snap, const ObjectQuery& q,
                                 QueryPlanInfo* info) const;
  /// ReadGuard::query_paged's body.
  QueryPage query_paged_at(const CatalogSnapshot& snap, const ObjectQuery& q) const;
  /// True when `view` sees a tombstone row for `id` (no probe if it sees none).
  bool tombstoned(const rel::ReadView& view, ObjectId id) const {
    return view.visible_rows(*tombstones_) != 0 &&
           view.bucket_size(*tombstones_, *tombstone_index_, rel::Key{{rel::Value(id)}}) != 0;
  }
  /// Shared body of define_dynamic_attribute (parent == kNoAttr: anchored
  /// at the first dynamic root's order) and define_dynamic_sub_attribute.
  AttrDefId define_dynamic(AttrDefId parent, const std::string& name,
                           const std::string& source,
                           const std::vector<DynamicElementSpec>& elements,
                           Visibility visibility, const std::string& owner);
  void bump_version() noexcept {
    version_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Hands a mutation to the observer (if any); caller holds mutex_.
  void notify(const MutationEvent& event) const {
    if (observer_) observer_(event);
  }
  /// Builds and atomically publishes a fresh CatalogSnapshot of the current
  /// state, retires the superseded one, and advances the reclamation epoch.
  /// Caller holds mutex_ exclusively (or is single-threaded: ctor/restore).
  void publish_locked();
  /// notify + publish: publishes even when the observer throws, so memory
  /// keeps serving the applied mutation while the I/O failure propagates.
  void commit_locked(const MutationEvent& event) {
    try {
      notify(event);
    } catch (...) {
      publish_locked();
      throw;
    }
    publish_locked();
  }

  const xml::Schema& schema_;
  CatalogConfig config_;
  Partition partition_;
  Thesaurus thesaurus_;
  /// Declared before epochs_ so it outlives every retired snapshot: a
  /// reclaimed generation's cache segment drains its resident-byte gauges
  /// into these counters from its destructor.
  util::CacheMetrics cache_metrics_;
  /// Declared before db_ so it is destroyed after it: retired index
  /// generations are freed by ~EpochManager with their deleters intact.
  mutable util::EpochManager epochs_;
  rel::Database db_;
  /// A facade over db_'s definition tables.
  std::unique_ptr<DefinitionRegistry> registry_;
  /// db_'s deleted_objects table and its object_id index.
  rel::Table* tombstones_ = nullptr;
  const rel::Index* tombstone_index_ = nullptr;
  std::unique_ptr<Shredder> shredder_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<ResponseBuilder> responder_;
  std::atomic<ObjectId> next_object_{0};
  ShredStats stats_;
  util::IngestMetrics ingest_metrics_;
  /// Exclusive for mutations (the commit lock); shared acquisition is the
  /// write-pause read_lock(). Guards db_ (definitions and tombstones
  /// included), thesaurus_, stats_, the shredder counters, and snapshot
  /// publication. MVCC readers never touch it.
  mutable std::shared_mutex mutex_;
  std::atomic<std::uint64_t> version_{0};
  /// The published snapshot; never null after construction.
  std::atomic<const CatalogSnapshot*> snapshot_{nullptr};
  std::atomic<std::uint64_t> snapshots_published_{0};
  MutationObserver observer_;
  const util::DurabilityMetrics* durability_metrics_ = nullptr;
  const util::ServerPauses* server_pauses_ = nullptr;
  const util::ReplicationState* replication_state_ = nullptr;
};

}  // namespace hxrc::core
