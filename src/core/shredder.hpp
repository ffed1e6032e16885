// Document shredding under the hybrid approach (§3).
//
// Each metadata attribute instance in an ingested document is stored BOTH
// ways: serialized to a CLOB (keyed by the attribute root's global order and
// a same-sibling clob sequence) for response building, and shredded into the
// attribute-instance / element / inverted-list tables for querying.
//
// Structural attributes resolve definitions by element tag; dynamic
// attributes resolve by the name/source *values* carried in the document
// (LEAD: enttypl/enttypds for the attribute, attrlabl/attrdefs for items).
// Dynamic content that matches no registered definition stays CLOB-only —
// the validation behaviour the paper requires — unless auto-definition is
// enabled.
//
// Ingest hot path: the walk accumulates rows per document in reused scratch
// buffers and flushes each table once per document
// (Table::append_batch_unchecked, index-at-a-time maintenance). Registry
// probes take string_views straight out of the DOM (no temporary strings),
// and string columns are dictionary-encoded through the database's Interner.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/partition.hpp"
#include "core/registry.hpp"
#include "core/storage.hpp"
#include "xml/dom.hpp"

namespace hxrc::core {

class ValidationError : public std::runtime_error {
 public:
  explicit ValidationError(const std::string& message) : std::runtime_error(message) {}
};

struct ShredOptions {
  /// Register unseen dynamic attribute/element definitions on the fly
  /// instead of leaving them CLOB-only.
  bool auto_define_dynamic = false;
  /// Visibility of auto-defined definitions (kUser makes them private to
  /// the ingesting owner).
  Visibility auto_define_visibility = Visibility::kAdmin;
};

struct ShredStats {
  std::size_t attribute_instances = 0;   // top-level instances shredded
  std::size_t sub_attribute_instances = 0;
  std::size_t element_rows = 0;
  std::size_t clobs = 0;
  std::size_t clob_bytes = 0;
  std::size_t unshredded_dynamic = 0;    // CLOB-only dynamic content
  std::size_t untyped_values = 0;        // values that failed typed parsing

  ShredStats& operator+=(const ShredStats& other) noexcept;
};

class Shredder {
 public:
  /// The registry is mutated only when auto_define_dynamic is set.
  Shredder(const Partition& partition, DefinitionRegistry& registry, rel::Database& db,
           ShredOptions options = {});

  /// Shreds one document as object `object_id` owned by `owner`.
  /// Throws ValidationError when the document does not conform to the
  /// schema's ordered region. On validation failure no rows reach the query
  /// tables (the per-document batch is discarded unflushed).
  ShredStats shred(const xml::Document& doc, ObjectId object_id,
                   const std::string& name, const std::string& owner);

  /// Inserts one additional attribute instance into an existing object
  /// ("as metadata attributes were inserted later", §5). Same-sibling
  /// sequence counters continue from the object's stored instances, so the
  /// new CLOB lands after its existing siblings in rebuilt responses.
  ShredStats shred_additional(const xml::Node& attribute_content, ObjectId object_id,
                              const AttributeRootInfo& root, const std::string& owner);

  /// Persistence of the continued-object counters (catalog save/restore).
  /// Output is key-sorted, so saves are byte-deterministic regardless of
  /// hash-map iteration order.
  void save_counters(std::ostream& out) const;
  void load_counters(std::istream& in);

 private:
  /// One enclosing attribute instance on the shred path. The element
  /// sequence counter lives in the frame because element rows are always
  /// appended against the innermost enclosing instance (path.back()) — no
  /// per-element map lookup.
  struct PathFrame {
    AttrDefId def = kNoAttr;
    std::int64_t seq = 0;
    std::int64_t elem_seq = 0;
  };

  /// Per-document scratch, owned by the shredder and reused across
  /// documents so steady-state ingest allocates only when a document is
  /// larger than any seen before.
  struct DocState {
    ObjectId object_id = 0;
    std::string owner;
    ShredStats stats;
    /// Dense same-sibling counters for THIS document: instance sequence per
    /// definition id, CLOB sequence per attribute-root order. Definition and
    /// order ids are dense small ints, so a flat vector replaces a hash map
    /// on the per-instance hot path. Zeroed per document; seeded from stored
    /// rows only when the object id has prior state (see seed_counters).
    std::vector<std::int64_t> inst_seq;
    std::vector<std::int64_t> clob_seq;
    /// Row batches, flushed once per document.
    std::vector<rel::Row> instance_rows;
    std::vector<rel::Row> inverted_rows;
    std::vector<rel::Row> element_rows;
    std::vector<rel::Row> clob_rows;
    /// Enclosing instances, top attribute downward.
    std::vector<PathFrame> path;
    /// Reused serialization buffer for attribute CLOBs.
    std::string clob_scratch;

    void reset(ObjectId id, const std::string& owner_name);
  };

  void walk_ordered(DocState& state, const xml::Node& node,
                    const xml::SchemaNode& schema_node);
  void handle_attribute(DocState& state, const xml::Node& node,
                        const AttributeRootInfo& root);
  void shred_structural(DocState& state, const xml::Node& node,
                        const AttributeRootInfo& root, std::int64_t clob_seq);
  void shred_structural_children(DocState& state, const xml::Node& node,
                                 const xml::SchemaNode& schema_node, AttrDefId def,
                                 std::int64_t seq);
  void shred_dynamic(DocState& state, const xml::Node& node, const AttributeRootInfo& root,
                     std::int64_t clob_seq);
  void shred_dynamic_item(DocState& state, const xml::Node& item, AttrDefId parent_def,
                          const std::string& owner);
  /// The dynamic attribute (name, source) under `parent` that `owner` sees,
  /// auto-defined when the options allow it; nullopt otherwise.
  std::optional<AttrDefId> dynamic_attribute(std::string_view name, std::string_view source,
                                             AttrDefId parent, OrderId order,
                                             const std::string& owner);

  void append_element_row(DocState& state, AttrDefId attr, std::int64_t seq,
                          const ElementDef& elem, std::int64_t elem_seq,
                          std::string_view raw_value);
  std::int64_t next_seq(DocState& state, AttrDefId def);
  std::int64_t next_clob_seq(DocState& state, OrderId order);
  /// True when `id` already has any stored row (objects/instances/clobs) or
  /// a continued-counter entry — i.e. its sequences must not start at zero.
  bool object_has_state(ObjectId id) const;
  /// Seeds the document's dense counters with the object's current maxima,
  /// derived from its stored rows (the source of truth) plus any
  /// continued-counter overrides.
  void seed_counters(DocState& state) const;
  /// Caches the document's final counters for the object (shred_additional
  /// only), so repeated inserts skip the row re-derivation.
  void store_continued(const DocState& state);
  void append_inverted(DocState& state, AttrDefId def, std::int64_t seq);
  /// STRING Value for a row: interned (pointer-sized, dictionary-backed)
  /// above the SSO length, owned below it.
  rel::Value string_value(std::string_view s);
  /// Flushes the per-document batches into the tables (one append_batch per
  /// non-empty batch), leaving the scratch capacity in place.
  void flush(DocState& state);

  const Partition& partition_;
  DefinitionRegistry& registry_;
  rel::Database& db_;
  ShredOptions options_;
  rel::Table* objects_;
  rel::Table* instances_;
  rel::Table* inverted_;
  rel::Table* elements_;
  rel::Table* clobs_;

  DocState scratch_;

  /// Same-sibling counters for "continued" objects only — those touched by
  /// shred_additional or restored by load_counters. Plain ingest never
  /// writes here: a fresh object's sequences start at zero, and an existing
  /// object's maxima are derivable from its stored rows, so keeping one map
  /// entry per (object × definition) forever would be pure overhead on the
  /// ingest hot path (it dominated the shred profile before this cache).
  struct SiblingCounters {
    std::unordered_map<std::int64_t, std::int64_t> instance;  // def id -> max seq
    std::unordered_map<std::int64_t, std::int64_t> clob;      // order id -> max seq
  };
  std::unordered_map<std::int64_t, SiblingCounters> continued_;
};

}  // namespace hxrc::core
