#include "core/catalog.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <istream>
#include <mutex>
#include <ostream>
#include <shared_mutex>

#include "core/ordering.hpp"
#include "core/storage.hpp"
#include "rel/serialize.hpp"
#include "xml/parser.hpp"

namespace hxrc::core {

MetadataCatalog::MetadataCatalog(const xml::Schema& schema,
                                 PartitionAnnotations annotations, CatalogConfig config)
    : schema_(schema),
      config_(config),
      partition_(Partition::build(schema, std::move(annotations))) {
  registry_.install_structural(partition_);
  install_storage(db_);
  install_ordering(db_, partition_);

  shredder_ = std::make_unique<Shredder>(partition_, registry_, db_, config_.shred);
  EngineOptions engine_options = config_.engine;
  if (engine_options.thesaurus == nullptr) engine_options.thesaurus = &thesaurus_;
  engine_ = std::make_unique<QueryEngine>(partition_, registry_, db_, engine_options);
  responder_ = std::make_unique<ResponseBuilder>(partition_, db_);

  // Route index-generation retirement through the epoch manager and publish
  // the empty-catalog snapshot: readers have a snapshot to pin from the
  // first instant.
  db_.set_reclaimer(&epochs_);
  publish_locked();
}

MetadataCatalog::~MetadataCatalog() {
  delete snapshot_.load(std::memory_order_relaxed);
}

void MetadataCatalog::publish_locked() {
  // Bring every index generation up to the committed row counts: readers of
  // the new snapshot never sync (their probes stop at the watermarks, which
  // the generations now cover).
  db_.sync_indexes();

  if (published_defs_ == nullptr ||
      published_attr_count_ != registry_.attribute_count() ||
      published_elem_count_ != registry_.element_count()) {
    published_defs_ = std::make_shared<const DefinitionRegistry>(registry_);
    published_attr_count_ = registry_.attribute_count();
    published_elem_count_ = registry_.element_count();
  }
  if (published_deleted_ == nullptr ||
      published_deleted_->size() != deleted_.size()) {
    published_deleted_ =
        std::make_shared<const std::unordered_set<ObjectId>>(deleted_);
  }

  auto* snap = new CatalogSnapshot;
  snap->epoch = version();
  snap->view = rel::ReadView(db_.watermarks());
  snap->defs = published_defs_;
  snap->deleted = published_deleted_;
  snap->stats = stats_;
  snap->next_object = next_object_.load(std::memory_order_acquire);
  snap->clob_count = db_.clobs().count();
  if (config_.cache.enabled) {
    // A fresh, empty per-generation cache segment: invalidation of the old
    // generation's entries is the retirement below — nothing is scanned.
    snap->cache = std::make_unique<QueryCacheSegment>(config_.cache, &cache_metrics_);
  }

  const CatalogSnapshot* old = snapshot_.exchange(snap, std::memory_order_acq_rel);
  if (old != nullptr) epochs_.retire(old);
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  // Seal the superseded epoch and collect whatever no reader pins anymore.
  epochs_.advance();
  epochs_.reclaim();
}

namespace {

std::uint64_t elapsed_micros(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

ObjectId MetadataCatalog::ingest(const xml::Document& doc, const std::string& name,
                                 const std::string& owner) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock lock(mutex_);
  const ObjectId id = next_object_.fetch_add(1, std::memory_order_acq_rel);
  const ShredStats shred = shredder_->shred(doc, id, name, owner);
  stats_ += shred;
  bump_version();
  ingest_metrics_.record(1, shred.element_rows, shred.attribute_instances,
                         shred.clob_bytes, doc.arena_bytes(), elapsed_micros(start));
  MutationEvent event{MutationEvent::Kind::kIngest};
  event.epoch = version();
  event.object = id;
  event.name = name;
  event.owner = owner;
  event.content = doc.root.get();
  commit_locked(event);
  return id;
}

ObjectId MetadataCatalog::ingest_xml(std::string_view xml_text, const std::string& name,
                                     const std::string& owner) {
  // Parse outside the exclusive section: readers stay unblocked during it.
  // Arena mode: one input copy, pooled nodes, no per-node string churn.
  return ingest(xml::parse_arena(xml_text), name, owner);
}

void MetadataCatalog::add_attribute(ObjectId object, std::string_view attribute_path,
                                    const xml::Node& content, const std::string& owner) {
  std::unique_lock lock(mutex_);
  for (const AttributeRootInfo& root : partition_.attribute_roots()) {
    if (root.path == attribute_path) {
      stats_ += shredder_->shred_additional(content, object, root, owner);
      bump_version();
      MutationEvent event{MutationEvent::Kind::kAddAttribute};
      event.epoch = version();
      event.object = object;
      event.path = attribute_path;
      event.owner = owner;
      event.content = &content;
      commit_locked(event);
      return;
    }
  }
  throw ValidationError("no attribute root at path '" + std::string(attribute_path) + "'");
}

AttrDefId MetadataCatalog::define_dynamic(AttrDefId parent, const std::string& name,
                                          const std::string& source,
                                          const std::vector<DynamicElementSpec>& elements,
                                          Visibility visibility, const std::string& owner) {
  std::unique_lock lock(mutex_);
  // Dynamic top-level definitions anchor at the first dynamic root's order;
  // sub-attributes sequence under their parent.
  OrderId order = kNoOrder;
  if (parent == kNoAttr) {
    for (const AttributeRootInfo& root : partition_.attribute_roots()) {
      if (root.dynamic) {
        order = root.order;
        break;
      }
    }
  }
  const AttrDefId id = registry_.define_attribute(name, source, AttrKind::kDynamic,
                                                  parent, order, visibility, owner);
  for (const DynamicElementSpec& elem : elements) {
    registry_.define_element(elem.name, elem.source.empty() ? source : elem.source, id,
                             elem.type);
  }
  bump_version();
  MutationEvent event{MutationEvent::Kind::kDefine};
  event.epoch = version();
  event.attr = id;
  event.parent = parent;
  event.visibility = visibility;
  event.name = name;
  event.source = source;
  event.owner = owner;
  event.elements = &elements;
  commit_locked(event);
  return id;
}

std::vector<ObjectId> MetadataCatalog::query_at(const CatalogSnapshot& snap,
                                                const ObjectQuery& q,
                                                QueryPlanInfo* info) const {
  QueryContext ctx;
  ctx.registry = snap.defs.get();
  ctx.view = &snap.view;
  // L1 memo, for plain runs only: plan-info callers want real pipeline
  // counters, not a memoized set. The cached value is the tombstone-
  // filtered set, so a hit skips the filter too.
  std::string key;
  if (info == nullptr && snap.cache != nullptr) {
    key = engine_->canonical_key(q, ctx);
    if (const auto cached = snap.cache->find_ids(key)) return cached->ids;
  }
  std::vector<ObjectId> hits = engine_->run(q, info, ctx);
  if (!snap.deleted->empty()) {
    std::erase_if(hits, [&snap](ObjectId id) { return snap.deleted->count(id) != 0; });
  }
  if (!key.empty()) {
    auto memo = std::make_shared<CachedIdSet>();
    memo->ids = hits;
    snap.cache->insert_ids(std::move(key), std::move(memo));
  }
  return hits;
}

std::vector<ObjectId> MetadataCatalog::query(const ObjectQuery& q,
                                             QueryPlanInfo* info) const {
  ReadGuard guard(*this);
  return query_at(guard.snapshot(), q, info);
}

std::string encode_cursor(std::uint64_t epoch, std::uint64_t after) {
  std::string out = "HXC1";
  append_hex_field(out, epoch);
  append_hex_field(out, after);
  return out;
}

bool decode_cursor(std::string_view text, std::uint64_t& epoch, std::uint64_t& after) {
  std::size_t pos = 4;
  return text.starts_with("HXC1.") && take_hex_field(text, pos, epoch) &&
         take_hex_field(text, pos, after) && pos == text.size();
}

void append_hex_field(std::string& out, std::uint64_t value) {
  char buf[16];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof buf, value, 16);
  out += '.';
  out.append(buf, end.ptr);
}

bool take_hex_field(std::string_view text, std::size_t& pos, std::uint64_t& value) {
  if (pos >= text.size() || text[pos] != '.') return false;
  const std::size_t end = std::min(text.find('.', pos + 1), text.size());
  const std::string_view digits = text.substr(pos + 1, end - pos - 1);
  if (digits.empty() || digits.size() > 16 ||
      digits.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return false;
  }
  std::from_chars(digits.data(), digits.data() + digits.size(), value, 16);
  pos = end;
  return true;
}

QueryPage MetadataCatalog::query_paged_at(const CatalogSnapshot& snap,
                                          const ObjectQuery& q) const {
  QueryPage page;
  page.version = snap.epoch;
  // Cursor re-entry lands on the L1 memo inside query_at: the full id-set
  // was cached when page one ran, so later pages slice it without touching
  // the engine.
  std::vector<ObjectId> hits = query_at(snap, q, nullptr);
  if (!std::is_sorted(hits.begin(), hits.end())) {
    std::sort(hits.begin(), hits.end());  // defensive: the engine emits ascending
  }
  if (!q.cursor().empty()) {
    std::uint64_t cursor_version = 0;
    std::uint64_t after = 0;
    if (!decode_cursor(q.cursor(), cursor_version, after)) {
      throw ValidationError("malformed continuation cursor");
    }
    if (cursor_version != page.version) {
      throw StaleCursorError("cursor was issued at catalog version " +
                             std::to_string(cursor_version) + " but the catalog is at " +
                             std::to_string(page.version));
    }
    hits.erase(hits.begin(), std::upper_bound(hits.begin(), hits.end(),
                                              static_cast<ObjectId>(after)));
  }
  if (q.limit() > 0 && hits.size() > q.limit()) {
    hits.resize(q.limit());
    page.next_cursor = encode_cursor(page.version, static_cast<std::uint64_t>(hits.back()));
  }
  page.ids = std::move(hits);
  return page;
}

std::string MetadataCatalog::build_response_at(const CatalogSnapshot& snap,
                                               std::span<const ObjectId> ids,
                                               const std::vector<OrderId>* orders) const {
  std::string out = "<results>";
  for (const ObjectId id : ids) {
    if (snap.deleted->count(id) != 0) continue;
    out += "<result objectID=\"" + std::to_string(id) + "\">";
    out += orders == nullptr ? responder_->build_document(id, &snap.view)
                             : responder_->build_document(id, *orders, &snap.view);
    out += "</result>";
  }
  out += "</results>";
  return out;
}

std::string MetadataCatalog::build_response(std::span<const ObjectId> ids) const {
  ReadGuard guard(*this);
  return build_response_at(guard.snapshot(), ids, nullptr);
}

std::string MetadataCatalog::build_response(
    std::span<const ObjectId> ids, const std::vector<std::string>& attribute_paths) const {
  std::vector<OrderId> orders;
  orders.reserve(attribute_paths.size());
  for (const std::string& path : attribute_paths) {
    bool found = false;
    for (const AttributeRootInfo& root : partition_.attribute_roots()) {
      if (root.path == path) {
        orders.push_back(root.order);
        found = true;
        break;
      }
    }
    if (!found) {
      throw ValidationError("no attribute root at path '" + path + "'");
    }
  }
  ReadGuard guard(*this);
  return build_response_at(guard.snapshot(), ids, &orders);
}

void MetadataCatalog::delete_object(ObjectId id) {
  std::unique_lock lock(mutex_);
  if (id < 0 || id >= next_object_.load(std::memory_order_acquire)) {
    throw ValidationError("unknown object " + std::to_string(id));
  }
  deleted_.insert(id);
  bump_version();
  MutationEvent event{MutationEvent::Kind::kDelete};
  event.epoch = version();
  event.object = id;
  commit_locked(event);
}

namespace {

void write_token(std::ostream& out, const std::string& s) {
  out << s.size() << ' ';
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  out << '\n';
}

std::string read_token(std::istream& in) {
  std::size_t length = 0;
  if (!(in >> length)) throw ValidationError("truncated catalog stream");
  in.get();
  std::string s(length, '\0');
  in.read(s.data(), static_cast<std::streamsize>(length));
  if (static_cast<std::size_t>(in.gcount()) != length) {
    throw ValidationError("truncated catalog stream");
  }
  return s;
}

}  // namespace

void MetadataCatalog::save(std::ostream& out) const {
  std::shared_lock lock(mutex_);
  save_unlocked(out);
}

void MetadataCatalog::save_unlocked(std::ostream& out) const {
  out << "HXRCCAT 3\n";
  out << "epoch " << version_.load(std::memory_order_acquire) << '\n';
  out << "next_object " << next_object_.load(std::memory_order_acquire) << '\n';

  // Structural definitions are reproduced by the constructor; count them so
  // restore can verify alignment, then write everything after them.
  std::size_t structural_attrs = 0;
  for (const AttributeDef& def : registry_.attributes()) {
    if (def.kind == AttrKind::kStructural) ++structural_attrs;
  }
  // Structural defs form the id prefix (they are all created in the ctor).
  out << "attrs " << structural_attrs << ' ' << registry_.attribute_count() << '\n';
  for (std::size_t i = structural_attrs; i < registry_.attribute_count(); ++i) {
    const AttributeDef& def = registry_.attribute(static_cast<AttrDefId>(i));
    write_token(out, def.name);
    write_token(out, def.source);
    out << static_cast<int>(def.kind) << ' ' << def.parent << ' ' << def.schema_order
        << ' ' << static_cast<int>(def.visibility) << ' ';
    write_token(out, def.owner);
    out << (def.queryable ? 1 : 0) << '\n';
  }

  // Element defs: the structural prefix is likewise rebuilt by the ctor.
  std::size_t structural_elem_prefix = 0;
  for (const ElementDef& def : registry_.elements()) {
    if (static_cast<std::size_t>(def.attribute) < structural_attrs) {
      ++structural_elem_prefix;
    } else {
      break;
    }
  }
  out << "elems " << structural_elem_prefix << ' ' << registry_.element_count() << '\n';
  for (std::size_t i = structural_elem_prefix; i < registry_.element_count(); ++i) {
    const ElementDef& def = registry_.element(static_cast<ElemDefId>(i));
    write_token(out, def.name);
    write_token(out, def.source);
    out << def.attribute << ' ' << static_cast<int>(def.type) << '\n';
  }

  // Thesaurus.
  const auto synonyms = thesaurus_.items();
  out << "thesaurus " << synonyms.size() << '\n';
  for (const auto& [alias, canonical] : synonyms) {
    write_token(out, alias.name);
    write_token(out, alias.source);
    write_token(out, canonical.name);
    write_token(out, canonical.source);
  }

  out << "deleted " << deleted_.size() << '\n';
  for (const ObjectId id : deleted_) out << id << '\n';

  shredder_->save_counters(out);
  rel::save_database(db_, out);
}

void MetadataCatalog::restore(std::istream& in) {
  std::unique_lock lock(mutex_);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "HXRCCAT" || version != 3) {
    throw ValidationError("not an HXRCCAT version-3 stream");
  }
  std::string tag;
  std::uint64_t restored_epoch = 0;
  if (!(in >> tag >> restored_epoch) || tag != "epoch") {
    throw ValidationError("bad epoch line in catalog stream");
  }
  ObjectId restored_next = 0;
  if (!(in >> tag >> restored_next) || tag != "next_object") {
    throw ValidationError("bad catalog header");
  }
  next_object_.store(restored_next, std::memory_order_release);

  // Dynamic attribute definitions (the structural prefix must align with
  // what the constructor rebuilt from the schema).
  std::size_t structural_attrs = 0;
  std::size_t total_attrs = 0;
  if (!(in >> tag >> structural_attrs >> total_attrs) || tag != "attrs") {
    throw ValidationError("bad attrs section");
  }
  std::size_t current_structural = 0;
  for (const AttributeDef& def : registry_.attributes()) {
    if (def.kind == AttrKind::kStructural) ++current_structural;
  }
  if (current_structural != structural_attrs ||
      registry_.attribute_count() != structural_attrs) {
    throw ValidationError(
        "catalog stream was saved against a different schema partition");
  }
  for (std::size_t i = structural_attrs; i < total_attrs; ++i) {
    const std::string name = read_token(in);
    const std::string source = read_token(in);
    int kind = 0;
    AttrDefId parent = kNoAttr;
    OrderId order = kNoOrder;
    int visibility = 0;
    in >> kind >> parent >> order >> visibility;
    const std::string owner = read_token(in);
    int queryable = 1;
    in >> queryable;
    const AttrDefId id = registry_.define_attribute(
        name, source, static_cast<AttrKind>(kind), parent, order,
        static_cast<Visibility>(visibility), owner, queryable != 0);
    if (static_cast<std::size_t>(id) != i) {
      throw ValidationError("definition id drift while restoring attributes");
    }
  }

  std::size_t structural_elem_prefix = 0;
  std::size_t total_elems = 0;
  if (!(in >> tag >> structural_elem_prefix >> total_elems) || tag != "elems") {
    throw ValidationError("bad elems section");
  }
  if (registry_.element_count() != structural_elem_prefix) {
    throw ValidationError(
        "catalog stream was saved against a different structural element set");
  }
  for (std::size_t i = structural_elem_prefix; i < total_elems; ++i) {
    const std::string name = read_token(in);
    const std::string source = read_token(in);
    AttrDefId attribute = kNoAttr;
    int type = 0;
    in >> attribute >> type;
    const ElemDefId id =
        registry_.define_element(name, source, attribute, static_cast<xml::LeafType>(type));
    if (static_cast<std::size_t>(id) != i) {
      throw ValidationError("definition id drift while restoring elements");
    }
  }

  std::size_t synonym_count = 0;
  if (!(in >> tag >> synonym_count) || tag != "thesaurus") {
    throw ValidationError("bad thesaurus section");
  }
  for (std::size_t i = 0; i < synonym_count; ++i) {
    const std::string alias_name = read_token(in);
    const std::string alias_source = read_token(in);
    const std::string canonical_name = read_token(in);
    const std::string canonical_source = read_token(in);
    thesaurus_.add_synonym(alias_name, alias_source, canonical_name, canonical_source);
  }

  std::size_t deleted_count = 0;
  if (!(in >> tag >> deleted_count) || tag != "deleted") {
    throw ValidationError("bad deleted section");
  }
  deleted_.clear();
  for (std::size_t i = 0; i < deleted_count; ++i) {
    ObjectId id = 0;
    in >> id;
    deleted_.insert(id);
  }

  shredder_->load_counters(in);
  rel::load_database_into(db_, in);
  version_.store(restored_epoch, std::memory_order_release);
  // The registry and tombstone set were rebuilt wholesale; drop the COW
  // caches so the restored snapshot cannot alias pre-restore contents, then
  // publish the restored state at its epoch.
  published_defs_.reset();
  published_deleted_.reset();
  publish_locked();
}

void MetadataCatalog::restore_version(std::uint64_t epoch) {
  std::unique_lock lock(mutex_);
  version_.store(epoch, std::memory_order_release);
  publish_locked();
}

xml::Document MetadataCatalog::fetch(ObjectId id) const {
  std::string text;
  {
    ReadGuard guard(*this);
    if (guard->deleted->count(id) != 0) {
      throw ValidationError("object " + std::to_string(id) + " has been deleted");
    }
    text = responder_->build_document(id, &guard->view);
  }
  // Parse outside the pinned section: the text is already a private copy.
  if (text.empty()) {
    // An object with no stored attributes reconstructs as an empty root.
    xml::Document doc;
    doc.root = xml::Node::element(schema_.root().name());
    return doc;
  }
  return xml::parse(text);
}

}  // namespace hxrc::core
