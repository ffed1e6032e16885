#include "core/shredder.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "util/string_util.hpp"
#include "xml/writer.hpp"

namespace hxrc::core {

void install_storage(rel::Database& db) {
  using rel::Type;
  rel::Table& objects = db.create_table(
      kObjectsTable, rel::TableSchema{{"object_id", Type::kInt},
                                      {"name", Type::kString},
                                      {"owner", Type::kString}});
  rel::Table& instances = db.create_table(
      kAttrInstancesTable, rel::TableSchema{{"object_id", Type::kInt},
                                            {"attr_id", Type::kInt},
                                            {"seq", Type::kInt},
                                            {"top", Type::kInt},
                                            {"clob_seq", Type::kInt}});
  rel::Table& inverted = db.create_table(
      kAttrInvertedTable, rel::TableSchema{{"object_id", Type::kInt},
                                           {"attr_id", Type::kInt},
                                           {"seq", Type::kInt},
                                           {"anc_attr_id", Type::kInt},
                                           {"anc_seq", Type::kInt},
                                           {"distance", Type::kInt}});
  rel::Table& elements = db.create_table(
      kElemDataTable, rel::TableSchema{{"object_id", Type::kInt},
                                       {"attr_id", Type::kInt},
                                       {"seq", Type::kInt},
                                       {"elem_id", Type::kInt},
                                       {"elem_seq", Type::kInt},
                                       {"value_str", Type::kString},
                                       {"value_num", Type::kDouble}});
  rel::Table& clobs = db.create_table(
      kAttrClobsTable, rel::TableSchema{{"object_id", Type::kInt},
                                        {"order_id", Type::kInt},
                                        {"clob_seq", Type::kInt},
                                        {"clob_id", Type::kInt}});
  objects.create_hash_index("idx_objects_id", {"object_id"});
  instances.create_hash_index("idx_inst_attr", {"attr_id"});
  instances.create_hash_index("idx_inst_object", {"object_id"});
  inverted.create_hash_index("idx_inv_child", {"object_id", "attr_id", "seq"});
  elements.create_hash_index("idx_elem_def", {"elem_id"});
  // Value-keyed equality indexes: an equality criterion probes the exact
  // (element, value) bucket instead of scanning the whole element-definition
  // bucket — O(result) instead of O(corpus) per criterion, which is what
  // keeps p99 flat from 10k to 1M objects (BENCH_scale). Two indexes because
  // the engine's comparison semantics are two-track: value_num carries every
  // value that parses numerically ("0730" == "730"), value_str the exact
  // text. See Pipeline::for_each_eq_match in core/engine.cpp.
  elements.create_hash_index("idx_elem_val", {"elem_id", "value_str"});
  elements.create_hash_index("idx_elem_num", {"elem_id", "value_num"});
  clobs.create_hash_index("idx_clob_object", {"object_id"});
}

ShredStats& ShredStats::operator+=(const ShredStats& other) noexcept {
  attribute_instances += other.attribute_instances;
  sub_attribute_instances += other.sub_attribute_instances;
  element_rows += other.element_rows;
  clobs += other.clobs;
  clob_bytes += other.clob_bytes;
  unshredded_dynamic += other.unshredded_dynamic;
  untyped_values += other.untyped_values;
  return *this;
}

namespace {

/// Strings at or below this length fit std::string's in-place buffer on
/// every mainstream ABI, so dictionary-encoding them saves no heap.
constexpr std::size_t kInternMinLength = 15;

/// Builds a Row in place, avoiding the extra Value copies an initializer
/// list would make.
template <typename... Vs>
rel::Row make_row(Vs&&... vs) {
  rel::Row row;
  row.reserve(sizeof...(Vs));
  (row.emplace_back(std::forward<Vs>(vs)), ...);
  return row;
}

/// Raises dense[idx] to at least seq, growing the vector on demand.
void bump_to(std::vector<std::int64_t>& dense, std::int64_t idx, std::int64_t seq) {
  const auto i = static_cast<std::size_t>(idx);
  if (i >= dense.size()) dense.resize(i + 1, 0);
  if (seq > dense[i]) dense[i] = seq;
}

}  // namespace

void Shredder::DocState::reset(ObjectId id, const std::string& owner_name) {
  object_id = id;
  owner = owner_name;
  stats = ShredStats{};
  inst_seq.assign(inst_seq.size(), 0);
  clob_seq.assign(clob_seq.size(), 0);
  instance_rows.clear();
  inverted_rows.clear();
  element_rows.clear();
  clob_rows.clear();
  path.clear();
}

Shredder::Shredder(const Partition& partition, DefinitionRegistry& registry,
                   rel::Database& db, ShredOptions options)
    : partition_(partition),
      registry_(registry),
      db_(db),
      options_(options),
      objects_(&db.require_table(kObjectsTable)),
      instances_(&db.require_table(kAttrInstancesTable)),
      inverted_(&db.require_table(kAttrInvertedTable)),
      elements_(&db.require_table(kElemDataTable)),
      clobs_(&db.require_table(kAttrClobsTable)) {}

rel::Value Shredder::string_value(std::string_view s) {
  // Short strings fit a std::string's in-place (SSO) buffer, so storing
  // them owned costs no heap and no dictionary probe — the interner only
  // earns its hash lookup on strings long enough to share heap storage.
  if (s.size() > kInternMinLength) {
    return rel::Value::interned(db_.interner().intern(s));
  }
  return rel::Value(std::string(s));
}

void Shredder::flush(DocState& state) {
  // Unchecked: every row is built by make_row with types fixed at the call
  // site, matching the schemas installed above.
  if (!state.instance_rows.empty()) {
    instances_->append_batch_unchecked(std::move(state.instance_rows));
  }
  if (!state.inverted_rows.empty()) {
    inverted_->append_batch_unchecked(std::move(state.inverted_rows));
  }
  if (!state.element_rows.empty()) {
    elements_->append_batch_unchecked(std::move(state.element_rows));
  }
  if (!state.clob_rows.empty()) clobs_->append_batch_unchecked(std::move(state.clob_rows));
}

ShredStats Shredder::shred(const xml::Document& doc, ObjectId object_id,
                           const std::string& name, const std::string& owner) {
  if (!doc.root) throw ValidationError("empty document");
  const xml::SchemaNode& schema_root = partition_.schema().root();
  if (doc.root->name() != schema_root.name()) {
    throw ValidationError("document root <" + std::string(doc.root->name()) +
                          "> does not match schema root <" + schema_root.name() + ">");
  }
  DocState& state = scratch_;
  state.reset(object_id, owner);
  // Fresh object ids (the ingest hot path) start every sequence at zero and
  // pay only two O(1) probes here; an id with prior state (re-ingest after
  // inserts, merged shards) continues its sequences exactly.
  if (object_has_state(object_id)) seed_counters(state);

  walk_ordered(state, *doc.root, schema_root);
  // The object row and the batches land only after the whole document
  // validated — a ValidationError mid-walk leaves the query tables clean.
  objects_->append(make_row(rel::Value(object_id), string_value(name),
                            string_value(owner)));
  flush(state);
  return state.stats;
}

ShredStats Shredder::shred_additional(const xml::Node& attribute_content,
                                      ObjectId object_id, const AttributeRootInfo& root,
                                      const std::string& owner) {
  if (attribute_content.name() != root.tag) {
    throw ValidationError("attribute content <" + std::string(attribute_content.name()) +
                          "> does not match attribute root <" + root.tag + ">");
  }
  DocState& state = scratch_;
  state.reset(object_id, owner);
  // Continue the object's sequences: derived from its stored rows, with any
  // continued-counter cache entries layered on top.
  seed_counters(state);

  if (!root.repeatable) {
    const auto order = static_cast<std::size_t>(root.order);
    if (order < state.clob_seq.size() && state.clob_seq[order] >= 1) {
      throw ValidationError("attribute <" + root.tag +
                            "> is single-instance and the object already has one");
    }
  }

  handle_attribute(state, attribute_content, root);
  flush(state);
  store_continued(state);
  return state.stats;
}

bool Shredder::object_has_state(ObjectId id) const {
  if (continued_.count(id) != 0) return true;
  const rel::Key key{{rel::Value(id)}};
  const auto has_rows = [&](const rel::Table& table, const char* index_name) {
    if (const rel::Index* index = table.index(index_name)) {
      return index->bucket_size(key) != 0;
    }
    for (rel::RowId row = 0; row < table.row_count(); ++row) {
      if (table.row(row)[0] == key.parts[0]) return true;
    }
    return false;
  };
  // A successfully shredded object always has an objects row; clob rows
  // cover objects holding only unqueryable content after a table merge.
  return has_rows(*objects_, "idx_objects_id") || has_rows(*clobs_, "idx_clob_object");
}

void Shredder::seed_counters(DocState& state) const {
  const rel::Value object_value(state.object_id);
  const rel::Key key{{object_value}};
  std::vector<rel::RowId> ids;
  // Both tables lay out (object_id, <dense id>, <seq>, ...) in their first
  // three columns, so one helper seeds either dense counter vector.
  const auto seed_from = [&](const rel::Table& table, const char* index_name,
                             std::vector<std::int64_t>& dense) {
    ids.clear();
    if (const rel::Index* index = table.index(index_name)) {
      index->lookup_into(key, ids);
    } else {
      for (rel::RowId row = 0; row < table.row_count(); ++row) {
        if (table.row(row)[0] == object_value) ids.push_back(row);
      }
    }
    for (const rel::RowId row_id : ids) {
      const rel::Row& row = table.row(row_id);
      bump_to(dense, row[1].as_int(), row[2].as_int());
    }
  };
  seed_from(*instances_, "idx_inst_object", state.inst_seq);
  seed_from(*clobs_, "idx_clob_object", state.clob_seq);
  if (const auto it = continued_.find(state.object_id); it != continued_.end()) {
    for (const auto& [def, seq] : it->second.instance) bump_to(state.inst_seq, def, seq);
    for (const auto& [order, seq] : it->second.clob) bump_to(state.clob_seq, order, seq);
  }
}

void Shredder::store_continued(const DocState& state) {
  SiblingCounters& counters = continued_[state.object_id];
  for (std::size_t def = 0; def < state.inst_seq.size(); ++def) {
    if (state.inst_seq[def] != 0) {
      counters.instance[static_cast<std::int64_t>(def)] = state.inst_seq[def];
    }
  }
  for (std::size_t order = 0; order < state.clob_seq.size(); ++order) {
    if (state.clob_seq[order] != 0) {
      counters.clob[static_cast<std::int64_t>(order)] = state.clob_seq[order];
    }
  }
}

void Shredder::save_counters(std::ostream& out) const {
  // The counters live in hash maps; sort the keys so saves stay
  // byte-deterministic.
  using Entry = std::pair<std::pair<std::int64_t, std::int64_t>, std::int64_t>;
  std::vector<Entry> instances;
  std::vector<Entry> clobs;
  for (const auto& [object, counters] : continued_) {
    for (const auto& [def, seq] : counters.instance) instances.push_back({{object, def}, seq});
    for (const auto& [order, seq] : counters.clob) clobs.push_back({{object, order}, seq});
  }
  std::sort(instances.begin(), instances.end());
  std::sort(clobs.begin(), clobs.end());
  out << "counters " << instances.size() << ' ' << clobs.size() << '\n';
  for (const auto& [key, seq] : instances) {
    out << key.first << ' ' << key.second << ' ' << seq << '\n';
  }
  for (const auto& [key, seq] : clobs) {
    out << key.first << ' ' << key.second << ' ' << seq << '\n';
  }
}

void Shredder::load_counters(std::istream& in) {
  std::string tag;
  std::size_t instances = 0;
  std::size_t clobs = 0;
  if (!(in >> tag >> instances >> clobs) || tag != "counters") {
    throw ValidationError("bad counters section in catalog stream");
  }
  continued_.clear();
  for (std::size_t i = 0; i < instances; ++i) {
    ObjectId object = 0;
    AttrDefId def = 0;
    std::int64_t seq = 0;
    in >> object >> def >> seq;
    continued_[object].instance[def] = seq;
  }
  for (std::size_t i = 0; i < clobs; ++i) {
    ObjectId object = 0;
    OrderId order = 0;
    std::int64_t seq = 0;
    in >> object >> order >> seq;
    continued_[object].clob[order] = seq;
  }
  if (!in) throw ValidationError("truncated counters section");
}

void Shredder::walk_ordered(DocState& state, const xml::Node& node,
                            const xml::SchemaNode& schema_node) {
  const OrderId order = partition_.order_of(schema_node);
  if (const AttributeRootInfo* root = partition_.root_at(order)) {
    handle_attribute(state, node, *root);
    return;
  }
  // Ancestor node: descend matching children against the schema.
  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    const xml::SchemaNode* child_schema = schema_node.child(child->name());
    if (child_schema == nullptr) {
      throw ValidationError("unexpected element <" + std::string(child->name()) +
                            "> under <" + schema_node.name() + ">");
    }
    walk_ordered(state, *child, *child_schema);
  }
}

void Shredder::handle_attribute(DocState& state, const xml::Node& node,
                                const AttributeRootInfo& root) {
  // Store the CLOB with its global order and same-sibling sequence (§3).
  const std::int64_t clob_seq = next_clob_seq(state, root.order);
  // Serialize into the reused per-document buffer, then copy once (exact
  // size) into the store — cheaper than growing a fresh string per CLOB.
  state.clob_scratch.clear();
  xml::write_into(state.clob_scratch, node);
  state.stats.clob_bytes += state.clob_scratch.size();
  ++state.stats.clobs;
  const rel::ClobId clob_id = db_.clobs().append(state.clob_scratch);
  state.clob_rows.push_back(make_row(rel::Value(state.object_id), rel::Value(root.order),
                                     rel::Value(clob_seq), rel::Value(clob_id)));

  if (!root.queryable) return;
  if (root.dynamic) {
    shred_dynamic(state, node, root, clob_seq);
  } else {
    shred_structural(state, node, root, clob_seq);
  }
}

std::int64_t Shredder::next_seq(DocState& state, AttrDefId def) {
  const auto idx = static_cast<std::size_t>(def);
  if (idx >= state.inst_seq.size()) state.inst_seq.resize(idx + 1, 0);
  return ++state.inst_seq[idx];
}

std::int64_t Shredder::next_clob_seq(DocState& state, OrderId order) {
  const auto idx = static_cast<std::size_t>(order);
  if (idx >= state.clob_seq.size()) state.clob_seq.resize(idx + 1, 0);
  return ++state.clob_seq[idx];
}

void Shredder::append_inverted(DocState& state, AttrDefId def, std::int64_t seq) {
  // state.path holds the enclosing instances from the top attribute
  // downward; the nearest enclosing instance is at distance 1.
  const std::int64_t n = static_cast<std::int64_t>(state.path.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const PathFrame& frame = state.path[static_cast<std::size_t>(i)];
    state.inverted_rows.push_back(
        make_row(rel::Value(state.object_id), rel::Value(def), rel::Value(seq),
                 rel::Value(frame.def), rel::Value(frame.seq), rel::Value(n - i)));
  }
}

void Shredder::append_element_row(DocState& state, AttrDefId attr, std::int64_t seq,
                                  const ElementDef& elem, std::int64_t elem_seq,
                                  std::string_view raw_value) {
  // value_num mirrors any value that parses as a number, so predicates can
  // compare numerically exactly when both operands are numeric (the shared
  // comparison semantics; see baselines/dom_matcher.cpp). The declared type
  // is used only to flag validation failures.
  rel::Value numeric = rel::Value::null();
  if (const auto v = util::parse_double(raw_value)) {
    numeric = rel::Value(*v);
  }
  if ((elem.type == xml::LeafType::kInt && !util::parse_int(raw_value)) ||
      (elem.type == xml::LeafType::kDouble && numeric.is_null())) {
    ++state.stats.untyped_values;
  }
  state.element_rows.push_back(make_row(rel::Value(state.object_id), rel::Value(attr),
                                        rel::Value(seq), rel::Value(elem.id),
                                        rel::Value(elem_seq), string_value(raw_value),
                                        std::move(numeric)));
  ++state.stats.element_rows;
}

void Shredder::shred_structural(DocState& state, const xml::Node& node,
                                const AttributeRootInfo& root, std::int64_t clob_seq) {
  const auto def_opt = registry_.structural_for_order(root.order);
  if (!def_opt) return;  // not installed -> treated as non-queryable
  const AttrDefId def = *def_opt;
  const std::int64_t seq = next_seq(state, def);
  state.instance_rows.push_back(make_row(rel::Value(state.object_id), rel::Value(def),
                                         rel::Value(seq), rel::Value(std::int64_t{1}),
                                         rel::Value(clob_seq)));
  ++state.stats.attribute_instances;

  state.path.clear();
  state.path.push_back(PathFrame{def, seq});
  shred_structural_children(state, node, *root.schema_node, def, seq);
}

void Shredder::shred_structural_children(DocState& state, const xml::Node& node,
                                         const xml::SchemaNode& schema_node,
                                         AttrDefId def, std::int64_t seq) {
  std::int64_t elem_seq = 0;
  std::string scratch;

  // Attribute-element: the node itself carries the value.
  if (schema_node.is_leaf()) {
    if (const ElementDef* elem = registry_.find_element(schema_node.name(), "", def)) {
      append_element_row(state, def, seq, *elem, ++elem_seq, node.text_view(scratch));
    }
    return;
  }

  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    const xml::SchemaNode* child_schema = schema_node.child(child->name());
    if (child_schema == nullptr) {
      throw ValidationError("unexpected element <" + std::string(child->name()) +
                            "> inside attribute <" + schema_node.name() + ">");
    }
    if (child_schema->is_leaf()) {
      const ElementDef* elem = registry_.find_element(child->name(), "", def);
      if (elem == nullptr) {
        throw ValidationError("no element definition for <" + std::string(child->name()) +
                              "> in <" + schema_node.name() + ">");
      }
      append_element_row(state, def, seq, *elem, ++elem_seq, child->text_view(scratch));
      continue;
    }
    // Structural sub-attribute.
    const AttributeDef* sub = registry_.find_attribute(child->name(), "", def);
    if (sub == nullptr) {
      throw ValidationError("no sub-attribute definition for <" +
                            std::string(child->name()) + ">");
    }
    const std::int64_t sub_seq = next_seq(state, sub->id);
    state.instance_rows.push_back(make_row(rel::Value(state.object_id),
                                           rel::Value(sub->id), rel::Value(sub_seq),
                                           rel::Value(std::int64_t{0}),
                                           rel::Value::null()));
    ++state.stats.sub_attribute_instances;
    append_inverted(state, sub->id, sub_seq);
    state.path.push_back(PathFrame{sub->id, sub_seq});
    shred_structural_children(state, *child, *child_schema, sub->id, sub_seq);
    state.path.pop_back();
  }
}

void Shredder::shred_dynamic(DocState& state, const xml::Node& node,
                             const AttributeRootInfo& root, std::int64_t clob_seq) {
  const DynamicConvention& c = partition_.convention();

  // Identity comes from values, not tags (§3): enttypl/enttypds in LEAD.
  const xml::Node* container = node.first_child(c.def_container);
  if (container == nullptr) {
    ++state.stats.unshredded_dynamic;
    return;
  }
  std::string name_scratch;
  std::string source_scratch;
  const std::string_view name = container->child_text_view(c.def_name, name_scratch);
  const std::string_view source = container->child_text_view(c.def_source, source_scratch);
  if (name.empty()) {
    ++state.stats.unshredded_dynamic;
    return;
  }

  // Hold the id, not the pointer: auto-definition below may grow the
  // registry's definition vector and invalidate definition references.
  AttrDefId def_id = kNoAttr;
  if (const AttributeDef* def = registry_.find_attribute(name, source, kNoAttr, state.owner)) {
    def_id = def->id;
  } else {
    if (!options_.auto_define_dynamic) {
      // Validation failed: keep the CLOB, skip the query tables (§3).
      ++state.stats.unshredded_dynamic;
      return;
    }
    def_id = registry_.define_attribute(
        std::string(name), std::string(source), AttrKind::kDynamic, kNoAttr, root.order,
        options_.auto_define_visibility,
        options_.auto_define_visibility == Visibility::kUser ? state.owner : std::string{});
  }

  const std::int64_t seq = next_seq(state, def_id);
  state.instance_rows.push_back(make_row(rel::Value(state.object_id), rel::Value(def_id),
                                         rel::Value(seq), rel::Value(std::int64_t{1}),
                                         rel::Value(clob_seq)));
  ++state.stats.attribute_instances;

  state.path.clear();
  state.path.push_back(PathFrame{def_id, seq});
  for (const xml::Node* item : node.children()) {
    if (item->is_element() && item->name() == c.item_tag) {
      shred_dynamic_item(state, *item, def_id, state.owner);
    }
  }
}

void Shredder::shred_dynamic_item(DocState& state, const xml::Node& item,
                                  AttrDefId parent_def, const std::string& owner) {
  const DynamicConvention& c = partition_.convention();
  // One pass over the item's children collects everything the convention
  // names — four separate first_child scans here were a measurable slice of
  // dynamic shredding.
  const xml::Node* name_node = nullptr;
  const xml::Node* source_node = nullptr;
  const xml::Node* value_node = nullptr;
  bool has_sub_items = false;
  for (const xml::Node* child : item.children()) {
    if (!child->is_element()) continue;
    const std::string_view tag = child->name();
    if (tag == c.item_tag) has_sub_items = true;
    if (name_node == nullptr && tag == c.item_name) name_node = child;
    if (source_node == nullptr && tag == c.item_source) source_node = child;
    if (value_node == nullptr && tag == c.item_value) value_node = child;
  }
  std::string name_scratch;
  std::string source_scratch;
  const std::string_view name =
      name_node ? name_node->text_view(name_scratch) : std::string_view{};
  const std::string_view source =
      source_node ? source_node->text_view(source_scratch) : std::string_view{};
  if (name.empty()) {
    ++state.stats.unshredded_dynamic;
    return;
  }

  if (has_sub_items) {
    // Hold the id, not a pointer — recursive auto-definition may reallocate
    // the registry's definition vector.
    AttrDefId sub_id = kNoAttr;
    if (const AttributeDef* sub = registry_.find_attribute(name, source, parent_def, owner)) {
      sub_id = sub->id;
    } else {
      if (!options_.auto_define_dynamic) {
        ++state.stats.unshredded_dynamic;
        return;
      }
      sub_id = registry_.define_attribute(
          std::string(name), std::string(source), AttrKind::kDynamic, parent_def, kNoOrder,
          options_.auto_define_visibility,
          options_.auto_define_visibility == Visibility::kUser ? owner : std::string{});
    }
    const std::int64_t sub_seq = next_seq(state, sub_id);
    state.instance_rows.push_back(make_row(rel::Value(state.object_id),
                                           rel::Value(sub_id), rel::Value(sub_seq),
                                           rel::Value(std::int64_t{0}),
                                           rel::Value::null()));
    ++state.stats.sub_attribute_instances;
    append_inverted(state, sub_id, sub_seq);
    state.path.push_back(PathFrame{sub_id, sub_seq});
    for (const xml::Node* sub_item : item.children()) {
      if (sub_item->is_element() && sub_item->name() == c.item_tag) {
        shred_dynamic_item(state, *sub_item, sub_id, owner);
      }
    }
    state.path.pop_back();
    return;
  }

  // Metadata element: value carried by the item_value child.
  std::string value_scratch;
  const std::string_view raw_value =
      value_node ? value_node->text_view(value_scratch) : std::string_view{};
  const ElementDef* elem = registry_.find_element(name, source, parent_def);
  if (elem == nullptr) {
    if (!options_.auto_define_dynamic) {
      ++state.stats.unshredded_dynamic;
      return;
    }
    // Infer the value type from the first observed value.
    xml::LeafType type = xml::LeafType::kString;
    if (util::parse_int(raw_value)) {
      type = xml::LeafType::kInt;
    } else if (util::parse_double(raw_value)) {
      type = xml::LeafType::kDouble;
    }
    const ElemDefId id = registry_.define_element(std::string(name), std::string(source),
                                                  parent_def, type);
    elem = &registry_.element(id);
  }
  // Element sequence: local order within the innermost enclosing instance,
  // counted directly in its path frame.
  PathFrame& frame = state.path.back();
  append_element_row(state, frame.def, frame.seq, *elem, ++frame.elem_seq, raw_value);
}

}  // namespace hxrc::core
