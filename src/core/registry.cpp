#include "core/registry.hpp"

#include "core/storage.hpp"

namespace hxrc::core {

namespace {

// Column positions, in the order install_storage declares them.
enum AttrColumn { kAName, kASource, kAKind, kAParent, kAOrder, kAVisibility, kAOwner, kAQueryable };
enum ElemColumn { kEName, kESource, kEAttribute, kEType };

/// Row ids under (`name`, [`source`,] `parent`), ascending, that `view` sees
/// (nullptr: every row). Per-thread buffers, reused by the thread's next
/// probe, keep the lookups allocation-free.
const std::vector<rel::RowId>& probe(const rel::Table& table, const rel::Index& index,
                                     std::string_view name, std::optional<std::string_view> source,
                                     std::int64_t parent, const rel::ReadView* view) {
  thread_local rel::Key key;
  thread_local std::vector<rel::RowId> rows;
  key.parts.resize(source ? 3 : 2);
  key.parts[0] = rel::Value(name);
  if (source) key.parts[1] = rel::Value(*source);
  key.parts.back() = rel::Value(parent);
  rows.clear();
  if (view != nullptr) {
    view->lookup_into(table, index, key, rows);
  } else {
    index.lookup_into(key, rows);
  }
  return rows;
}

Visibility visibility_of(const rel::Row& row) {
  return static_cast<Visibility>(row[kAVisibility].as_int());
}

}  // namespace

DefinitionRegistry::DefinitionRegistry(rel::Database& db, const Partition& partition)
    : attrs_(db.require_table(kAttrDefsTable)),
      elems_(db.require_table(kElemDefsTable)),
      attr_by_key_(*attrs_.index("idx_attr_defs_key")),
      attr_by_name_(*attrs_.index("idx_attr_defs_name")),
      elem_by_key_(*elems_.index("idx_elem_defs_key")),
      elem_by_name_(*elems_.index("idx_elem_defs_name")) {
  for (const AttributeRootInfo& root : partition.attribute_roots()) {
    if (root.dynamic) {
      // Dynamic roots get no structural definition at all: their content is
      // identified by name/source values and registered dynamic
      // definitions, not by the schema structure (§3).
      continue;
    }
    const AttrDefId def = define_attribute(root.tag, /*source=*/"", AttrKind::kStructural,
                                           kNoAttr, root.order, Visibility::kAdmin, {},
                                           root.queryable);
    structural_by_order_[root.order] = def;
    if (root.schema_node->is_leaf()) {
      // Attribute-element: the root itself carries the value.
      define_element(root.tag, "", def, root.schema_node->leaf_type());
      continue;
    }
    for (const auto& child : root.schema_node->children()) {
      install_structural_subtree(*child, def);
    }
  }
  structural_attrs_ = attrs_.row_count();
  structural_elems_ = elems_.row_count();
}

void DefinitionRegistry::install_structural_subtree(const xml::SchemaNode& node,
                                                    AttrDefId parent_def) {
  if (node.is_leaf()) {
    define_element(node.name(), "", parent_def, node.leaf_type());
    return;
  }
  const AttrDefId sub = define_attribute(node.name(), "", AttrKind::kStructural, parent_def);
  for (const auto& child : node.children()) {
    install_structural_subtree(*child, sub);
  }
}

AttrDefId DefinitionRegistry::define_attribute(const std::string& name,
                                               const std::string& source, AttrKind kind,
                                               AttrDefId parent, OrderId schema_order,
                                               Visibility visibility,
                                               const std::string& owner, bool queryable) {
  // Idempotent: re-defining an identical visible definition returns it.
  const auto existing = find_attribute(name, source, parent, owner);
  if (existing && existing->visibility == visibility && existing->owner == owner) {
    return existing->id;
  }
  return static_cast<AttrDefId>(attrs_.append(
      rel::Row{name, source, static_cast<int>(kind), parent, schema_order,
               static_cast<int>(visibility), owner, queryable ? 1 : 0}));
}

ElemDefId DefinitionRegistry::define_element(const std::string& name,
                                             const std::string& source, AttrDefId attribute,
                                             xml::LeafType type) {
  if (const auto existing = find_element(name, source, attribute)) return existing->id;
  return static_cast<ElemDefId>(
      elems_.append(rel::Row{name, source, attribute, static_cast<int>(type)}));
}

AttributeDef DefinitionRegistry::attribute(AttrDefId id) const {
  const rel::Row& row = attrs_.row(static_cast<rel::RowId>(id));
  return {id,
          row[kAName].as_string(),
          row[kASource].as_string(),
          static_cast<AttrKind>(row[kAKind].as_int()),
          row[kAParent].as_int(),
          row[kAOrder].as_int(),
          visibility_of(row),
          row[kAOwner].as_string(),
          row[kAQueryable].as_int() != 0};
}

ElementDef DefinitionRegistry::element(ElemDefId id) const {
  const rel::Row& row = elems_.row(static_cast<rel::RowId>(id));
  return {id, row[kEName].as_string(), row[kESource].as_string(), row[kEAttribute].as_int(),
          static_cast<xml::LeafType>(row[kEType].as_int())};
}

std::optional<AttributeDef> DefinitionRegistry::find_attribute(
    std::string_view name, std::string_view source, AttrDefId parent, std::string_view user,
    const rel::ReadView* view) const {
  // Several rows per key: the same name/source/parent may be defined at
  // admin level and privately by several users.
  std::optional<rel::RowId> user_match;
  for (const rel::RowId r : probe(attrs_, attr_by_key_, name, source, parent, view)) {
    const rel::Row& row = attrs_.row_unchecked(r);
    if (visibility_of(row) == Visibility::kAdmin) return attribute(static_cast<AttrDefId>(r));
    if (!user.empty() && row[kAOwner].as_string_view() == user) user_match = r;
  }
  return user_match ? std::optional(attribute(static_cast<AttrDefId>(*user_match))) : std::nullopt;
}

std::optional<ElementDef> DefinitionRegistry::find_element(std::string_view name,
                                                           std::string_view source,
                                                           AttrDefId attribute,
                                                           const rel::ReadView* view) const {
  const auto& rows = probe(elems_, elem_by_key_, name, source, attribute, view);
  return rows.empty() ? std::nullopt : std::optional(element(static_cast<ElemDefId>(rows[0])));
}

std::optional<ElementDef> DefinitionRegistry::find_element_any_source(
    std::string_view name, AttrDefId attribute, const rel::ReadView* view) const {
  const auto& rows = probe(elems_, elem_by_name_, name, std::nullopt, attribute, view);
  // Absent, or ambiguous across sources.
  return rows.size() != 1 ? std::nullopt : std::optional(element(static_cast<ElemDefId>(rows[0])));
}

std::optional<AttributeDef> DefinitionRegistry::find_attribute_any_source(
    std::string_view name, AttrDefId parent, std::string_view user,
    const rel::ReadView* view) const {
  std::optional<rel::RowId> unique;
  for (const rel::RowId r : probe(attrs_, attr_by_name_, name, std::nullopt, parent, view)) {
    const rel::Row& row = attrs_.row_unchecked(r);
    if (visibility_of(row) == Visibility::kUser && row[kAOwner].as_string_view() != user) {
      continue;
    }
    if (unique) return std::nullopt;  // ambiguous across sources
    unique = r;
  }
  return unique ? std::optional(attribute(static_cast<AttrDefId>(*unique))) : std::nullopt;
}

}  // namespace hxrc::core
