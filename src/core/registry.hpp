// The definition registry: metadata attribute and element definitions (§2-3).
//
// The catalog tracks a definition for every metadata attribute (unique id,
// schema order, parent attribute for sub-attributes) and every metadata
// element (unique id, owning attribute, data type). Structural definitions
// are derived from the partitioned schema; dynamic definitions are
// registered at administrator or user level, with user-level definitions
// private to their owner. Shredding *validates* documents against this
// registry: elements that do not match a definition stay CLOB-only.
//
// Storage: the registry is a facade over two tables of the catalog's
// rel::Database (attr_defs, elem_defs; see core/storage.hpp). A row id is
// the definition id, and rows are append-only, so a snapshot sees exactly
// the definitions below its rel::ReadView watermarks — definitions share
// the MVCC of every other catalog table. Every lookup takes the view to
// read at; nullptr reads every row (the writer and single-threaded setup).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/model.hpp"
#include "core/partition.hpp"
#include "rel/database.hpp"
#include "rel/read_view.hpp"

namespace hxrc::core {

class DefinitionRegistry {
 public:
  /// Binds to `db`'s definition tables (created by install_storage) and
  /// registers structural attribute/sub-attribute/element definitions for
  /// every attribute root in the partition.
  DefinitionRegistry(rel::Database& db, const Partition& partition);

  /// Registers a dynamic attribute definition (or sub-attribute when
  /// `parent` is given). Returns the existing id when an identical
  /// definition is already present.
  AttrDefId define_attribute(const std::string& name, const std::string& source,
                             AttrKind kind, AttrDefId parent = kNoAttr,
                             OrderId schema_order = kNoOrder,
                             Visibility visibility = Visibility::kAdmin,
                             const std::string& owner = {}, bool queryable = true);

  /// Registers an element definition under an attribute; idempotent.
  ElemDefId define_element(const std::string& name, const std::string& source,
                           AttrDefId attribute,
                           xml::LeafType type = xml::LeafType::kString);

  /// Looks up an attribute definition visible to `user` ("" = admin scope
  /// only). Name+source+parent identify a definition; user-level definitions
  /// shadow nothing (admin match wins).
  std::optional<AttributeDef> find_attribute(std::string_view name, std::string_view source,
                                             AttrDefId parent, std::string_view user = {},
                                             const rel::ReadView* view = nullptr) const;

  std::optional<ElementDef> find_element(std::string_view name, std::string_view source,
                                         AttrDefId attribute,
                                         const rel::ReadView* view = nullptr) const;

  /// The unique element named `name` under `attribute` regardless of
  /// source; nullopt when absent or ambiguous across sources (the engine's
  /// loose lookups for queries omitting the source, §4).
  std::optional<ElementDef> find_element_any_source(std::string_view name, AttrDefId attribute,
                                                    const rel::ReadView* view = nullptr) const;

  /// The unique attribute named `name` under `parent` among definitions
  /// visible to `user`; nullopt when absent or ambiguous across sources.
  std::optional<AttributeDef> find_attribute_any_source(
      std::string_view name, AttrDefId parent, std::string_view user,
      const rel::ReadView* view = nullptr) const;

  /// The definition with this id; throws rel::TypeError when out of range.
  AttributeDef attribute(AttrDefId id) const;
  ElementDef element(ElemDefId id) const;

  std::size_t attribute_count(const rel::ReadView* view = nullptr) const noexcept {
    return view == nullptr ? attrs_.row_count() : view->visible_rows(attrs_);
  }
  std::size_t element_count(const rel::ReadView* view = nullptr) const noexcept {
    return view == nullptr ? elems_.row_count() : view->visible_rows(elems_);
  }

  /// Definitions the constructor installed: the structural id prefix.
  std::size_t structural_attribute_count() const noexcept { return structural_attrs_; }
  std::size_t structural_element_count() const noexcept { return structural_elems_; }

  /// Top-level structural definition for an attribute root order.
  std::optional<AttrDefId> structural_for_order(OrderId order) const noexcept {
    const auto it = structural_by_order_.find(order);
    return it == structural_by_order_.end() ? std::nullopt : std::optional(it->second);
  }

 private:
  void install_structural_subtree(const xml::SchemaNode& node, AttrDefId parent_def);

  rel::Table& attrs_;
  rel::Table& elems_;
  const rel::Index& attr_by_key_;   // (name, source, parent)
  const rel::Index& attr_by_name_;  // (name, parent)
  const rel::Index& elem_by_key_;   // (name, source, attribute)
  const rel::Index& elem_by_name_;  // (name, attribute)
  std::size_t structural_attrs_ = 0;
  std::size_t structural_elems_ = 0;
  std::unordered_map<OrderId, AttrDefId> structural_by_order_;
};

}  // namespace hxrc::core
