// Identifiers and definition records for the hybrid metadata catalog.
//
// Terminology follows the paper (§2):
//  * metadata attribute    — an interior schema node representing one concept
//                            (e.g. "theme", "status", or the dynamic "grid");
//  * sub-attribute         — an attribute nested inside another attribute;
//  * metadata element      — a leaf carrying a value inside an attribute;
//  * structural attribute  — defined by the schema structure (tag = name);
//  * dynamic attribute     — defined by name + source *values* carried in the
//                            document (LEAD: enttypl/enttypds, attrlabl/attrdefs),
//                            validated against the definition registry.
#pragma once

#include <cstdint>
#include <string>

#include "xml/schema.hpp"

namespace hxrc::core {

using ObjectId = std::int64_t;
using AttrDefId = std::int64_t;
using ElemDefId = std::int64_t;
/// Position in the schema-level global ordering (pre-order, attribute roots
/// and their ancestors only).
using OrderId = std::int64_t;

inline constexpr AttrDefId kNoAttr = -1;
inline constexpr OrderId kNoOrder = -1;

enum class AttrKind { kStructural, kDynamic };

/// Who can see (and query on) a definition. Admin definitions are shared by
/// the whole catalog; user definitions are private to their owner (§3).
enum class Visibility { kAdmin, kUser };

struct AttributeDef {
  AttrDefId id = kNoAttr;
  std::string name;
  /// Empty for structural attributes; the defining model for dynamic ones
  /// ("ARPS", "WRF", ...). Name + source together identify a definition so
  /// different models may reuse parameter names (§3).
  std::string source;
  AttrKind kind = AttrKind::kStructural;
  /// Parent definition for sub-attributes; kNoAttr for top-level attributes.
  AttrDefId parent = kNoAttr;
  /// Global order of the attribute root in the schema (top-level structural
  /// and dynamic roots only; kNoOrder for sub-attributes and for dynamic
  /// definitions, which live under their dynamic root's order).
  OrderId schema_order = kNoOrder;
  Visibility visibility = Visibility::kAdmin;
  /// Owner for user-visibility definitions; empty for admin definitions.
  std::string owner;
  /// Scientists may exclude attributes from the query tables entirely (§2:
  /// "each metadata attribute does not need to be queryable").
  bool queryable = true;
};

struct ElementDef {
  ElemDefId id = -1;
  std::string name;
  /// Source for dynamic elements (attrdefs); empty for structural ones.
  std::string source;
  /// Owning attribute definition (every element belongs to exactly one, §2).
  AttrDefId attribute = kNoAttr;
  xml::LeafType type = xml::LeafType::kString;
};

}  // namespace hxrc::core
