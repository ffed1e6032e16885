// Physical storage layout of the hybrid catalog (§3).
//
// One rel::Database holds everything:
//   objects(object_id, name, owner)
//   attr_instances(object_id, attr_id, seq, top, clob_seq)
//       one row per metadata attribute *instance*; `seq` is the same-sibling
//       sequence id (unique per object+definition); `clob_seq` links top
//       instances to their CLOB (NULL for sub-attribute instances).
//   attr_inverted(object_id, attr_id, seq, anc_attr_id, anc_seq, distance)
//       the inverted list from each sub-attribute instance to every
//       enclosing attribute instance (distance >= 1) — this is what lets
//       queries avoid recursion (§4).
//   elem_data(object_id, attr_id, seq, elem_id, elem_seq, value_str, value_num)
//       one row per metadata element; numeric values are mirrored into
//       value_num so range predicates compare numerically.
//   attr_clobs(object_id, order_id, clob_seq, clob_id)
//       per-attribute CLOBs keyed by the schema global order (§2, §5).
//   attr_defs(name, source, kind, parent, schema_order, visibility, owner,
//             queryable)
//       metadata attribute definitions; the row id is the AttrDefId.
//   elem_defs(name, source, attribute, type)
//       metadata element definitions; the row id is the ElemDefId.
//   deleted_objects(object_id)
//       one tombstone row per deleted object.
// Every table is append-only, so a snapshot's rel::ReadView freezes them all.
// Plus the ordering tables created by install_ordering (ordering.hpp).
#pragma once

#include "rel/database.hpp"

namespace hxrc::core {

inline constexpr const char* kObjectsTable = "objects";
inline constexpr const char* kAttrInstancesTable = "attr_instances";
inline constexpr const char* kAttrInvertedTable = "attr_inverted";
inline constexpr const char* kElemDataTable = "elem_data";
inline constexpr const char* kAttrClobsTable = "attr_clobs";
inline constexpr const char* kAttrDefsTable = "attr_defs";
inline constexpr const char* kElemDefsTable = "elem_defs";
inline constexpr const char* kDeletedObjectsTable = "deleted_objects";

/// Creates the eight storage tables and the secondary indexes the
/// registry, the tombstone check and the query/response pipelines probe.
void install_storage(rel::Database& db);

}  // namespace hxrc::core
