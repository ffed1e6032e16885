// Query-response construction (§5).
//
// Given the object ids produced by the query process, the response builder
// reassembles fully tagged XML documents entirely with set operations:
//
//   1. fetch the attr_clobs rows for the objects (CLOB payloads untouched);
//   2. join with the order_ancestors inverted list to find the *distinct*
//      ancestor nodes each object actually needs (most attributes are
//      optional, so absent subtrees contribute no tags);
//   3. join the required ancestors with schema_order to obtain tags and
//      last-child orders, from which both opening and closing tag events are
//      generated — no external "tagger" pass (§5, contrasting [24]);
//   4. sort events by (position, phase, depth) and concatenate, touching
//      the CLOB payloads only in this final step.
//
// This works only because the global ordering is per-schema: the ancestor
// inverted list would be per-document otherwise (§5).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/partition.hpp"
#include "rel/database.hpp"
#include "rel/read_view.hpp"

namespace hxrc::core {

class ResponseBuilder {
 public:
  ResponseBuilder(const Partition& partition, const rel::Database& db);

  /// Reassembles one object's document ("" when the object has no CLOBs).
  /// With a ReadView, the attr_clobs probe sees only snapshot-visible rows
  /// and never syncs — the MVCC fetch path. (The ordering tables are frozen
  /// at setup, so only the CLOB probe needs a watermark.)
  std::string build_document(ObjectId object,
                             const rel::ReadView* view = nullptr) const;

  /// Projected response: only the attributes whose root order is in
  /// `attribute_orders` are included (with exactly the ancestors those
  /// attributes require — the same distinct-ancestor machinery as the full
  /// response). Scientists typically want the matching attributes, not the
  /// whole record.
  std::string build_document(ObjectId object, std::span<const OrderId> attribute_orders,
                             const rel::ReadView* view = nullptr) const;

 private:
  std::string assemble(const rel::ResultSet& clob_rows) const;

  const Partition& partition_;
  const rel::Database& db_;
};

}  // namespace hxrc::core
