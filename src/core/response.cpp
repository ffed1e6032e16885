#include "core/response.hpp"

#include <algorithm>

#include "core/ordering.hpp"
#include "core/storage.hpp"
#include "rel/ops.hpp"
#include "xml/writer.hpp"

namespace hxrc::core {

ResponseBuilder::ResponseBuilder(const Partition& partition, const rel::Database& db)
    : partition_(partition), db_(db) {}

namespace {

/// A tag or CLOB event in the serialized output stream.
struct Event {
  OrderId position = 0;
  int phase = 0;        // 0 = open tag, 1 = CLOB payload, 2 = close tag
  std::int64_t minor = 0;  // clob_seq for payloads; -depth for close tags
  rel::ClobId clob = -1;
  const std::string* tag = nullptr;

  bool operator<(const Event& other) const noexcept {
    if (position != other.position) return position < other.position;
    if (phase != other.phase) return phase < other.phase;
    return minor < other.minor;
  }
};

}  // namespace

std::string ResponseBuilder::build_document(ObjectId object,
                                            const rel::ReadView* view) const {
  const rel::Table& clobs = db_.require_table(kAttrClobsTable);
  const rel::Index* clob_index = clobs.index("idx_clob_object");
  return assemble(
      rel::index_scan(clobs, *clob_index, rel::Key{{rel::Value(object)}}, view));
}

std::string ResponseBuilder::build_document(ObjectId object,
                                            std::span<const OrderId> attribute_orders,
                                            const rel::ReadView* view) const {
  const rel::Table& clobs = db_.require_table(kAttrClobsTable);
  const rel::Index* clob_index = clobs.index("idx_clob_object");
  rel::ResultSet clob_rows =
      rel::index_scan(clobs, *clob_index, rel::Key{{rel::Value(object)}}, view);
  // Project to the requested attribute orders.
  const std::size_t order_col = clob_rows.column("order_id");
  std::vector<rel::Row> kept;
  for (rel::Row& row : clob_rows.rows) {
    const OrderId order = row[order_col].as_int();
    for (const OrderId wanted : attribute_orders) {
      if (order == wanted) {
        kept.push_back(std::move(row));
        break;
      }
    }
  }
  clob_rows.rows = std::move(kept);
  return assemble(clob_rows);
}

std::string ResponseBuilder::assemble(const rel::ResultSet& clob_rows) const {
  const rel::Table& ancestors = db_.require_table(kOrderAncestorsTable);
  const rel::Index* anc_index = ancestors.index("idx_anc_by_node");

  if (clob_rows.empty()) return {};
  const std::size_t order_col = clob_rows.column("order_id");
  const std::size_t seq_col = clob_rows.column("clob_seq");
  const std::size_t id_col = clob_rows.column("clob_id");

  // Step 2: required ancestors = distinct ancestors of the CLOB orders.
  // The join uses only the (order_id) index — CLOB payloads are not touched
  // until the final concatenation (§5).
  rel::ResultSet anc_rows = rel::index_join(clob_rows, {order_col}, ancestors, *anc_index);
  anc_rows = rel::distinct_on(anc_rows, {anc_rows.column("anc_order")});

  // Step 3: join with schema_order for tags and last-child orders. The
  // ordered-node vector mirrors the schema_order table row-for-row, so the
  // join is a direct positional lookup.
  const auto& ordered = partition_.ordered_nodes();

  std::vector<Event> events;
  events.reserve(clob_rows.size() + anc_rows.size() * 2);
  const std::size_t anc_order_col = anc_rows.column("anc_order");
  for (const rel::Row& row : anc_rows.rows) {
    const OrderId order = row[anc_order_col].as_int();
    const OrderedNode& node = ordered[static_cast<std::size_t>(order)];
    events.push_back(Event{node.order, 0, 0, -1, &node.tag});
    events.push_back(Event{node.last_child, 2, -node.depth, -1, &node.tag});
  }
  for (const rel::Row& row : clob_rows.rows) {
    events.push_back(Event{row[order_col].as_int(), 1, row[seq_col].as_int(),
                           row[id_col].as_int(), nullptr});
  }

  // Step 4: sort and concatenate.
  std::sort(events.begin(), events.end());
  std::string out;
  for (const Event& event : events) {
    switch (event.phase) {
      case 0:
        xml::append_open_tag(out, *event.tag, {});
        break;
      case 1:
        out += db_.clobs().get(event.clob);
        break;
      case 2:
        xml::append_close_tag(out, *event.tag);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace hxrc::core
