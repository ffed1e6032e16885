#include "core/partition.hpp"

#include <algorithm>
#include <unordered_set>

namespace hxrc::core {

namespace {

std::string path_of(const xml::SchemaNode& node) {
  std::vector<std::string_view> segments;
  for (const xml::SchemaNode* n = &node; n->parent() != nullptr; n = n->parent()) {
    segments.push_back(n->name());
  }
  std::string path;
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    if (!path.empty()) path.push_back('/');
    path += *it;
  }
  return path;
}

}  // namespace

std::vector<PartitionDiagnostic> Partition::check_rules(
    const xml::Schema& schema, const PartitionAnnotations& annotations) {
  std::vector<PartitionDiagnostic> diagnostics;

  // Resolve annotated paths.
  std::unordered_set<const xml::SchemaNode*> roots;
  for (const auto& annotation : annotations.attributes) {
    const xml::SchemaNode* node = schema.find(annotation.path);
    if (node == nullptr) {
      diagnostics.push_back({annotation.path, "annotated path does not exist in the schema"});
      continue;
    }
    if (node->parent() == nullptr) {
      diagnostics.push_back({annotation.path, "the schema root cannot be a metadata attribute"});
      continue;
    }
    roots.insert(node);
  }

  // Single attribute per root-to-leaf path (§6): roots form an antichain.
  for (const xml::SchemaNode* root : roots) {
    for (const xml::SchemaNode* up = root->parent(); up != nullptr; up = up->parent()) {
      if (roots.count(up) != 0) {
        diagnostics.push_back(
            {path_of(*root), "attribute root is nested inside attribute root '" +
                                 path_of(*up) + "' (only one attribute per path)"});
      }
    }
  }

  // Walk the schema classifying nodes; check rules 2-5.
  struct Walker {
    const std::unordered_set<const xml::SchemaNode*>& roots;
    std::vector<PartitionDiagnostic>& diagnostics;

    void walk(const xml::SchemaNode& node, bool inside_attribute) {
      const bool is_root_here = roots.count(&node) != 0;
      const bool covered = inside_attribute || is_root_here;

      if (!covered) {
        // Rule: repeatable elements must be contained within an attribute.
        if (node.repeatable() && node.parent() != nullptr) {
          diagnostics.push_back(
              {path_of(node), "repeatable element is not contained in a metadata attribute"});
        }
        // Rule: elements with XML attribute nodes must be (in) an attribute.
        if (!node.xml_attributes().empty()) {
          diagnostics.push_back(
              {path_of(node),
               "element declares XML attributes but is not (in) a metadata attribute"});
        }
        // Rule: recursion must be contained within an attribute.
        if (node.recursive()) {
          diagnostics.push_back(
              {path_of(node), "recursive element is not contained in a metadata attribute"});
        }
        // Rule: every leaf must be contained within an attribute.
        if (node.is_leaf() && node.parent() != nullptr) {
          diagnostics.push_back(
              {path_of(node), "leaf element is not covered by any metadata attribute"});
        }
      }
      for (const auto& child : node.children()) {
        walk(*child, covered);
      }
    }
  };
  Walker{roots, diagnostics}.walk(schema.root(), false);

  return diagnostics;
}

Partition Partition::build(const xml::Schema& schema, PartitionAnnotations annotations) {
  std::vector<PartitionDiagnostic> diagnostics = check_rules(schema, annotations);
  if (!diagnostics.empty()) {
    std::string message = "schema partition violates the metadata-attribute rules:";
    for (const auto& d : diagnostics) {
      message += "\n  [" + d.path + "] " + d.message;
    }
    throw PartitionError(std::move(message), std::move(diagnostics));
  }

  Partition partition;
  partition.schema_ = &schema;
  partition.convention_ = annotations.convention;

  // Resolve annotations to nodes.
  std::unordered_map<const xml::SchemaNode*, const AttributeAnnotation*> root_nodes;
  for (const auto& annotation : annotations.attributes) {
    root_nodes.emplace(schema.find(annotation.path), &annotation);
  }

  // Pre-order walk assigning global order ids to the ordered region
  // (ancestors + attribute roots); the walk does not descend into
  // attributes (§2: elements within the CLOB are inherently ordered).
  struct Builder {
    Partition& partition;
    const std::unordered_map<const xml::SchemaNode*, const AttributeAnnotation*>& root_nodes;
    OrderId next = 0;

    OrderId walk_ordered(const xml::SchemaNode& node, OrderId parent, std::int64_t depth) {
      const OrderId order = next++;
      const auto root_it = root_nodes.find(&node);
      const bool is_root = root_it != root_nodes.end();

      OrderedNode ordered;
      ordered.order = order;
      ordered.tag = node.name();
      ordered.parent = parent;
      ordered.depth = depth;
      ordered.is_attribute_root = is_root;
      ordered.schema_node = &node;
      partition.ordered_.push_back(ordered);
      partition.orders_[&node] = order;

      if (is_root) {
        const AttributeAnnotation& annotation = *root_it->second;
        AttributeRootInfo info;
        info.path = annotation.path;
        info.tag = node.name();
        info.order = order;
        info.dynamic = annotation.dynamic;
        info.queryable = annotation.queryable;
        info.repeatable = node.repeatable();
        info.schema_node = &node;
        partition.root_by_order_[order] = partition.roots_.size();
        partition.roots_.push_back(std::move(info));
        partition.ordered_[static_cast<std::size_t>(order)].last_child = order;
        return order;
      }

      OrderId last = order;
      for (const auto& child : node.children()) {
        last = walk_ordered(*child, order, depth + 1);
      }
      partition.ordered_[static_cast<std::size_t>(order)].last_child = last;
      return last;
    }
  };
  Builder{partition, root_nodes}.walk_ordered(schema.root(), kNoOrder, 0);

  // Ancestor inverted list (§5), nearest ancestor first.
  partition.ancestors_.resize(partition.ordered_.size());
  for (const OrderedNode& node : partition.ordered_) {
    std::vector<OrderId>& ancestors = partition.ancestors_[static_cast<std::size_t>(node.order)];
    for (OrderId up = node.parent; up != kNoOrder;
         up = partition.ordered_[static_cast<std::size_t>(up)].parent) {
      ancestors.push_back(up);
    }
  }

  return partition;
}

OrderId Partition::order_of(const xml::SchemaNode& node) const noexcept {
  const auto it = orders_.find(&node);
  return it == orders_.end() ? kNoOrder : it->second;
}

const AttributeRootInfo* Partition::root_at(OrderId order) const noexcept {
  const auto it = root_by_order_.find(order);
  return it == root_by_order_.end() ? nullptr : &roots_[it->second];
}

const std::vector<OrderId>& Partition::ancestors_of(OrderId order) const {
  return ancestors_.at(static_cast<std::size_t>(order));
}

}  // namespace hxrc::core
