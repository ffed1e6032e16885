// Schema partitioning: identifying metadata attributes (§2).
//
// The paper partitions the community schema into metadata attributes using
// five rules. The partitioner accepts an *annotated* partition (the list of
// schema paths that are attribute roots, plus which of them host dynamic
// attributes) — mirroring the paper's proposed "annotated schema" — and
// validates the five rules, producing diagnostics for violations.
//
// The result orders the ancestors and attribute roots (a leaf root is an
// attribute-element); nodes inside an attribute stay unordered (the CLOB
// keeps their order).
#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model.hpp"
#include "xml/schema.hpp"

namespace hxrc::core {

/// Conventions for locating dynamic-attribute names/sources/values inside a
/// dynamic attribute root. Defaults match the LEAD/FGDC "detailed" subtree.
struct DynamicConvention {
  /// Child element of the dynamic root holding the definition identity.
  std::string def_container = "enttyp";
  /// ...its children carrying the dynamic attribute's name and source.
  std::string def_name = "enttypl";
  std::string def_source = "enttypds";
  /// The recursive item element and its name/source/value children.
  std::string item_tag = "attr";
  std::string item_name = "attrlabl";
  std::string item_source = "attrdefs";
  std::string item_value = "attrv";
};

/// One attribute-root annotation.
struct AttributeAnnotation {
  /// Slash-separated path below the schema root, e.g.
  /// "data/idinfo/keywords/theme".
  std::string path;
  /// The subtree hosts dynamic attributes (identified by name+source values
  /// rather than the schema structure).
  bool dynamic = false;
  /// Included in the shredded query tables (§2: queryable attributes).
  bool queryable = true;
};

struct PartitionAnnotations {
  std::vector<AttributeAnnotation> attributes;
  DynamicConvention convention;
};

/// A rule-violation diagnostic.
struct PartitionDiagnostic {
  std::string path;
  std::string message;
};

class PartitionError : public std::runtime_error {
 public:
  PartitionError(std::string message, std::vector<PartitionDiagnostic> diagnostics)
      : std::runtime_error(std::move(message)), diagnostics_(std::move(diagnostics)) {}

  const std::vector<PartitionDiagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  std::vector<PartitionDiagnostic> diagnostics_;
};

/// A node in the global ordering (ancestors and attribute roots only).
struct OrderedNode {
  OrderId order = kNoOrder;
  std::string tag;
  OrderId parent = kNoOrder;
  /// Order of the last ordered node in this subtree; equals `order` for
  /// attribute roots (§2: "for metadata attribute nodes ... the node order").
  OrderId last_child = kNoOrder;
  std::int64_t depth = 0;
  bool is_attribute_root = false;
  const xml::SchemaNode* schema_node = nullptr;
};

/// Per-attribute-root partition facts.
struct AttributeRootInfo {
  std::string path;
  std::string tag;
  OrderId order = kNoOrder;
  bool dynamic = false;
  bool queryable = true;
  bool repeatable = false;
  const xml::SchemaNode* schema_node = nullptr;
};

/// The computed partition: the global ordering, the attribute roots, and the
/// ancestor inverted list (§5).
class Partition {
 public:
  const xml::Schema& schema() const noexcept { return *schema_; }
  const DynamicConvention& convention() const noexcept { return convention_; }

  const std::vector<OrderedNode>& ordered_nodes() const noexcept { return ordered_; }
  const std::vector<AttributeRootInfo>& attribute_roots() const noexcept { return roots_; }

  /// Order id of a schema node in the ordered region; kNoOrder for nodes
  /// inside attributes.
  OrderId order_of(const xml::SchemaNode& node) const noexcept;

  /// Attribute-root info for an ordered node; nullptr when not a root.
  const AttributeRootInfo* root_at(OrderId order) const noexcept;

  /// Ancestor order ids of an ordered node, nearest first (excludes self).
  const std::vector<OrderId>& ancestors_of(OrderId order) const;

  /// True when the annotated path set satisfies all five §2 rules.
  static std::vector<PartitionDiagnostic> check_rules(
      const xml::Schema& schema, const PartitionAnnotations& annotations);

  /// Builds a partition; throws PartitionError when the rules are violated.
  static Partition build(const xml::Schema& schema, PartitionAnnotations annotations);

 private:
  const xml::Schema* schema_ = nullptr;
  DynamicConvention convention_;
  std::vector<OrderedNode> ordered_;
  std::vector<AttributeRootInfo> roots_;
  /// schema node -> order, keyed by node pointer.
  std::unordered_map<const xml::SchemaNode*, OrderId> orders_;
  std::unordered_map<OrderId, std::size_t> root_by_order_;
  std::vector<std::vector<OrderId>> ancestors_;
};

}  // namespace hxrc::core
