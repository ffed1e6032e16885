// Schema partitioning: the five §2 rules, the global ordering, and the
// ancestor inverted list.
#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "workload/lead_schema.hpp"

namespace hxrc {
namespace {

using core::AttributeAnnotation;
using core::Partition;
using core::PartitionAnnotations;
using core::PartitionError;

TEST(Partition, LeadAnnotationsSatisfyRules) {
  const xml::Schema schema = workload::lead_schema();
  const auto diagnostics = Partition::check_rules(schema, workload::lead_annotations());
  for (const auto& d : diagnostics) {
    ADD_FAILURE() << d.path << ": " << d.message;
  }
}

TEST(Partition, BuildsOrderedRegion) {
  const xml::Schema schema = workload::lead_schema();
  const Partition partition = Partition::build(schema, workload::lead_annotations());

  // Root is order 0 and an ancestor.
  const auto& ordered = partition.ordered_nodes();
  ASSERT_FALSE(ordered.empty());
  EXPECT_EQ(ordered[0].tag, "LEADresource");
  EXPECT_EQ(ordered[0].order, 0);
  EXPECT_FALSE(ordered[0].is_attribute_root);
  // Root's last child is the maximum order.
  EXPECT_EQ(ordered[0].last_child, static_cast<core::OrderId>(ordered.size() - 1));

  // Orders are dense pre-order ids.
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].order, static_cast<core::OrderId>(i));
    if (ordered[i].parent != core::kNoOrder) {
      EXPECT_LT(ordered[i].parent, ordered[i].order);
    }
    EXPECT_GE(ordered[i].last_child, ordered[i].order);
  }

  // Attribute roots close immediately (last_child == own order, §2).
  for (const auto& root : partition.attribute_roots()) {
    EXPECT_EQ(ordered[static_cast<std::size_t>(root.order)].last_child, root.order)
        << root.path;
  }

  // 14 annotated attribute roots.
  EXPECT_EQ(partition.attribute_roots().size(), 14u);
}

TEST(Partition, OrderingStopsAtAttributeRoots) {
  const xml::Schema schema = workload::lead_schema();
  const Partition partition = Partition::build(schema, workload::lead_annotations());

  // theme is ordered; themekt (inside the attribute) is not.
  const xml::SchemaNode* theme = schema.find("data/idinfo/keywords/theme");
  ASSERT_NE(theme, nullptr);
  EXPECT_NE(partition.order_of(*theme), core::kNoOrder);
  const xml::SchemaNode* themekt = schema.find("data/idinfo/keywords/theme/themekt");
  ASSERT_NE(themekt, nullptr);
  EXPECT_EQ(partition.order_of(*themekt), core::kNoOrder);
}

TEST(Partition, AncestorInvertedListIsNearestFirst) {
  const xml::Schema schema = workload::lead_schema();
  const Partition partition = Partition::build(schema, workload::lead_annotations());

  const xml::SchemaNode* theme = schema.find("data/idinfo/keywords/theme");
  const core::OrderId theme_order = partition.order_of(*theme);
  const auto& ancestors = partition.ancestors_of(theme_order);
  // LEADresource > data > idinfo > keywords > theme: 4 ancestors.
  ASSERT_EQ(ancestors.size(), 4u);
  EXPECT_EQ(partition.ordered_nodes()[static_cast<std::size_t>(ancestors[0])].tag,
            "keywords");
  EXPECT_EQ(partition.ordered_nodes()[static_cast<std::size_t>(ancestors[3])].tag,
            "LEADresource");
}

TEST(Partition, RolesAreAssigned) {
  const xml::Schema schema = workload::lead_schema();
  const Partition partition = Partition::build(schema, workload::lead_annotations());

  // The shredder reads a node's role from its order and root entry:
  // ancestors are ordered without a root entry, attribute roots (and
  // attribute-elements, the leaf roots) are ordered with one, and nodes
  // inside an attribute are unordered.
  const auto root_info = [&](std::string_view path) {
    const xml::SchemaNode* node = path.empty() ? &schema.root() : schema.find(path);
    EXPECT_NE(node, nullptr) << path;
    const core::OrderId order = partition.order_of(*node);
    return order == core::kNoOrder ? nullptr : partition.root_at(order);
  };
  const auto ordered = [&](std::string_view path) {
    return partition.order_of(*schema.find(path)) != core::kNoOrder;
  };

  EXPECT_NE(partition.order_of(schema.root()), core::kNoOrder);  // ancestor
  EXPECT_EQ(root_info(""), nullptr);
  EXPECT_TRUE(ordered("data/idinfo"));  // ancestor
  EXPECT_EQ(root_info("data/idinfo"), nullptr);

  const core::AttributeRootInfo* status = root_info("data/idinfo/status");
  ASSERT_NE(status, nullptr);  // attribute root
  EXPECT_EQ(status->path, "data/idinfo/status");
  EXPECT_FALSE(status->schema_node->is_leaf());

  const core::AttributeRootInfo* resource = root_info("resourceID");
  ASSERT_NE(resource, nullptr);  // attribute-element
  EXPECT_TRUE(resource->schema_node->is_leaf());

  const xml::SchemaNode* attr = schema.find("data/geospatial/eainfo/detailed/attr");
  ASSERT_NE(attr, nullptr);  // sub-attribute
  EXPECT_FALSE(ordered("data/geospatial/eainfo/detailed/attr"));
  EXPECT_FALSE(attr->is_leaf());

  const xml::SchemaNode* label =
      schema.find("data/geospatial/eainfo/detailed/attr/attrlabl");
  ASSERT_NE(label, nullptr);  // element
  EXPECT_FALSE(ordered("data/geospatial/eainfo/detailed/attr/attrlabl"));
  EXPECT_TRUE(label->is_leaf());
}

TEST(PartitionRules, UncoveredRepeatableElementIsRejected) {
  xml::Schema schema("root");
  schema.root().add_child("item").set_repeatable(true).set_leaf_type(xml::LeafType::kString);
  PartitionAnnotations annotations;  // no attribute covers "item"
  const auto diagnostics = Partition::check_rules(schema, annotations);
  EXPECT_FALSE(diagnostics.empty());
  EXPECT_THROW(Partition::build(schema, annotations), PartitionError);
}

TEST(PartitionRules, UncoveredLeafIsRejected) {
  xml::Schema schema("root");
  schema.root().add_child("group").add_child("leaf");
  PartitionAnnotations annotations;
  const auto diagnostics = Partition::check_rules(schema, annotations);
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_NE(diagnostics.front().message.find("leaf"), std::string::npos);
}

TEST(PartitionRules, NestedAttributeRootsAreRejected) {
  xml::Schema schema("root");
  auto& group = schema.root().add_child("group");
  group.add_child("inner").add_child("leaf");
  PartitionAnnotations annotations;
  annotations.attributes.push_back(AttributeAnnotation{"group", false, true});
  annotations.attributes.push_back(AttributeAnnotation{"group/inner", false, true});
  const auto diagnostics = Partition::check_rules(schema, annotations);
  EXPECT_FALSE(diagnostics.empty());
}

TEST(PartitionRules, RecursionOutsideAttributeIsRejected) {
  xml::Schema schema("root");
  auto& rec = schema.root().add_child("rec");
  rec.set_recursive(true);
  rec.add_child("leaf");
  PartitionAnnotations annotations;  // rec not annotated
  const auto diagnostics = Partition::check_rules(schema, annotations);
  EXPECT_FALSE(diagnostics.empty());
}

TEST(PartitionRules, XmlAttributeNodeOutsideAttributeIsRejected) {
  xml::Schema schema("root");
  auto& holder = schema.root().add_child("holder");
  holder.declare_xml_attribute("unit");
  holder.add_child("leaf");
  PartitionAnnotations annotations;
  const auto diagnostics = Partition::check_rules(schema, annotations);
  EXPECT_FALSE(diagnostics.empty());
}

TEST(PartitionRules, UnknownAnnotatedPathIsDiagnosed) {
  const xml::Schema schema = workload::lead_schema();
  PartitionAnnotations annotations = workload::lead_annotations();
  annotations.attributes.push_back(AttributeAnnotation{"data/nope", false, true});
  const auto diagnostics = Partition::check_rules(schema, annotations);
  ASSERT_FALSE(diagnostics.empty());
}

TEST(PartitionRules, SchemaRootCannotBeAttribute) {
  xml::Schema schema("root");
  schema.root().add_child("leaf");
  PartitionAnnotations annotations;
  annotations.attributes.push_back(AttributeAnnotation{"", false, true});
  const auto diagnostics = Partition::check_rules(schema, annotations);
  EXPECT_FALSE(diagnostics.empty());
}

}  // namespace
}  // namespace hxrc
