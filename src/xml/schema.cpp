#include "xml/schema.hpp"

#include "util/string_util.hpp"
#include "xml/parser.hpp"

namespace hxrc::xml {

LeafType leaf_type_from_string(std::string_view s) {
  if (s == "none") return LeafType::kNone;
  if (s == "string") return LeafType::kString;
  if (s == "int") return LeafType::kInt;
  if (s == "double") return LeafType::kDouble;
  if (s == "date") return LeafType::kDate;
  throw SchemaError("unknown leaf type '" + std::string(s) + "'");
}

SchemaNode& SchemaNode::add_child(std::string name) {
  if (child(name) != nullptr) {
    throw SchemaError("duplicate child declaration '" + name + "' under '" + name_ + "'");
  }
  auto node = std::make_unique<SchemaNode>(std::move(name));
  node->parent_ = this;
  children_.push_back(std::move(node));
  return *children_.back();
}

const SchemaNode* SchemaNode::child(std::string_view name) const noexcept {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

const SchemaNode* Schema::find(std::string_view path) const noexcept {
  const SchemaNode* node = root_.get();
  if (path.empty()) return node;
  for (const auto segment : util::split(path, '/')) {
    node = node->child(segment);
    if (node == nullptr) return nullptr;
  }
  return node;
}

namespace {

std::size_t count_nodes(const SchemaNode& node) {
  std::size_t count = 1;
  for (const auto& child : node.children()) count += count_nodes(*child);
  return count;
}

void load_children(const Node& decl, SchemaNode& target) {
  for (const Node* child : decl.child_elements()) {
    if (child->name() == "attribute") {
      const std::string_view* attr_name = child->attribute("name");
      if (attr_name == nullptr) throw SchemaError("<attribute> missing name");
      const std::string_view* use = child->attribute("use");
      target.declare_xml_attribute(std::string(*attr_name),
                                   use != nullptr && *use == "required");
      continue;
    }
    if (child->name() == "convention") continue;  // annotated-schema extension
    if (child->name() != "element") {
      throw SchemaError("unexpected declaration <" + std::string(child->name()) + ">");
    }
    const std::string_view* name = child->attribute("name");
    if (name == nullptr) throw SchemaError("<element> missing name");
    SchemaNode& node = target.add_child(std::string(*name));
    if (const std::string_view* type = child->attribute("type")) {
      node.set_leaf_type(leaf_type_from_string(*type));
    }
    if (const std::string_view* max_occurs = child->attribute("maxOccurs")) {
      node.set_repeatable(*max_occurs == "unbounded");
    }
    if (const std::string_view* min_occurs = child->attribute("minOccurs")) {
      node.set_optional(*min_occurs == "0");
    }
    if (const std::string_view* recursive = child->attribute("recursive")) {
      node.set_recursive(*recursive == "true");
    }
    load_children(*child, node);
    if (node.is_leaf() && node.leaf_type() == LeafType::kNone) {
      node.set_leaf_type(LeafType::kString);
    }
  }
}

}  // namespace

std::size_t Schema::node_count() const noexcept { return count_nodes(*root_); }

Schema load_schema(std::string_view xml_text) {
  Document doc = parse(xml_text);
  if (doc.root->name() != "schema") {
    throw SchemaError("expected <schema> root, found <" + std::string(doc.root->name()) +
                      ">");
  }
  const std::string_view* root_name = doc.root->attribute("root");
  if (root_name == nullptr) throw SchemaError("<schema> missing root attribute");
  Schema schema{std::string(*root_name)};
  schema.root().set_optional(false);
  load_children(*doc.root, schema.root());
  return schema;
}

}  // namespace hxrc::xml
