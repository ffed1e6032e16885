#include "core/annotated_schema.hpp"

#include "xml/dom.hpp"
#include "xml/parser.hpp"

namespace hxrc::core {

namespace {

/// Collects metadata=... annotations from the raw declaration DOM, mirroring
/// the path structure xml::load_schema builds.
void collect_annotations(const xml::Node& decl, const std::string& prefix,
                         PartitionAnnotations& annotations) {
  for (const xml::Node* child : decl.child_elements()) {
    if (child->name() != "element") continue;
    const std::string_view* name = child->attribute("name");
    if (name == nullptr) continue;  // load_schema rejects this separately
    const std::string path =
        prefix.empty() ? std::string(*name) : prefix + "/" + std::string(*name);
    if (const std::string_view* metadata = child->attribute("metadata")) {
      if (*metadata != "attribute" && *metadata != "dynamic") {
        throw xml::SchemaError("metadata annotation must be 'attribute' or 'dynamic', got '" +
                               std::string(*metadata) + "'");
      }
      AttributeAnnotation annotation;
      annotation.path = path;
      annotation.dynamic = (*metadata == "dynamic");
      if (const std::string_view* queryable = child->attribute("queryable")) {
        annotation.queryable = (*queryable != "false");
      }
      annotations.attributes.push_back(std::move(annotation));
    }
    collect_annotations(*child, path, annotations);
  }
}

void read_convention(const xml::Node& root, DynamicConvention& convention) {
  const xml::Node* decl = root.first_child("convention");
  if (decl == nullptr) return;
  const auto assign = [&](const char* attr, std::string& target) {
    if (const std::string_view* value = decl->attribute(attr)) target = *value;
  };
  assign("container", convention.def_container);
  assign("name", convention.def_name);
  assign("source", convention.def_source);
  assign("item", convention.item_tag);
  assign("itemName", convention.item_name);
  assign("itemSource", convention.item_source);
  assign("itemValue", convention.item_value);
}

}  // namespace

AnnotatedSchema load_annotated_schema(std::string_view xml_text) {
  // The structural part reuses the plain schema loader (which ignores the
  // unknown metadata/queryable attributes); the annotations come from a
  // second pass over the same DOM.
  xml::Document doc = xml::parse(xml_text);
  if (doc.root->name() != "schema") {
    throw xml::SchemaError("expected <schema> root");
  }
  AnnotatedSchema out{xml::load_schema(xml_text), PartitionAnnotations{}};
  collect_annotations(*doc.root, "", out.annotations);
  read_convention(*doc.root, out.annotations.convention);
  return out;
}

}  // namespace hxrc::core
