// Schema model for community metadata schemas.
//
// Grid communities exchange metadata using a shared XML schema (the paper
// uses the FGDC-derived LEAD schema of Fig. 2). The catalog only needs the
// structural facts the hybrid partitioner consumes: element nesting,
// cardinality (single vs. repeatable), optionality, declared XML attributes,
// self-recursion, and leaf value types. This module models exactly that, and
// can load a compact XML schema-description format so schemas are data, not
// code.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hxrc::xml {

/// Value type of a leaf element. kNone marks interior elements.
enum class LeafType { kNone, kString, kInt, kDouble, kDate };

LeafType leaf_type_from_string(std::string_view s);

/// Declaration of an XML attribute on an element.
struct SchemaAttrDecl {
  std::string name;
  bool required = false;
};

class SchemaError : public std::runtime_error {
 public:
  explicit SchemaError(const std::string& message) : std::runtime_error(message) {}
};

/// One element declaration in the schema tree.
class SchemaNode {
 public:
  explicit SchemaNode(std::string name) : name_(std::move(name)) {}

  SchemaNode(const SchemaNode&) = delete;
  SchemaNode& operator=(const SchemaNode&) = delete;

  const std::string& name() const noexcept { return name_; }

  LeafType leaf_type() const noexcept { return leaf_type_; }
  SchemaNode& set_leaf_type(LeafType type) noexcept {
    leaf_type_ = type;
    return *this;
  }
  bool is_leaf() const noexcept { return children_.empty(); }

  /// maxOccurs = unbounded.
  bool repeatable() const noexcept { return repeatable_; }
  SchemaNode& set_repeatable(bool value) noexcept {
    repeatable_ = value;
    return *this;
  }

  /// minOccurs = 0.
  bool optional() const noexcept { return optional_; }
  SchemaNode& set_optional(bool value) noexcept {
    optional_ = value;
    return *this;
  }

  /// The element may contain instances of itself (e.g. LEAD's attr/attr).
  bool recursive() const noexcept { return recursive_; }
  SchemaNode& set_recursive(bool value) noexcept {
    recursive_ = value;
    return *this;
  }

  const std::vector<SchemaAttrDecl>& xml_attributes() const noexcept {
    return xml_attributes_;
  }
  SchemaNode& declare_xml_attribute(std::string name, bool required = false) {
    xml_attributes_.push_back(SchemaAttrDecl{std::move(name), required});
    return *this;
  }

  const std::vector<std::unique_ptr<SchemaNode>>& children() const noexcept {
    return children_;
  }
  SchemaNode* parent() const noexcept { return parent_; }

  /// Adds a child declaration and returns it for fluent building.
  SchemaNode& add_child(std::string name);

  /// Child declaration by name, or nullptr.
  const SchemaNode* child(std::string_view name) const noexcept;

 private:
  std::string name_;
  LeafType leaf_type_ = LeafType::kNone;
  bool repeatable_ = false;
  bool optional_ = true;
  bool recursive_ = false;
  std::vector<SchemaAttrDecl> xml_attributes_;
  std::vector<std::unique_ptr<SchemaNode>> children_;
  SchemaNode* parent_ = nullptr;
};

/// A community metadata schema: a tree of element declarations.
class Schema {
 public:
  explicit Schema(std::string root_name)
      : root_(std::make_unique<SchemaNode>(std::move(root_name))) {}

  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  const SchemaNode& root() const noexcept { return *root_; }
  SchemaNode& root() noexcept { return *root_; }

  /// Node at a slash-separated path from (and excluding) the root, e.g.
  /// "data/idinfo/keywords/theme". Empty path returns the root.
  const SchemaNode* find(std::string_view path) const noexcept;

  /// Total number of element declarations.
  std::size_t node_count() const noexcept;

 private:
  std::unique_ptr<SchemaNode> root_;
};

/// Loads a schema from the compact XML description format:
///
///   <schema root="LEADresource">
///     <element name="resourceID" type="string" minOccurs="0"/>
///     <element name="data">
///       <element name="theme" maxOccurs="unbounded"> ... </element>
///       <element name="attr" maxOccurs="unbounded" recursive="true">
///         <attribute name="unit" use="optional"/>
///         ...
///       </element>
///     </element>
///   </schema>
///
/// Throws SchemaError / ParseError on malformed input.
Schema load_schema(std::string_view xml_text);


}  // namespace hxrc::xml
