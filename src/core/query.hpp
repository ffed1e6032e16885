// The user-facing query model: unordered queries over metadata attributes.
//
// Mirrors the paper's MyFile/MyAttr Java API (§4):
//
//   ObjectQuery q;
//   AttrQuery grid("grid", "ARPS");
//   grid.add_element("dx", "ARPS", 1000.0, CompareOp::kEq);
//   AttrQuery stretching("grid-stretching", "ARPS");
//   stretching.add_element("dzmin", "", 100.0, CompareOp::kEq);
//   grid.add_attribute(std::move(stretching));
//   q.add_attribute(std::move(grid));
//
// The query asks "which objects contain the metadata attributes of interest"
// — paths are immaterial. Sub-attribute criteria match instances at any
// nesting depth below the parent attribute instance (the inverted list in
// the storage layer makes this recursion-free, §4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rel/value.hpp"
#include "xml/matcher.hpp"  // CompareOp

namespace hxrc::core {

using xml::CompareOp;

/// One criterion on a metadata element within an attribute.
struct ElementPredicate {
  std::string name;
  /// Source for dynamic elements; "" for structural elements.
  std::string source;
  /// When true, only existence of the element is required.
  bool exists_only = false;
  CompareOp op = CompareOp::kEq;
  rel::Value value;
};

/// Criteria on one metadata attribute (possibly nested).
class AttrQuery {
 public:
  AttrQuery(std::string name, std::string source = {})
      : name_(std::move(name)), source_(std::move(source)) {}

  AttrQuery& add_element(std::string name, std::string source, rel::Value value,
                         CompareOp op = CompareOp::kEq) {
    elements_.push_back(ElementPredicate{std::move(name), std::move(source), false, op,
                                         std::move(value)});
    return *this;
  }

  /// Structural-element overload (no source).
  AttrQuery& add_element(std::string name, rel::Value value,
                         CompareOp op = CompareOp::kEq) {
    return add_element(std::move(name), {}, std::move(value), op);
  }

  /// Existence-only criterion.
  AttrQuery& require_element(std::string name, std::string source = {}) {
    elements_.push_back(
        ElementPredicate{std::move(name), std::move(source), true, CompareOp::kEq, {}});
    return *this;
  }

  AttrQuery& add_attribute(AttrQuery sub) {
    sub_attributes_.push_back(std::move(sub));
    return *this;
  }

  const std::string& name() const noexcept { return name_; }
  const std::string& source() const noexcept { return source_; }
  const std::vector<ElementPredicate>& elements() const noexcept { return elements_; }
  const std::vector<AttrQuery>& sub_attributes() const noexcept { return sub_attributes_; }

 private:
  std::string name_;
  std::string source_;
  std::vector<ElementPredicate> elements_;
  std::vector<AttrQuery> sub_attributes_;
};

/// A full object query: conjunction of top-level attribute criteria.
class ObjectQuery {
 public:
  ObjectQuery& add_attribute(AttrQuery attr) {
    attributes_.push_back(std::move(attr));
    return *this;
  }

  /// The querying user; grants visibility of that user's private dynamic
  /// definitions (§3).
  ObjectQuery& set_user(std::string user) {
    user_ = std::move(user);
    return *this;
  }

  /// Page size for paginated execution (ReadGuard::query_paged and
  /// the wire protocol's `limit` attribute); 0 = unlimited.
  ObjectQuery& set_limit(std::size_t limit) {
    limit_ = limit;
    return *this;
  }

  /// Opaque continuation cursor from a previous page's `next_cursor`.
  /// Cursors carry the catalog version they were issued at and go stale on
  /// any mutation (StaleCursorError / code="stale_cursor").
  ObjectQuery& set_cursor(std::string cursor) {
    cursor_ = std::move(cursor);
    return *this;
  }

  const std::vector<AttrQuery>& attributes() const noexcept { return attributes_; }
  const std::string& user() const noexcept { return user_; }
  std::size_t limit() const noexcept { return limit_; }
  const std::string& cursor() const noexcept { return cursor_; }

 private:
  std::vector<AttrQuery> attributes_;
  std::string user_;
  std::size_t limit_ = 0;
  std::string cursor_;
};

}  // namespace hxrc::core
