// Catalog browsing support (§4).
//
// "…there is a GUI query tool available that prompts the user with the
//  available attributes and elements and allows them to build a query
//  graphically."
//
// The browser answers the first question such a tool asks: which attribute
// definitions are visible to this user, with instance counts.
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/registry.hpp"

namespace hxrc::core {

class MetadataCatalog;

/// One row of the attribute listing.
struct AttributeSummary {
  AttrDefId id = kNoAttr;
  std::string name;
  std::string source;
  AttrKind kind = AttrKind::kStructural;
  AttrDefId parent = kNoAttr;
  std::size_t instances = 0;  // stored instances across all objects
};

class CatalogBrowser {
 public:
  explicit CatalogBrowser(const MetadataCatalog& catalog) : catalog_(catalog) {}

  /// Attribute definitions visible to `user` (admin + the user's private
  /// ones), with instance counts; sorted by name then source.
  std::vector<AttributeSummary> attributes(const std::string& user = {}) const;

 private:
  const MetadataCatalog& catalog_;
};

}  // namespace hxrc::core
