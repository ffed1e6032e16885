#include "core/browse.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/catalog.hpp"
#include "core/storage.hpp"

namespace hxrc::core {

std::vector<AttributeSummary> CatalogBrowser::attributes(const std::string& user) const {
  const MetadataCatalog::ReadGuard guard(catalog_);
  const rel::Table& instances = catalog_.database().require_table(kAttrInstancesTable);

  // Instance counts per definition, one scan over the snapshot-visible rows.
  std::unordered_map<AttrDefId, std::size_t> counts;
  const std::size_t attr_col = instances.schema().require("attr_id");
  const std::size_t visible = guard->view.visible_rows(instances);
  for (std::size_t i = 0; i < visible; ++i) {
    ++counts[instances.row_unchecked(i)[attr_col].as_int()];
  }

  std::vector<AttributeSummary> out;
  const std::size_t definitions = catalog_.registry().attribute_count(&guard->view);
  for (AttrDefId id = 0; static_cast<std::size_t>(id) < definitions; ++id) {
    const AttributeDef def = catalog_.registry().attribute(id);
    if (def.visibility == Visibility::kUser && def.owner != user) continue;
    AttributeSummary summary;
    summary.id = def.id;
    summary.name = def.name;
    summary.source = def.source;
    summary.kind = def.kind;
    summary.parent = def.parent;
    const auto it = counts.find(def.id);
    summary.instances = it == counts.end() ? 0 : it->second;
    out.push_back(std::move(summary));
  }
  std::sort(out.begin(), out.end(), [](const AttributeSummary& a, const AttributeSummary& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.source < b.source;
  });
  return out;
}

}  // namespace hxrc::core
