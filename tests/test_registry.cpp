#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/storage.hpp"
#include "util/prng.hpp"
#include "workload/lead_schema.hpp"

namespace hxrc::core {
namespace {

rel::Database& with_storage(rel::Database& db) {
  install_storage(db);
  return db;
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : schema_(workload::lead_schema()),
        partition_(Partition::build(schema_, workload::lead_annotations())),
        registry_(with_storage(db_), partition_) {}

  xml::Schema schema_;
  Partition partition_;
  rel::Database db_;
  DefinitionRegistry registry_;
};

TEST_F(RegistryTest, InstallsStructuralAttributeDefinitions) {
  const auto theme = registry_.find_attribute("theme", "", kNoAttr);
  ASSERT_TRUE(theme.has_value());
  EXPECT_EQ(theme->kind, AttrKind::kStructural);
  EXPECT_NE(theme->schema_order, kNoOrder);

  // Elements under theme.
  const auto themekt = registry_.find_element("themekt", "", theme->id);
  ASSERT_TRUE(themekt.has_value());
  EXPECT_EQ(themekt->attribute, theme->id);
  EXPECT_TRUE(registry_.find_element("themekey", "", theme->id).has_value());
}

TEST_F(RegistryTest, AttributeElementGetsSelfNamedElement) {
  const auto rid = registry_.find_attribute("resourceID", "", kNoAttr);
  ASSERT_TRUE(rid.has_value());
  EXPECT_TRUE(registry_.find_element("resourceID", "", rid->id).has_value());
}

TEST_F(RegistryTest, DynamicRootHasNoStructuralDefinitions) {
  // "detailed" is dynamic: neither it nor its enttyp/attr structure is
  // registered structurally — its identity comes from document values (§3).
  EXPECT_FALSE(registry_.find_attribute("detailed", "", kNoAttr).has_value());
}

TEST_F(RegistryTest, StructuralForOrderMapsNonDynamicRoots) {
  for (const AttributeRootInfo& root : partition_.attribute_roots()) {
    const auto def = registry_.structural_for_order(root.order);
    if (root.dynamic) {
      EXPECT_FALSE(def.has_value()) << root.path;
      continue;
    }
    ASSERT_TRUE(def.has_value()) << root.path;
    EXPECT_EQ(registry_.attribute(*def).name, root.tag);
  }
  EXPECT_FALSE(registry_.structural_for_order(9999).has_value());
}

TEST_F(RegistryTest, DefineAttributeIsIdempotent) {
  const AttrDefId a = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  const AttrDefId b = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  EXPECT_EQ(a, b);
}

TEST_F(RegistryTest, NameAndSourceDisambiguateModels) {
  // §3: ARPS and WRF may define parameters with the same name.
  const AttrDefId arps = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  const AttrDefId wrf = registry_.define_attribute("grid", "WRF", AttrKind::kDynamic);
  EXPECT_NE(arps, wrf);
  EXPECT_EQ(registry_.find_attribute("grid", "ARPS", kNoAttr)->id, arps);
  EXPECT_EQ(registry_.find_attribute("grid", "WRF", kNoAttr)->id, wrf);
}

TEST_F(RegistryTest, SubAttributesAreScopedByParent) {
  const AttrDefId grid = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  const AttrDefId micro = registry_.define_attribute("microphysics", "ARPS", AttrKind::kDynamic);
  const AttrDefId sub_grid =
      registry_.define_attribute("damping", "ARPS", AttrKind::kDynamic, grid);
  const AttrDefId sub_micro =
      registry_.define_attribute("damping", "ARPS", AttrKind::kDynamic, micro);
  EXPECT_NE(sub_grid, sub_micro);
  EXPECT_EQ(registry_.find_attribute("damping", "ARPS", grid)->id, sub_grid);
}

TEST_F(RegistryTest, UserVisibilityScoping) {
  registry_.define_attribute("private-attr", "ARPS", AttrKind::kDynamic, kNoAttr, kNoOrder,
                             Visibility::kUser, "alice");
  EXPECT_FALSE(registry_.find_attribute("private-attr", "ARPS", kNoAttr).has_value());
  EXPECT_FALSE(registry_.find_attribute("private-attr", "ARPS", kNoAttr, "bob").has_value());
  const auto def = registry_.find_attribute("private-attr", "ARPS", kNoAttr, "alice");
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->owner, "alice");
}

TEST_F(RegistryTest, AdminDefinitionWinsOverUserDefinition) {
  registry_.define_attribute("shared", "ARPS", AttrKind::kDynamic, kNoAttr, kNoOrder,
                             Visibility::kUser, "alice");
  const AttrDefId admin = registry_.define_attribute("shared", "ARPS", AttrKind::kDynamic);
  const auto found = registry_.find_attribute("shared", "ARPS", kNoAttr, "alice");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, admin);
}

TEST_F(RegistryTest, ElementDefinitionsAreIdempotent) {
  const AttrDefId grid = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  const ElemDefId a = registry_.define_element("dx", "ARPS", grid, xml::LeafType::kDouble);
  const ElemDefId b = registry_.define_element("dx", "ARPS", grid);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry_.element(a).type, xml::LeafType::kDouble);
}

TEST_F(RegistryTest, CountsTrackDefinitions) {
  const std::size_t attrs_before = registry_.attribute_count();
  const std::size_t elems_before = registry_.element_count();
  const AttrDefId grid = registry_.define_attribute("grid", "ARPS", AttrKind::kDynamic);
  registry_.define_element("dx", "ARPS", grid);
  EXPECT_EQ(registry_.attribute_count(), attrs_before + 1);
  EXPECT_EQ(registry_.element_count(), elems_before + 1);
}

// ---- differential check against a linear scan ----

/// The registry's lookup rules restated as linear scans over the first
/// `attrs`/`elems` definitions in id order.
struct LinearRegistry {
  std::vector<AttributeDef> attributes;
  std::vector<ElementDef> elements;

  std::optional<AttrDefId> find_attribute(std::size_t attrs, const std::string& name,
                                          const std::string& source, AttrDefId parent,
                                          const std::string& user) const {
    std::optional<AttrDefId> user_match;
    for (std::size_t i = 0; i < attrs; ++i) {
      const AttributeDef& def = attributes[i];
      if (def.name != name || def.source != source || def.parent != parent) continue;
      if (def.visibility == Visibility::kAdmin) return def.id;
      if (!user.empty() && def.owner == user) user_match = def.id;
    }
    return user_match;
  }

  std::optional<AttrDefId> find_attribute_any_source(std::size_t attrs,
                                                     const std::string& name,
                                                     AttrDefId parent,
                                                     const std::string& user) const {
    std::optional<AttrDefId> unique;
    for (std::size_t i = 0; i < attrs; ++i) {
      const AttributeDef& def = attributes[i];
      if (def.name != name || def.parent != parent) continue;
      if (def.visibility == Visibility::kUser && def.owner != user) continue;
      if (unique) return std::nullopt;
      unique = def.id;
    }
    return unique;
  }

  std::optional<ElemDefId> find_element(std::size_t elems, const std::string& name,
                                        const std::string& source, AttrDefId attribute) const {
    for (std::size_t i = 0; i < elems; ++i) {
      const ElementDef& def = elements[i];
      if (def.name == name && def.source == source && def.attribute == attribute) {
        return def.id;
      }
    }
    return std::nullopt;
  }

  std::optional<ElemDefId> find_element_any_source(std::size_t elems, const std::string& name,
                                                   AttrDefId attribute) const {
    std::optional<ElemDefId> unique;
    for (std::size_t i = 0; i < elems; ++i) {
      const ElementDef& def = elements[i];
      if (def.name != name || def.attribute != attribute) continue;
      if (unique) return std::nullopt;
      unique = def.id;
    }
    return unique;
  }

  AttrDefId define_attribute(const AttributeDef& def) {
    if (const auto existing =
            find_attribute(attributes.size(), def.name, def.source, def.parent, def.owner)) {
      const AttributeDef& found = attributes[static_cast<std::size_t>(*existing)];
      if (found.visibility == def.visibility && found.owner == def.owner) return found.id;
    }
    attributes.push_back(def);
    attributes.back().id = static_cast<AttrDefId>(attributes.size() - 1);
    return attributes.back().id;
  }

  ElemDefId define_element(const ElementDef& def) {
    if (const auto existing = find_element(elements.size(), def.name, def.source, def.attribute)) {
      return *existing;
    }
    elements.push_back(def);
    elements.back().id = static_cast<ElemDefId>(elements.size() - 1);
    return elements.back().id;
  }
};

std::optional<std::int64_t> id_of(const std::optional<AttributeDef>& def) {
  return def ? std::optional<std::int64_t>(def->id) : std::nullopt;
}
std::optional<std::int64_t> id_of(const std::optional<ElementDef>& def) {
  return def ? std::optional<std::int64_t>(def->id) : std::nullopt;
}

/// One lookup key: attribute lookups read `parent`, element lookups read it
/// as the owning attribute.
struct Probe {
  std::string name;
  std::string source;
  AttrDefId parent = kNoAttr;
};

TEST_F(RegistryTest, EveryPrefixWatermarkMatchesALinearScan) {
  LinearRegistry oracle;
  for (std::size_t i = 0; i < registry_.attribute_count(); ++i) {
    oracle.attributes.push_back(registry_.attribute(static_cast<AttrDefId>(i)));
  }
  for (std::size_t i = 0; i < registry_.element_count(); ++i) {
    oracle.elements.push_back(registry_.element(static_cast<ElemDefId>(i)));
  }
  const auto theme = registry_.find_attribute("theme", "", kNoAttr);
  ASSERT_TRUE(theme.has_value());

  struct Prefix {
    rel::ReadView view;
    std::size_t attrs = 0;
    std::size_t elems = 0;
  };
  std::vector<Prefix> prefixes;
  prefixes.push_back({rel::ReadView(db_.watermarks()), oracle.attributes.size(),
                      oracle.elements.size()});

  const std::array<const char*, 6> names = {"grid", "shared", "dx", "damping", "level",
                                            "themekey"};
  const std::array<const char*, 3> sources = {"ARPS", "WRF", ""};
  const std::array<const char*, 4> users = {"", "alice", "bob", "carol"};
  std::vector<AttrDefId> dynamic_attrs;
  util::Prng rng(20261020);
  auto pick = [&rng](const auto& pool) {
    return std::string(pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))]);
  };
  auto pick_attr = [&]() -> AttrDefId {
    if (dynamic_attrs.empty() || rng.uniform(0, 4) == 0) return theme->id;
    return dynamic_attrs[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(dynamic_attrs.size()) - 1))];
  };

  auto define_attr = [&](AttributeDef def) -> AttrDefId {
    const AttrDefId id = registry_.define_attribute(def.name, def.source, AttrKind::kDynamic,
                                                    def.parent, kNoOrder, def.visibility,
                                                    def.owner);
    def.kind = AttrKind::kDynamic;
    EXPECT_EQ(id, oracle.define_attribute(def)) << def.name << " @ " << def.source;
    dynamic_attrs.push_back(id);
    return id;
  };
  auto attr_def = [](std::string name, std::string source, AttrDefId parent,
                     Visibility visibility = Visibility::kAdmin, std::string owner = {}) {
    AttributeDef def;
    def.name = std::move(name);
    def.source = std::move(source);
    def.parent = parent;
    def.visibility = visibility;
    def.owner = std::move(owner);
    return def;
  };

  // The fixed head covers the cases the rules single out: one key defined
  // privately for two owners and at admin level, one name under two
  // sources, and sub-attributes nested three deep.
  std::vector<AttributeDef> head = {
      attr_def("shared", "ARPS", kNoAttr, Visibility::kUser, "alice"),
      attr_def("shared", "ARPS", kNoAttr, Visibility::kUser, "bob"),
      attr_def("shared", "ARPS", kNoAttr),
      attr_def("grid", "WRF", kNoAttr),
      attr_def("grid", "ARPS", kNoAttr),
  };
  constexpr int kDefines = 200;
  Probe last;
  for (int n = 0; n < kDefines; ++n) {
    if (static_cast<std::size_t>(n) < head.size()) {
      const AttributeDef& def = head[static_cast<std::size_t>(n)];
      define_attr(def);
      last = {def.name, def.source, def.parent};
    } else if (n < static_cast<int>(head.size()) + 3) {
      // grid@ARPS > level > level > level.
      const AttrDefId parent = dynamic_attrs.back();
      define_attr(attr_def("level", "ARPS", parent));
      last = {"level", "ARPS", parent};
    } else if (rng.chance(0.45)) {
      const AttrDefId parent = rng.chance(0.5) ? kNoAttr : pick_attr();
      const bool user = rng.chance(0.3);
      AttributeDef def = attr_def(pick(names), pick(sources), parent,
                                  user ? Visibility::kUser : Visibility::kAdmin,
                                  user ? pick(std::array<const char*, 2>{"alice", "bob"})
                                       : std::string{});
      last = {def.name, def.source, def.parent};
      define_attr(std::move(def));
    } else {
      ElementDef def;
      def.name = pick(names);
      def.source = pick(sources);
      def.attribute = pick_attr();
      def.type = static_cast<xml::LeafType>(rng.uniform(0, 2));
      const ElemDefId id =
          registry_.define_element(def.name, def.source, def.attribute, def.type);
      EXPECT_EQ(id, oracle.define_element(def)) << def.name << " @ " << def.source;
      last = {def.name, def.source, def.attribute};
    }
    ASSERT_EQ(registry_.attribute_count(), oracle.attributes.size());
    ASSERT_EQ(registry_.element_count(), oracle.elements.size());
    prefixes.push_back({rel::ReadView(db_.watermarks()), oracle.attributes.size(),
                        oracle.elements.size()});

    std::vector<Probe> probes = {last};
    for (int k = 0; k < 3; ++k) {
      probes.push_back({pick(names), pick(sources), rng.chance(0.3) ? kNoAttr : pick_attr()});
    }
    for (const Prefix& prefix : prefixes) {
      const rel::ReadView* view = &prefix.view;
      ASSERT_EQ(registry_.attribute_count(view), prefix.attrs);
      ASSERT_EQ(registry_.element_count(view), prefix.elems);
      for (const Probe& p : probes) {
        for (const std::string user : users) {
          EXPECT_EQ(id_of(registry_.find_attribute(p.name, p.source, p.parent, user, view)),
                    oracle.find_attribute(prefix.attrs, p.name, p.source, p.parent, user))
              << "define " << n << " prefix " << prefix.attrs << " " << p.name << " @ "
              << p.source << " parent " << p.parent << " user " << user;
          EXPECT_EQ(id_of(registry_.find_attribute_any_source(p.name, p.parent, user, view)),
                    oracle.find_attribute_any_source(prefix.attrs, p.name, p.parent, user))
              << "define " << n << " prefix " << prefix.attrs << " " << p.name;
        }
        EXPECT_EQ(id_of(registry_.find_element(p.name, p.source, p.parent, view)),
                  oracle.find_element(prefix.elems, p.name, p.source, p.parent))
            << "define " << n << " prefix " << prefix.elems << " " << p.name;
        EXPECT_EQ(id_of(registry_.find_element_any_source(p.name, p.parent, view)),
                  oracle.find_element_any_source(prefix.elems, p.name, p.parent))
            << "define " << n << " prefix " << prefix.elems << " " << p.name;
      }
    }
  }

  // Every definition reads back exactly as the oracle recorded it.
  for (const AttributeDef& def : oracle.attributes) {
    const AttributeDef got = registry_.attribute(def.id);
    EXPECT_EQ(got.name, def.name);
    EXPECT_EQ(got.source, def.source);
    EXPECT_EQ(got.kind, def.kind);
    EXPECT_EQ(got.parent, def.parent);
    EXPECT_EQ(got.visibility, def.visibility);
    EXPECT_EQ(got.owner, def.owner);
  }
  for (const ElementDef& def : oracle.elements) {
    const ElementDef got = registry_.element(def.id);
    EXPECT_EQ(got.name, def.name);
    EXPECT_EQ(got.source, def.source);
    EXPECT_EQ(got.attribute, def.attribute);
    EXPECT_EQ(got.type, def.type);
  }
}

}  // namespace
}  // namespace hxrc::core
