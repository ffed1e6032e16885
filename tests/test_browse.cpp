// Catalog browsing (§4 GUI support): the attribute listing with instance
// counts and per-user visibility.
#include <gtest/gtest.h>

#include "core/browse.hpp"
#include "core/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"

namespace hxrc::core {
namespace {

CatalogConfig auto_define_config() {
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

class BrowseTest : public ::testing::Test {
 protected:
  BrowseTest()
      : schema_(workload::lead_schema()),
        catalog_(schema_, workload::lead_annotations(), auto_define_config()),
        browser_(catalog_) {
    catalog_.ingest_xml(workload::fig3_document(), "fig3", "alice");
    workload::DocumentGenerator generator;
    for (std::uint64_t i = 0; i < 20; ++i) {
      catalog_.ingest(generator.generate(i), "d", "alice");
    }
  }

  xml::Schema schema_;
  MetadataCatalog catalog_;
  CatalogBrowser browser_;
};

TEST_F(BrowseTest, AttributeListingWithInstanceCounts) {
  const auto attributes = browser_.attributes();
  ASSERT_FALSE(attributes.empty());
  // Sorted by name.
  for (std::size_t i = 1; i < attributes.size(); ++i) {
    EXPECT_LE(attributes[i - 1].name, attributes[i].name);
  }
  // theme has many instances; grid/ARPS exists and is dynamic.
  bool found_theme = false;
  bool found_grid = false;
  for (const AttributeSummary& summary : attributes) {
    if (summary.name == "theme" && summary.source.empty()) {
      EXPECT_GT(summary.instances, 10u);
      EXPECT_EQ(summary.kind, AttrKind::kStructural);
      found_theme = true;
    }
    if (summary.name == "grid" && summary.source == "ARPS") {
      EXPECT_GT(summary.instances, 0u);
      EXPECT_EQ(summary.kind, AttrKind::kDynamic);
      found_grid = true;
    }
  }
  EXPECT_TRUE(found_theme);
  EXPECT_TRUE(found_grid);
}

TEST_F(BrowseTest, PrivateDefinitionsVisibleOnlyToOwner) {
  catalog_.registry().define_attribute("secret", "qc", AttrKind::kDynamic, kNoAttr,
                                       kNoOrder, Visibility::kUser, "alice");
  catalog_.publish();  // direct registry imports need a publish to be visible
  auto has_secret = [&](const std::string& user) {
    for (const AttributeSummary& summary : browser_.attributes(user)) {
      if (summary.name == "secret") return true;
    }
    return false;
  };
  EXPECT_TRUE(has_secret("alice"));
  EXPECT_FALSE(has_secret("bob"));
  EXPECT_FALSE(has_secret(""));
}

}  // namespace
}  // namespace hxrc::core
