#include <gtest/gtest.h>

#include "workload/namelist.hpp"
#include "xml/writer.hpp"

namespace hxrc::workload {
namespace {

const char* kArps = R"(
! ARPS grid configuration
&grid
  dx = 1000.0,
  dz = 500.0,
  nx = 67, ny = 67          ! two values on one line? no - one entry
  runname = 'may20-supercell',
  grid_stretching%dzmin = 100.0,
  grid_stretching%strhopt = 2,
/
&microphysics
  mphyopt = 2,
  hail_density = 913.0,
/
)";

TEST(Namelist, ParsesGroupsAndEntries) {
  // Note: "nx = 67, ny = 67" is a single entry with values {67, ny = 67}? No:
  // the namelist grammar here treats a line as one key; keep keys on their
  // own lines in real inputs. This input exercises multi-value parsing.
  const auto groups = parse_namelist("&g\n a = 1, 2, 3,\n b = 'x y', 'z',\n/\n");
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].name, "g");
  ASSERT_EQ(groups[0].entries.size(), 2u);
  EXPECT_EQ(groups[0].entries[0].values,
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(groups[0].entries[1].values, (std::vector<std::string>{"x y", "z"}));
}

TEST(Namelist, ParsesArpsStyleFile) {
  const auto groups = parse_namelist(kArps);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].name, "grid");
  EXPECT_EQ(groups[1].name, "microphysics");

  const auto& grid = groups[0];
  EXPECT_EQ(grid.entries[0].key, "dx");
  EXPECT_EQ(grid.entries[0].values[0], "1000.0");
  // Quoted strings keep spaces, lose quotes.
  bool found_runname = false;
  for (const auto& entry : grid.entries) {
    if (entry.key == "runname") {
      EXPECT_EQ(entry.values[0], "may20-supercell");
      found_runname = true;
    }
  }
  EXPECT_TRUE(found_runname);
}

TEST(Namelist, CommentsAreStripped) {
  const auto groups = parse_namelist("&g\n a = 5, ! trailing comment\n/\n");
  EXPECT_EQ(groups[0].entries[0].values[0], "5");
  // '!' inside quotes is literal.
  const auto quoted = parse_namelist("&g\n a = 'hi!there',\n/\n");
  EXPECT_EQ(quoted[0].entries[0].values[0], "hi!there");
}

TEST(Namelist, Errors) {
  EXPECT_THROW(parse_namelist("a = 1\n"), NamelistError);
  EXPECT_THROW(parse_namelist("&g\n a = 1\n"), NamelistError);  // unterminated
  EXPECT_THROW(parse_namelist("&g\n&h\n/\n"), NamelistError);   // nested
  EXPECT_THROW(parse_namelist("&g\n justakey\n/\n"), NamelistError);
  EXPECT_THROW(parse_namelist("/\n"), NamelistError);
  EXPECT_THROW(parse_namelist("&g\n a = 'unterminated\n/\n"), NamelistError);
}

TEST(Namelist, ConvertsToDetailedElement) {
  const auto groups = parse_namelist(
      "&grid\n dx = 1000.0,\n grid_stretching%dzmin = 100.0,\n/\n");
  const xml::NodePtr detailed = namelist_group_to_detailed(groups[0], "ARPS");

  EXPECT_EQ(detailed->name(), "detailed");
  const xml::Node* enttyp = detailed->first_child("enttyp");
  ASSERT_NE(enttyp, nullptr);
  EXPECT_EQ(enttyp->child_text("enttypl"), "grid");
  EXPECT_EQ(enttyp->child_text("enttypds"), "ARPS");

  // dx is a scalar element item.
  const auto items = detailed->children_named("attr");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0]->child_text("attrlabl"), "dx");
  EXPECT_EQ(items[0]->child_text("attrv"), "1000.0");
  EXPECT_EQ(items[0]->child_text("attrdefs"), "ARPS");

  // grid_stretching is a nested sub-attribute item.
  EXPECT_EQ(items[1]->child_text("attrlabl"), "grid_stretching");
  const auto nested = items[1]->children_named("attr");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0]->child_text("attrlabl"), "dzmin");
  EXPECT_EQ(nested[0]->child_text("attrv"), "100.0");
}

TEST(Namelist, DeepDerivedTypeNesting) {
  const auto groups = parse_namelist("&g\n a%b%c = 7,\n/\n");
  const xml::NodePtr detailed = namelist_group_to_detailed(groups[0], "WRF");
  const xml::Node* a = detailed->children_named("attr")[0];
  EXPECT_EQ(a->child_text("attrlabl"), "a");
  const xml::Node* b = a->children_named("attr")[0];
  EXPECT_EQ(b->child_text("attrlabl"), "b");
  const xml::Node* c = b->children_named("attr")[0];
  EXPECT_EQ(c->child_text("attrlabl"), "c");
  EXPECT_EQ(c->child_text("attrv"), "7");
}

}  // namespace
}  // namespace hxrc::workload
