#include <gtest/gtest.h>

#include "workload/lead_schema.hpp"
#include "xml/schema.hpp"

namespace hxrc::xml {
namespace {

TEST(SchemaModel, FluentBuilding) {
  Schema schema("root");
  auto& child = schema.root().add_child("child");
  child.set_repeatable(true).set_leaf_type(LeafType::kInt);
  EXPECT_EQ(schema.root().name(), "root");
  EXPECT_EQ(schema.node_count(), 2u);
  EXPECT_TRUE(child.repeatable());
  EXPECT_TRUE(child.is_leaf());
  EXPECT_EQ(child.parent(), &schema.root());
}

TEST(SchemaModel, DuplicateChildThrows) {
  Schema schema("root");
  schema.root().add_child("x");
  EXPECT_THROW(schema.root().add_child("x"), SchemaError);
}

TEST(SchemaModel, FindByPath) {
  Schema schema("r");
  schema.root().add_child("a").add_child("b").add_child("c");
  EXPECT_NE(schema.find("a/b/c"), nullptr);
  EXPECT_EQ(schema.find("a/b/c")->name(), "c");
  EXPECT_EQ(schema.find("a/nope"), nullptr);
  EXPECT_EQ(schema.find(""), &schema.root());
}

TEST(SchemaLoader, LoadsCompactFormat) {
  const Schema schema = load_schema(R"(
    <schema root="res">
      <element name="id" type="string" minOccurs="0"/>
      <element name="data" minOccurs="1">
        <element name="item" maxOccurs="unbounded" recursive="true">
          <attribute name="unit" use="optional"/>
          <element name="value" type="double"/>
        </element>
      </element>
    </schema>)");
  EXPECT_EQ(schema.root().name(), "res");
  const SchemaNode* item = schema.find("data/item");
  ASSERT_NE(item, nullptr);
  EXPECT_TRUE(item->repeatable());
  EXPECT_TRUE(item->recursive());
  ASSERT_EQ(item->xml_attributes().size(), 1u);
  EXPECT_EQ(item->xml_attributes()[0].name, "unit");
  EXPECT_FALSE(item->xml_attributes()[0].required);
  const SchemaNode* value = schema.find("data/item/value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->leaf_type(), LeafType::kDouble);
  const SchemaNode* data = schema.find("data");
  EXPECT_FALSE(data->optional());
}

TEST(SchemaLoader, LeafWithoutTypeDefaultsToString) {
  const Schema schema = load_schema(R"(<schema root="r"><element name="x"/></schema>)");
  EXPECT_EQ(schema.find("x")->leaf_type(), LeafType::kString);
}

TEST(SchemaLoader, RejectsBadInput) {
  EXPECT_THROW(load_schema("<nope/>"), SchemaError);
  EXPECT_THROW(load_schema("<schema/>"), SchemaError);
  EXPECT_THROW(load_schema(R"(<schema root="r"><element/></schema>)"), SchemaError);
  EXPECT_THROW(load_schema(R"(<schema root="r"><bogus name="x"/></schema>)"), SchemaError);
  EXPECT_THROW(
      load_schema(R"(<schema root="r"><element name="x" type="float"/></schema>)"),
      SchemaError);
}

TEST(SchemaLoader, LoadsLeadShapedDescription) {
  // The Fig. 2 nesting that matters to the partitioner: a repeatable theme
  // below three ancestors and a recursive, repeatable dynamic item.
  const Schema loaded = load_schema(R"(
    <schema root="LEADresource">
      <element name="resourceID" type="string" minOccurs="1"/>
      <element name="data" minOccurs="1">
        <element name="idinfo" minOccurs="1">
          <element name="keywords" minOccurs="0">
            <element name="theme" maxOccurs="unbounded" minOccurs="0">
              <element name="themekt" type="string" minOccurs="1"/>
              <element name="themekey" type="string" maxOccurs="unbounded" minOccurs="1"/>
            </element>
          </element>
        </element>
        <element name="geospatial" minOccurs="0">
          <element name="eainfo" minOccurs="0">
            <element name="detailed" maxOccurs="unbounded" minOccurs="0">
              <element name="attr" maxOccurs="unbounded" minOccurs="0" recursive="true">
                <element name="attrlabl" type="string" minOccurs="1"/>
                <element name="attrv" type="string" minOccurs="0"/>
              </element>
            </element>
          </element>
        </element>
      </element>
    </schema>)");
  EXPECT_EQ(loaded.node_count(), 14u);
  EXPECT_FALSE(loaded.find("resourceID")->optional());
  const SchemaNode* attr = loaded.find("data/geospatial/eainfo/detailed/attr");
  ASSERT_NE(attr, nullptr);
  EXPECT_TRUE(attr->recursive());
  EXPECT_TRUE(attr->repeatable());
  const SchemaNode* theme = loaded.find("data/idinfo/keywords/theme");
  ASSERT_NE(theme, nullptr);
  EXPECT_TRUE(theme->repeatable());
  EXPECT_EQ(theme->children().size(), 2u);
  EXPECT_EQ(loaded.find("data/idinfo/keywords/theme/themekey")->leaf_type(),
            LeafType::kString);
}

TEST(LeafTypes, StringConversions) {
  EXPECT_EQ(leaf_type_from_string("date"), LeafType::kDate);
  EXPECT_THROW(leaf_type_from_string("bogus"), SchemaError);
}

TEST(LeadSchema, HasExpectedShape) {
  const Schema schema = workload::lead_schema();
  EXPECT_EQ(schema.root().name(), "LEADresource");
  EXPECT_TRUE(schema.find("data/idinfo/keywords/theme")->repeatable());
  EXPECT_TRUE(schema.find("data/idinfo/keywords/theme/themekey")->repeatable());
  EXPECT_TRUE(schema.find("data/geospatial/eainfo/detailed")->repeatable());
  EXPECT_TRUE(schema.find("data/geospatial/eainfo/detailed/attr")->recursive());
  EXPECT_EQ(schema.find("data/idinfo/citation/pubdate")->leaf_type(), LeafType::kDate);
}

}  // namespace
}  // namespace hxrc::xml
