// The §7 annotated-schema framework: one document configures schema,
// partition annotations, and dynamic conventions.
#include <gtest/gtest.h>

#include "core/annotated_schema.hpp"
#include "core/catalog.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace hxrc::core {
namespace {

const char* kAnnotated = R"(
<schema root="res">
  <element name="id" type="string" metadata="attribute"/>
  <element name="data">
    <element name="tag" maxOccurs="unbounded" metadata="attribute">
      <element name="word" type="string" maxOccurs="unbounded"/>
    </element>
    <element name="params" maxOccurs="unbounded" metadata="dynamic">
      <element name="enttyp">
        <element name="enttypl" type="string"/>
        <element name="enttypds" type="string"/>
      </element>
      <element name="attr" maxOccurs="unbounded" recursive="true">
        <element name="attrlabl" type="string"/>
        <element name="attrdefs" type="string"/>
        <element name="attrv" type="string"/>
      </element>
    </element>
    <element name="internal" metadata="attribute" queryable="false">
      <element name="note" type="string"/>
    </element>
  </element>
</schema>)";

TEST(AnnotatedSchema, LoadsAnnotationsAndStructure) {
  const AnnotatedSchema loaded = load_annotated_schema(kAnnotated);
  EXPECT_EQ(loaded.schema.root().name(), "res");
  ASSERT_EQ(loaded.annotations.attributes.size(), 4u);
  EXPECT_EQ(loaded.annotations.attributes[0].path, "id");
  EXPECT_FALSE(loaded.annotations.attributes[0].dynamic);
  EXPECT_EQ(loaded.annotations.attributes[2].path, "data/params");
  EXPECT_TRUE(loaded.annotations.attributes[2].dynamic);
  EXPECT_FALSE(loaded.annotations.attributes[3].queryable);
}

TEST(AnnotatedSchema, AnnotationsSatisfyPartitionRules) {
  const AnnotatedSchema loaded = load_annotated_schema(kAnnotated);
  EXPECT_NO_THROW(Partition::build(loaded.schema, loaded.annotations));
}

TEST(AnnotatedSchema, DrivesAWorkingCatalog) {
  const AnnotatedSchema loaded = load_annotated_schema(kAnnotated);
  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  MetadataCatalog catalog(loaded.schema, loaded.annotations, config);

  const ObjectId id = catalog.ingest_xml(
      "<res><id>r1</id><data>"
      "<tag><word>storm</word><word>severe</word></tag>"
      "<params><enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>"
      "<attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000</attrv></attr>"
      "</params>"
      "<internal><note>secret</note></internal>"
      "</data></res>",
      "r1", "alice");

  ObjectQuery by_tag;
  AttrQuery tag("tag");
  tag.add_element("word", rel::Value("storm"), CompareOp::kEq);
  by_tag.add_attribute(std::move(tag));
  EXPECT_EQ(catalog.query(by_tag), std::vector<ObjectId>{id});

  ObjectQuery by_param = workload::dynamic_param_query("grid", "ARPS", "dx", 1000.0);
  EXPECT_EQ(catalog.query(by_param), std::vector<ObjectId>{id});

  // The non-queryable attribute stays CLOB-only...
  ObjectQuery internal;
  AttrQuery internal_attr("internal");
  internal_attr.add_element("note", rel::Value("secret"), CompareOp::kEq);
  internal.add_attribute(std::move(internal_attr));
  EXPECT_TRUE(catalog.query(internal).empty());

  // ...but is still returned in responses.
  const xml::Document doc = catalog.fetch(id);
  EXPECT_EQ(xml::select(*doc.root, "data/internal/note")[0]->text_content(), "secret");
}

TEST(AnnotatedSchema, ConventionOverride) {
  const AnnotatedSchema loaded = load_annotated_schema(R"(
    <schema root="r">
      <element name="dyn" maxOccurs="unbounded" metadata="dynamic">
        <element name="head"><element name="n" type="string"/>
          <element name="s" type="string"/></element>
        <element name="p" maxOccurs="unbounded" recursive="true">
          <element name="k" type="string"/>
          <element name="src" type="string"/>
          <element name="v" type="string"/>
        </element>
      </element>
      <convention container="head" name="n" source="s" item="p" itemName="k"
                  itemSource="src" itemValue="v"/>
    </schema>)");
  EXPECT_EQ(loaded.annotations.convention.def_container, "head");
  EXPECT_EQ(loaded.annotations.convention.item_value, "v");

  CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  MetadataCatalog catalog(loaded.schema, loaded.annotations, config);
  const ObjectId id = catalog.ingest_xml(
      "<r><dyn><head><n>grid</n><s>ARPS</s></head>"
      "<p><k>dx</k><src>ARPS</src><v>42</v></p></dyn></r>",
      "r1", "u");
  EXPECT_EQ(catalog.query(workload::dynamic_param_query("grid", "ARPS", "dx", 42.0)),
            std::vector<ObjectId>{id});
}

TEST(AnnotatedSchema, RejectsBadAnnotation) {
  EXPECT_THROW(load_annotated_schema(
                   R"(<schema root="r"><element name="x" metadata="bogus"/></schema>)"),
               xml::SchemaError);
}

}  // namespace
}  // namespace hxrc::core
