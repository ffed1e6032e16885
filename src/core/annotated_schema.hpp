// Annotated schemas: the framework the paper's §7 proposes.
//
// "The approach used in myLEAD can be used to create a framework for
//  metadata catalogs that would be based on an annotated schema to indicate
//  which schema elements are structural or dynamic metadata attributes and
//  elements."
//
// This module extends the compact schema-description format with partition
// annotations carried directly on the element declarations, so a whole
// catalog is configured from one document:
//
//   <schema root="LEADresource">
//     <element name="resourceID" type="string" metadata="attribute"/>
//     <element name="data">
//       ...
//       <element name="theme" maxOccurs="unbounded" metadata="attribute"/>
//       <element name="detailed" maxOccurs="unbounded" metadata="dynamic"
//                queryable="true"/>
//       ...
//     </element>
//     <convention item="attr" itemName="attrlabl" itemSource="attrdefs"
//                 itemValue="attrv" container="enttyp" name="enttypl"
//                 source="enttypds"/>
//   </schema>
//
// metadata="attribute"  marks a structural metadata attribute root;
// metadata="dynamic"    marks a dynamic attribute root;
// queryable="false"     keeps an attribute CLOB-only (§2);
// <convention .../>     overrides the dynamic-attribute conventions.
#pragma once

#include <string>
#include <string_view>

#include "core/partition.hpp"
#include "xml/schema.hpp"

namespace hxrc::core {

struct AnnotatedSchema {
  xml::Schema schema;
  PartitionAnnotations annotations;
};

/// Parses an annotated schema description; throws xml::SchemaError /
/// xml::ParseError on malformed input. The returned annotations are NOT yet
/// validated against the §2 rules — Partition::build does that.
AnnotatedSchema load_annotated_schema(std::string_view xml_text);

}  // namespace hxrc::core
