#include "workload/lead_schema.hpp"

#include "xml/schema.hpp"

namespace hxrc::workload {

using xml::LeafType;
using xml::Schema;
using xml::SchemaNode;

Schema lead_schema() {
  Schema schema("LEADresource");
  SchemaNode& root = schema.root();
  root.set_optional(false);

  root.add_child("resourceID").set_leaf_type(LeafType::kString);

  SchemaNode& data = root.add_child("data");
  data.set_optional(false);

  // ---- identification information ----
  SchemaNode& idinfo = data.add_child("idinfo");

  SchemaNode& citation = idinfo.add_child("citation");
  citation.add_child("origin").set_leaf_type(LeafType::kString);
  citation.add_child("pubdate").set_leaf_type(LeafType::kDate);
  citation.add_child("title").set_leaf_type(LeafType::kString);

  SchemaNode& status = idinfo.add_child("status");
  status.add_child("progress").set_leaf_type(LeafType::kString);
  status.add_child("update").set_leaf_type(LeafType::kString);

  idinfo.add_child("timeperd").set_leaf_type(LeafType::kString);

  SchemaNode& keywords = idinfo.add_child("keywords");
  SchemaNode& theme = keywords.add_child("theme");
  theme.set_repeatable(true);
  theme.add_child("themekt").set_leaf_type(LeafType::kString);
  theme.add_child("themekey").set_leaf_type(LeafType::kString).set_repeatable(true);
  SchemaNode& place = keywords.add_child("place");
  place.add_child("placekt").set_leaf_type(LeafType::kString);
  place.add_child("placekey").set_leaf_type(LeafType::kString).set_repeatable(true);
  SchemaNode& stratum = keywords.add_child("stratum");
  stratum.add_child("stratkt").set_leaf_type(LeafType::kString);
  stratum.add_child("stratkey").set_leaf_type(LeafType::kString).set_repeatable(true);
  SchemaNode& temporal = keywords.add_child("temporal");
  temporal.add_child("tempkt").set_leaf_type(LeafType::kString);
  temporal.add_child("tempkey").set_leaf_type(LeafType::kString).set_repeatable(true);

  idinfo.add_child("accconst").set_leaf_type(LeafType::kString);
  idinfo.add_child("useconst").set_leaf_type(LeafType::kString);

  // ---- geospatial information ----
  SchemaNode& geospatial = data.add_child("geospatial");

  SchemaNode& spdom = geospatial.add_child("spdom");
  spdom.add_child("bounding").set_leaf_type(LeafType::kString);
  spdom.add_child("dsgpoly").set_leaf_type(LeafType::kString);
  spdom.add_child("spattemp").set_leaf_type(LeafType::kString);
  geospatial.add_child("vertdom").set_leaf_type(LeafType::kString);

  SchemaNode& eainfo = geospatial.add_child("eainfo");

  SchemaNode& detailed = eainfo.add_child("detailed");
  detailed.set_repeatable(true);
  SchemaNode& enttyp = detailed.add_child("enttyp");
  enttyp.add_child("enttypl").set_leaf_type(LeafType::kString);
  enttyp.add_child("enttypds").set_leaf_type(LeafType::kString);
  enttyp.add_child("enttypd").set_leaf_type(LeafType::kString);
  SchemaNode& attr = detailed.add_child("attr");
  attr.set_repeatable(true).set_recursive(true);
  attr.add_child("attrlabl").set_leaf_type(LeafType::kString);
  attr.add_child("attrdef").set_leaf_type(LeafType::kString);
  attr.add_child("attrdefs").set_leaf_type(LeafType::kString);
  attr.add_child("attrdomv").set_leaf_type(LeafType::kString);
  attr.add_child("attrv").set_leaf_type(LeafType::kString);

  SchemaNode& overview = eainfo.add_child("overview");
  overview.set_repeatable(true);
  overview.add_child("eaover").set_leaf_type(LeafType::kString);
  overview.add_child("eadetcit").set_leaf_type(LeafType::kString);

  return schema;
}

core::PartitionAnnotations lead_annotations() {
  core::PartitionAnnotations annotations;
  auto add = [&](std::string path, bool dynamic = false) {
    annotations.attributes.push_back(core::AttributeAnnotation{std::move(path), dynamic, true});
  };
  add("resourceID");
  add("data/idinfo/citation");
  add("data/idinfo/status");
  add("data/idinfo/timeperd");
  add("data/idinfo/keywords/theme");
  add("data/idinfo/keywords/place");
  add("data/idinfo/keywords/stratum");
  add("data/idinfo/keywords/temporal");
  add("data/idinfo/accconst");
  add("data/idinfo/useconst");
  add("data/geospatial/spdom");
  add("data/geospatial/vertdom");
  add("data/geospatial/eainfo/detailed", /*dynamic=*/true);
  add("data/geospatial/eainfo/overview");
  // annotations.convention defaults already match LEAD (enttyp/attr...).
  return annotations;
}

std::string fig3_document() {
  return R"(<LEADresource>
  <resourceID>arps-run-42</resourceID>
  <data>
    <idinfo>
      <keywords>
        <theme>
          <themekt>CF NetCDF</themekt>
          <themekey>convective_precipitation_amount</themekey>
          <themekey>convective_precipitation_flux</themekey>
        </theme>
        <theme>
          <themekt>CF NetCDF</themekt>
          <themekey>air_pressure_at_cloud_base</themekey>
          <themekey>air_pressure_at_cloud_top</themekey>
        </theme>
      </keywords>
    </idinfo>
    <geospatial>
      <eainfo>
        <detailed>
          <enttyp>
            <enttypl>grid</enttypl>
            <enttypds>ARPS</enttypds>
          </enttyp>
          <attr>
            <attrlabl>grid-stretching</attrlabl>
            <attrdefs>ARPS</attrdefs>
            <attr>
              <attrlabl>dzmin</attrlabl>
              <attrdefs>ARPS</attrdefs>
              <attrv>100.000</attrv>
            </attr>
            <attr>
              <attrlabl>reference-height</attrlabl>
              <attrdefs>ARPS</attrdefs>
              <attrv>0</attrv>
            </attr>
          </attr>
          <attr>
            <attrlabl>dx</attrlabl>
            <attrdefs>ARPS</attrdefs>
            <attrv>1000.000</attrv>
          </attr>
          <attr>
            <attrlabl>dz</attrlabl>
            <attrdefs>ARPS</attrdefs>
            <attrv>500.000</attrv>
          </attr>
        </detailed>
      </eainfo>
    </geospatial>
  </data>
</LEADresource>)";
}

}  // namespace hxrc::workload
