// The LEAD metadata schema of the paper's Fig. 2 (an FGDC-derived subset),
// built programmatically, plus the attribute-root annotations the paper's
// bolding implies.
//
// Structure (attribute roots marked *, dynamic marked †, repeatable +):
//
//   LEADresource
//     resourceID*                       (attribute-element)
//     data
//       idinfo
//         citation*   { origin, pubdate, title }
//         status*     { progress, update }
//         timeperd*                     (attribute-element)
//         keywords
//           theme*+    { themekt, themekey+ }
//           place*     { placekt, placekey+ }
//           stratum*   { stratkt, stratkey+ }
//           temporal*  { tempkt, tempkey+ }
//         accconst*                     (attribute-element)
//         useconst*                     (attribute-element)
//       geospatial
//         spdom*      { bounding, dsgpoly, spattemp }
//         vertdom*                      (attribute-element)
//         eainfo
//           detailed*+†  { enttyp { enttypl, enttypds, enttypd },
//                          attr+ (recursive) { attrlabl, attrdef, attrdefs,
//                                              attrdomv, attrv } }
//           overview*+   { eaover, eadetcit }
#pragma once

#include "core/partition.hpp"
#include "xml/schema.hpp"

namespace hxrc::workload {

/// Builds the Fig. 2 schema.
xml::Schema lead_schema();

/// The attribute-root annotation set for lead_schema().
core::PartitionAnnotations lead_annotations();

/// The Fig. 3 example document (two theme attributes, one dynamic "grid"
/// attribute with a nested "grid-stretching" sub-attribute).
std::string fig3_document();

}  // namespace hxrc::workload
