// Fortran namelist files — the source of LEAD's dynamic metadata attributes.
//
// ARPS and WRF drive their forecast models with namelist files of detailed
// parameters (§3); scientists add parameters as the models evolve, which is
// why the metadata schema cannot enumerate them. This module parses the
// namelist subset those models use and converts groups into the <detailed>
// dynamic-attribute form of the LEAD schema, exercising the same ingest
// path the paper describes.
//
// Supported syntax:
//   &group_name
//     key = value[, value...],
//     derived%component = value,     ! nesting via derived-type components
//     ...                            ! '!' comments
//   /
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/partition.hpp"
#include "xml/dom.hpp"

namespace hxrc::workload {

class NamelistError : public std::runtime_error {
 public:
  explicit NamelistError(const std::string& message) : std::runtime_error(message) {}
};

struct NamelistEntry {
  /// Full key, possibly with derived-type components ("grid_stretching%dzmin").
  std::string key;
  /// One or more comma-separated values, quotes stripped.
  std::vector<std::string> values;
};

struct NamelistGroup {
  std::string name;
  std::vector<NamelistEntry> entries;
};

/// Parses a namelist file (possibly several groups).
std::vector<NamelistGroup> parse_namelist(std::string_view text);

/// Converts one group into a <detailed> dynamic-attribute element per the
/// convention: the group name becomes the attribute name (enttypl), `model`
/// the source (enttypds); derived-type components become nested
/// sub-attributes; each scalar value becomes a metadata element.
xml::NodePtr namelist_group_to_detailed(const NamelistGroup& group,
                                        const std::string& model,
                                        const core::DynamicConvention& convention = {});

}  // namespace hxrc::workload
