// Path-query translation: XPath-style expressions to ObjectQuery (§4).
//
// §4 contrasts the XQuery FLWOR expression a scientist would have to write
// against the metadata-attribute query the catalog actually evaluates
// ("the path to the dynamic metadata attribute is immaterial"). This module
// implements that rewriting for the abbreviated-XPath form of such queries:
// a navigation to a metadata attribute root plus nested predicates.
//
// Grammar:
//   query   := ('//' | '/')? seg ('/' seg)*      final seg names the attribute
//   seg     := NAME pred*
//   pred    := '[' conj ']'
//   conj    := term ('and' term)*
//   term    := rel (op literal)?                 existence or comparison
//   rel     := '.' | NAME pred* ('/' NAME pred*)*
//   op      := = | != | < | <= | > | >=
//
// Structural attributes translate directly: leaf terms become element
// predicates; interior terms become sub-attribute criteria. Dynamic
// attributes translate through the partition's DynamicConvention — exactly
// the §4 example:
//
//   //detailed[enttyp/enttypl='grid' and enttyp/enttypds='ARPS']
//             [attr[attrlabl='dx' and attrdefs='ARPS' and attrv=1000]]
//             [attr[attrlabl='grid-stretching' and attrdefs='ARPS']
//                  [attr[attrlabl='dzmin' and attrv=100]]]
//
// becomes AttrQuery("grid","ARPS"){dx=1000, sub: grid-stretching{dzmin=100}}.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "core/partition.hpp"
#include "core/query.hpp"

namespace hxrc::core {

class PathQueryError : public std::runtime_error {
 public:
  explicit PathQueryError(const std::string& message) : std::runtime_error(message) {}
};

/// Translates one path expression into a single-attribute ObjectQuery.
/// Throws PathQueryError when the expression does not denote a metadata
/// attribute (wrong path, predicates above the attribute root, ambiguous
/// '//' target, malformed dynamic conventions, ...).
ObjectQuery path_to_query(const Partition& partition, std::string_view expression);

}  // namespace hxrc::core
