// The catalog service protocol: XML requests in, tagged XML responses out.
//
// myLEAD exposes the catalog to the grid as a service; clients exchange XML
// messages (§5: results "are already tagged and can be returned to the
// client"). This module implements that request/response layer, including
// the XML serialization of metadata-attribute queries (the wire form of the
// MyFile/MyAttr API):
//
//   <catalogRequest type="query" user="alice" limit="100" cursor="...">
//     <attribute name="grid" source="ARPS">
//       <element name="dx" source="ARPS" op="eq">1000</element>
//       <attribute name="grid-stretching" source="ARPS">
//         <element name="dzmin" op="eq">100</element>
//       </attribute>
//     </attribute>
//   </catalogRequest>
//
// Request types: ingest, query, queryIds, fetch, addAttribute, define,
// delete, stats. Responses:
//
//   <catalogResponse status="ok" protocol="1" version="N">...</catalogResponse>
//   <catalogResponse status="error" protocol="1" code="...">
//     <message>...</message></catalogResponse>
//
// `protocol` is the wire-protocol major the server speaks (see
// kProtocolMajor); `version` is the catalog epoch the request observed. A
// request may declare its own protocol version (version="MAJOR[.MINOR]" on
// <catalogRequest>) and is refused with code="unsupported_version" when the
// major differs. Error responses
// carry a machine-readable `code` from the enumerated set below plus a
// human-readable <message>. Query/queryIds responses are paginated when the
// request sets `limit`: they carry a <nextCursor> child while more pages
// exist, and `queryIds` ids are always ascending so identical requests
// return identical pages.
//
// handle() never throws: every failure becomes a status="error" response,
// as a service endpoint must behave.
#pragma once

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/catalog.hpp"
#include "core/query.hpp"
#include "util/metrics.hpp"

namespace hxrc::core {

/// The protocol major version this service speaks. Requests may declare
/// the version they were written against as version="MAJOR[.MINOR]" on
/// <catalogRequest>; an absent attribute means v1 (the original schema,
/// which predates the attribute). A different major is rejected with
/// code="unsupported_version" — minors are additive and never rejected.
/// Responses always carry protocol="MAJOR" on <catalogResponse> so clients
/// can assert the handshake. (`version` on responses is taken: it reports
/// the catalog epoch the request observed.)
inline constexpr int kProtocolMajor = 1;

/// Machine-readable error codes carried on error responses.
enum class ErrorCode {
  kParseError,   // request was not well-formed XML / not a <catalogRequest>
  kUnknownType,  // unrecognized request type attribute
  kValidation,   // request violated protocol or catalog constraints
  kNotFound,     // the referenced object does not exist (or is deleted)
  kTimeout,      // dispatcher: deadline exceeded before/while handling
  kOverloaded,   // dispatcher: admission queue full
  kStaleCursor,  // continuation cursor predates a catalog mutation
  kDraining,     // dispatcher: shutting down, no longer admitting
  kUnsupportedVersion,  // request declared a protocol major we don't speak
  kUnavailable,  // federation: the owning shard is unreachable (no replica)
};

/// One row of the ErrorCode ↔ wire-string table.
struct ErrorCodeName {
  ErrorCode code;
  std::string_view name;
};

/// THE table mapping every ErrorCode to its wire spelling — the single
/// source of truth shared by the service, the dispatcher, and the network
/// front end. Adding an ErrorCode means adding a row here (the
/// static_assert below and the exhaustive round-trip test in
/// test_service_protocol both fail until the table is complete).
inline constexpr ErrorCodeName kErrorCodeNames[] = {
    {ErrorCode::kParseError, "parse_error"},
    {ErrorCode::kUnknownType, "unknown_type"},
    {ErrorCode::kValidation, "validation"},
    {ErrorCode::kNotFound, "not_found"},
    {ErrorCode::kTimeout, "timeout"},
    {ErrorCode::kOverloaded, "overloaded"},
    {ErrorCode::kStaleCursor, "stale_cursor"},
    {ErrorCode::kDraining, "draining"},
    {ErrorCode::kUnsupportedVersion, "unsupported_version"},
    {ErrorCode::kUnavailable, "unavailable"},
};

// kUnavailable is the last enumerator: one table row per code.
static_assert(std::size(kErrorCodeNames) ==
              static_cast<std::size_t>(ErrorCode::kUnavailable) + 1);

std::string_view error_code_name(ErrorCode code) noexcept;

/// Thrown inside request handlers to produce a coded error response.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Serializes an error into the wire form — shared by CatalogService and
/// ServiceDispatcher (which must emit timeout/overloaded responses without
/// a service call).
std::string error_response(ErrorCode code, const std::string& message);

/// Wraps `payload` in the ok envelope stamped with the catalog epoch — the
/// one serializer of `<catalogResponse status="ok" ...>`, so a federated
/// response is byte-identical to a single-node one with the same payload.
std::string ok_response(std::uint64_t version, std::string_view payload);

/// Serializes a query to its wire form (children of <catalogRequest>, plus
/// limit/cursor attributes when set).
std::string query_to_xml(const ObjectQuery& query);

/// Parses the wire form back into a query. Throws ValidationError on
/// malformed criteria; the message names the failing criterion by its
/// attribute path (e.g. "criterion 'grid/grid-stretching'").
ObjectQuery query_from_xml(const xml::Node& request);

/// The wire request-type names, in protocol order, plus the "other"
/// catch-all — the slot set for a per-request-type MetricsRegistry.
const std::vector<std::string>& service_request_type_names();

/// Result of scan_root_tag.
struct RootTagScan {
  /// One past the tag's first unquoted '>'; npos when the tag is
  /// unterminated.
  std::size_t end = std::string_view::npos;
  /// Offset of the requested attribute's value (just past its opening
  /// quote); npos when the attribute is absent.
  std::size_t value_pos = std::string_view::npos;
  /// The value between the quotes, still entity-escaped.
  std::string_view value;
};

/// The wire protocol's one light tag scanner (no DOM build, no allocation,
/// one pass). Walks the tag that opens at `pos`, skipping quoted values of
/// either quote type, and stops at the first unquoted '>'. `name` matches
/// only a whole attribute name that follows whitespace (`name = 'v'` and
/// `name="v"` both match; `xname="v"` and text inside another value do
/// not). An empty `name` only locates the tag end.
RootTagScan scan_root_tag(std::string_view xml, std::string_view name,
                          std::size_t pos = 0) noexcept;

/// A root-tag attribute's value, entity-decoded exactly as the service's
/// XML parser decodes it (so a router and the shard behind it agree on
/// every value). Returns "" when absent. The router routes on type=,
/// name= and objectID= with it, without a DOM build.
std::string peek_request_attr(std::string_view request_xml, std::string_view name);

/// peek_request_attr for the type attribute (the dispatcher classifies
/// rejected and cacheable requests with it). Returns "" when absent.
std::string peek_request_type(std::string_view request_xml);

/// The root tag's timeoutMs attribute. Returns a negative value when
/// absent or non-numeric. timeoutMs="0" means "already expired"
/// (deterministic timeout); absence means "no per-request deadline".
long peek_timeout_ms(std::string_view request_xml);

/// Outcome of one handled request, for the dispatcher's metrics.
struct RequestOutcome {
  /// Parsed request type; "other" when the request never yielded one.
  std::string type = "other";
  bool ok = false;
  ErrorCode code = ErrorCode::kValidation;  // valid when !ok
};

class CatalogService {
 public:
  explicit CatalogService(MetadataCatalog& catalog,
                          const util::MetricsRegistry* metrics = nullptr)
      : catalog_(catalog), metrics_(metrics) {}

  /// Handles one serialized request; always returns a <catalogResponse>.
  /// `outcome`, when given, reports the request type and status for
  /// metrics accounting.
  std::string handle(std::string_view request_xml, RequestOutcome* outcome = nullptr);

 private:
  /// `request_xml` rides along as the L2 cache key: read-only handlers
  /// (query/queryIds/fetch) insert their serialized response into the
  /// pinned snapshot's cache segment keyed by the raw request bytes, so an
  /// identical request can later be answered without parsing anything
  /// (ServiceDispatcher::try_cached probes before dispatch).
  std::string handle_parsed(const xml::Node& request, std::string_view request_xml,
                            RequestOutcome* outcome);

  MetadataCatalog& catalog_;
  /// Optional dispatcher metrics, rendered into stats responses. Not owned.
  const util::MetricsRegistry* metrics_;
};

}  // namespace hxrc::core
