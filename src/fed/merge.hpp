// Response merging for the federation router: the pure, wire-level half of
// scatter-gather. Everything here is string → string; no sockets, no
// threads — so every merge rule is unit-testable byte-for-byte.
//
// Global id scheme: gid = lid * N + shard (N = shard count). Each shard's
// local ids are dense and ascending, so the mapping is a bijection that
// PRESERVES per-shard ascending order — the k-way merge of per-shard
// ascending streams yields globally ascending gids, and shard_of(gid) is a
// single modulo for point-op routing.
//
// Federated cursors ("HXF1....") encode one leg per shard that still has
// rows: the epoch that shard answered at and the last local id the merged
// page consumed from it. Continuation re-scatters with per-shard
// synthesized "HXC1.<epoch>.<after>" cursors, so each shard's own stale
// check fires if it mutated; a leg that consumed nothing re-runs from the
// start and the router verifies the epoch pin itself. The cursor also
// fingerprints the serving set (which shards answered from a replica) —
// failover between pages switches snapshots, so the cursor goes stale
// rather than silently splicing rows from two histories.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.hpp"

namespace hxrc::fed {

/// A shard response that cannot be merged (malformed envelope, mangled
/// payload). The router maps this to a client-visible error — never to a
/// silently-wrong merge.
class FedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Global id mapping.

/// Sentinel local id: "this leg consumed nothing yet".
inline constexpr std::uint64_t kNoLid = ~std::uint64_t{0};

inline std::uint64_t gid_of(std::uint64_t lid, std::uint32_t shard,
                            std::uint32_t nshards) {
  return lid * nshards + shard;
}
inline std::uint32_t shard_of(std::uint64_t gid, std::uint32_t nshards) {
  return static_cast<std::uint32_t>(gid % nshards);
}
inline std::uint64_t lid_of(std::uint64_t gid, std::uint32_t nshards) {
  return gid / nshards;
}

/// A non-negative decimal integer (object id, limit, version), parsed
/// exactly as the service layer parses ids and limits (util::parse_int), so
/// the router and its shards never disagree on a number. nullopt when
/// malformed or negative.
std::optional<std::uint64_t> parse_count(std::string_view text);

/// Ingest placement: FNV-1a of the document name mod N. Stable across
/// router restarts so re-ingest of the same name lands on the same shard.
std::uint32_t placement_shard(std::string_view name, std::uint32_t nshards);

// ---------------------------------------------------------------------------
// Response envelope.

struct ParsedResponse {
  bool ok = false;
  /// status="ok": the catalog epoch the shard answered at.
  std::uint64_t version = 0;
  /// status="error": the machine-readable code ("stale_cursor", ...).
  std::string code;
  /// Inner span of <catalogResponse> (view into the caller's buffer).
  std::string_view payload;
};

/// Parses `<catalogResponse status=... >payload</catalogResponse>`.
/// Throws FedError when the envelope is not recognizable.
ParsedResponse parse_response(std::string_view response);

/// The service layer's ok envelope, so a router response is byte-identical
/// to a single-node response carrying the same payload.
inline constexpr auto& ok_envelope = core::ok_response;

// ---------------------------------------------------------------------------
// Query / queryIds payloads.

struct ResultSpan {
  std::uint64_t lid = 0;
  /// The serialized document between <result objectID="..."> and
  /// </result> (view into the caller's buffer).
  std::string_view body;
};

struct QueryPayload {
  std::vector<ResultSpan> results;  // query
  std::vector<std::uint64_t> ids;   // queryIds
  std::string next_cursor;          // empty when the shard is exhausted
};

/// Parses `<results>...</results>[<nextCursor>...</nextCursor>]` or, with
/// ids_only, `<objectIDs>...</objectIDs>[<nextCursor>...</nextCursor>]`.
/// Result spans nest correctly even when a stored document itself contains
/// <result> elements (tag-depth scan, quote-aware).
QueryPayload parse_query_payload(std::string_view payload, bool ids_only);

// ---------------------------------------------------------------------------
// Federated cursor.

struct FedCursorLeg {
  std::uint32_t shard = 0;
  /// Epoch the shard answered at (the pin continuation must revalidate).
  std::uint64_t epoch = 0;
  /// Last local id the merged page consumed, or kNoLid when the leg's rows
  /// all sorted after the page boundary.
  std::uint64_t after_lid = kNoLid;
};

struct FedCursor {
  std::uint32_t shard_count = 0;
  /// Bit i set = shard i was served by its replica. Failover between pages
  /// flips a bit and the cursor goes stale.
  std::uint64_t serving_mask = 0;
  std::vector<FedCursorLeg> legs;
};

/// "HXF1.<shards>.<mask>.<legs>(.<shard>.<epoch>.<after>)*" — hex fields
/// in the shard cursors' strict format (core::take_hex_field).
std::string encode_fed_cursor(const FedCursor& cursor);
bool decode_fed_cursor(std::string_view text, FedCursor& cursor);

// ---------------------------------------------------------------------------
// Merging.

struct MergeInput {
  std::uint32_t shard = 0;
  /// Epoch the shard answered at (ParsedResponse::version).
  std::uint64_t version = 0;
  QueryPayload page;
  /// True when the shard advertised a nextCursor of its own.
  bool more = false;
};

struct MergeOutput {
  /// Merged `<results>...</results>` / `<objectIDs>...</objectIDs>` with
  /// every objectID rewritten lid → gid, globally ascending.
  std::string payload;
  /// True when `limit` cut the merge while rows remained somewhere.
  bool truncated = false;
  /// One leg per shard with remaining rows (valid when truncated).
  std::vector<FedCursorLeg> legs;
};

/// K-way merge of per-shard ascending pages. `limit` == 0 means unbounded.
MergeOutput merge_query_pages(const std::vector<MergeInput>& inputs,
                              std::uint32_t nshards, std::size_t limit,
                              bool ids_only);

// ---------------------------------------------------------------------------
// Stats.

struct ShardStatsInput {
  std::uint32_t shard = 0;
  bool replica = false;
  /// The shard's full `<stats ...>...</stats>` payload.
  std::string_view payload;
};

/// Sums additive figures (objects, attributes, elements, clobs, deleted),
/// takes the max of definitions (define is broadcast) and version, and
/// appends one <shard index= endpoint=/> child per shard.
std::string merge_stats_payload(const std::vector<ShardStatsInput>& shards);

// ---------------------------------------------------------------------------
// Request rewriting.

/// Returns `xml` with the root tag's `name` attribute value replaced (found
/// by core::scan_root_tag; the attribute must exist, and its original quote
/// character is kept, so `value` must need no escaping). Used to rewrite a
/// client's objectID="gid" into the owning shard's objectID="lid".
std::string rewrite_root_attr(std::string_view xml, std::string_view name,
                              std::string_view value);

}  // namespace hxrc::fed
