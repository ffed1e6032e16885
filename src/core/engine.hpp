// The object query process (§4, Fig. 4).
//
// Queries are first "shredded" into flat criteria (one record per query
// attribute with its required element and child-attribute counts, plus one
// record per query element) — the paper stages these in temporary tables.
// The pipeline is then entirely set-based:
//
//   1. element matching   — join each query element against elem_data via
//                           the element-definition index, apply the value
//                           predicate (typed numeric vs. string);
//   2. instance counting  — group matches by attribute *instance* and keep
//                           instances whose distinct matched-element count
//                           equals the attribute's required count;
//   3. sub-attribute roll-up — join satisfied child instances with the
//                           instance inverted list to credit enclosing
//                           instances, grouping by distinct child criteria
//                           satisfied; repeated from the deepest query level
//                           to the top. The loop is bounded by the *query*
//                           depth — data recursion never enters the plan,
//                           which is the point of the inverted list;
//   4. object counting    — an object qualifies when it has an instance
//                           satisfying every top-level query attribute.
//
// When the query has no sub-attribute criteria and every referenced
// attribute is single-instance, the engine takes the simplified fast path
// the paper mentions: one pass grouped directly by object id (§4).
#pragma once

#include <vector>

#include "core/model.hpp"
#include "core/partition.hpp"
#include "core/query.hpp"
#include "core/registry.hpp"
#include "core/thesaurus.hpp"
#include "rel/database.hpp"

namespace hxrc::core {

struct EngineOptions {
  /// Allow the simplified single-pass plan when the query shape permits.
  bool enable_fastpath = true;
  /// Evaluate criteria in the order the query states them instead of by
  /// estimated selectivity. Disables the cardinality-ordered pipeline's
  /// reordering (results are identical either way; property tests
  /// cross-check the two orders against the DOM oracle).
  bool force_query_order = false;
  /// Optional ontology: criteria whose (name, source) does not resolve to a
  /// definition are retried through these synonyms (§3). Not owned; must
  /// outlive the engine.
  const Thesaurus* thesaurus = nullptr;
};

/// Diagnostics about how a query was executed (used by the E4 ablation and
/// the pipeline-observability tests).
struct QueryPlanInfo {
  bool fast_path = false;
  std::size_t query_nodes = 0;
  std::size_t query_elements = 0;
  std::size_t rollup_levels = 0;
  /// Rows that satisfied an element criterion (pre-intersection). With
  /// early exit this reflects work actually done, not the full match set.
  std::size_t candidate_rows = 0;
  /// Base-table rows visited by index probes (bucket rows the pipeline
  /// evaluated in place — never copied).
  std::size_t rows_scanned = 0;
  /// Index lookups issued.
  std::size_t index_probes = 0;
  /// Rows copied out of the pipeline: retained candidate-instance refs
  /// plus the final object ids. The non-materializing pipeline keeps this
  /// a small fraction of rows_scanned.
  std::size_t rows_materialized = 0;
};

/// The shredded query criteria ("temporary tables" in Fig. 4); defined in
/// engine.cpp.
struct QueryShredded;

/// Snapshot context for one engine run. The MVCC read path passes the
/// pinned snapshot's per-table watermarks so the whole pipeline — criterion
/// resolution against the definition tables, selectivity estimation, index
/// probes, row visits — sees exactly one published epoch. Default-
/// constructed, the engine runs against every row, which is the
/// single-writer/setup behaviour.
struct QueryContext {
  /// Thesaurus override; nullptr = EngineOptions::thesaurus.
  const Thesaurus* thesaurus = nullptr;
  /// Snapshot watermarks; nullptr = probe full tables (syncing probes).
  const rel::ReadView* view = nullptr;
};

class QueryEngine {
 public:
  QueryEngine(const Partition& partition, const DefinitionRegistry& registry,
              const rel::Database& db, EngineOptions options = {});

  /// Matching object ids, ascending. Unknown (or invisible) definitions in
  /// the criteria yield an empty result, matching validated-catalog
  /// semantics. Lock-free against concurrent commits when `ctx` carries a
  /// ReadView (probes never sync, rows above watermarks are invisible).
  std::vector<ObjectId> run(const ObjectQuery& query, QueryPlanInfo* info,
                            const QueryContext& ctx) const;

  /// Canonical cache key for the query against `ctx`'s definitions and
  /// thesaurus: criteria resolve to interned definition ids through the
  /// same loose lookup the pipeline uses (so two spellings that resolve to
  /// one definition share a key, and user-private visibility is captured
  /// by the resolved ids themselves), sibling criteria are sorted into a
  /// normal form (query order is immaterial to the result), and the prefix
  /// carries a thesaurus-expansion fingerprint. limit/cursor are excluded —
  /// the key names the full id-set, which pagination slices afterwards.
  std::string canonical_key(const ObjectQuery& query, const QueryContext& ctx) const;

 private:
  bool can_fast_path(const QueryShredded& shredded) const;
  std::vector<ObjectId> run_fast(const QueryShredded& shredded, QueryPlanInfo* info,
                                 const QueryContext& ctx) const;
  std::vector<ObjectId> run_general(const QueryShredded& shredded, QueryPlanInfo* info,
                                    const QueryContext& ctx) const;

  const Partition& partition_;
  const DefinitionRegistry& registry_;
  const rel::Database& db_;
  EngineOptions options_;
};

}  // namespace hxrc::core
