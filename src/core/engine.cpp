#include "core/engine.hpp"

#include <algorithm>

#include "core/storage.hpp"
#include "rel/ops.hpp"
#include "util/string_util.hpp"

namespace hxrc::core {

namespace {

/// One compiled element criterion, evaluated in place against elem_data
/// rows (no Expr tree, no Value temporaries): numeric compare when both
/// operands are numeric, string compare against the criterion text
/// otherwise — the shared comparison semantics used across the code base.
struct CompiledPred {
  bool exists_only = false;
  CompareOp op = CompareOp::kEq;
  bool numeric_rhs = false;
  double rhs_num = 0.0;
  std::string rhs_text;

  static CompiledPred compile(const ElementPredicate& pred) {
    CompiledPred out;
    out.exists_only = pred.exists_only;
    if (pred.exists_only) return out;
    out.op = pred.op;
    out.rhs_text = pred.value.to_string();
    if (const auto num = util::parse_double(out.rhs_text)) {
      out.numeric_rhs = true;
      out.rhs_num = *num;
    }
    return out;
  }

  static bool apply(CompareOp op, int cmp) noexcept {
    switch (op) {
      case CompareOp::kEq: return cmp == 0;
      case CompareOp::kNe: return cmp != 0;
      case CompareOp::kLt: return cmp < 0;
      case CompareOp::kLe: return cmp <= 0;
      case CompareOp::kGt: return cmp > 0;
      case CompareOp::kGe: return cmp >= 0;
    }
    return cmp == 0;
  }

  bool matches(const rel::Row& row, std::size_t str_col, std::size_t num_col) const {
    if (exists_only) return true;
    if (numeric_rhs) {
      // Numeric criterion: numeric compare when the stored value is
      // numeric (value_num mirrors every value that parses as a number).
      const rel::Value& num = row[num_col];
      if (!num.is_null()) {
        const double lhs = num.as_double();
        return apply(op, lhs < rhs_num ? -1 : (lhs > rhs_num ? 1 : 0));
      }
    }
    // String comparison; a NULL stored value matches nothing (SQL NULL).
    const rel::Value& str = row[str_col];
    if (str.is_null()) return false;
    const int cmp = str.as_string_view().compare(rhs_text);
    return apply(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0));
  }
};

/// One resolved element criterion of a query node.
struct ElementCriterion {
  std::size_t qe_id = 0;
  ElemDefId def = -1;
  CompiledPred pred;
};

/// One shredded query-attribute criterion (a "temp table" row, Fig. 4).
struct QueryNode {
  std::size_t qa_id = 0;
  const AttrQuery* query = nullptr;
  std::size_t parent = SIZE_MAX;  // SIZE_MAX = top-level
  std::size_t depth = 0;          // 0 = top-level
  AttrDefId def = kNoAttr;
  std::vector<ElementCriterion> elements;
  std::vector<std::size_t> children;  // qa_ids
};

/// An attribute-instance reference: the pipeline's working currency. Stages
/// exchange sorted-unique vectors of these instead of materialized rows.
struct InstRef {
  std::int64_t object = 0;
  std::int64_t seq = 0;

  friend bool operator==(InstRef a, InstRef b) noexcept {
    return a.object == b.object && a.seq == b.seq;
  }
  friend bool operator<(InstRef a, InstRef b) noexcept {
    return a.object != b.object ? a.object < b.object : a.seq < b.seq;
  }
};

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// a := a ∩ b; both sorted-unique.
template <typename T>
void intersect_into(std::vector<T>& a, const std::vector<T>& b, std::vector<T>& scratch) {
  scratch.clear();
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(scratch));
  a.swap(scratch);
}

/// Resolves query names against the definitions one snapshot sees: exact
/// (name, source) first; then, when the query omits the source, the unique
/// definition of that name — the paper's MyAttr.addElement("dzmin", 100, EQ)
/// omits the source when it is unambiguous — among those visible to the
/// user; then the ontology's synonyms (§3).
struct Resolver {
  const DefinitionRegistry& registry;
  const rel::ReadView* view;
  const Thesaurus* thesaurus;
  const std::string& user;

  std::optional<AttributeDef> attribute(const std::string& name, const std::string& source,
                                        AttrDefId parent) const {
    if (auto exact = registry.find_attribute(name, source, parent, user, view)) return exact;
    if (source.empty()) {
      if (auto unique = registry.find_attribute_any_source(name, parent, user, view)) return unique;
    }
    if (const auto canonical = thesaurus ? thesaurus->resolve(name, source) : std::nullopt) {
      return registry.find_attribute(canonical->name, canonical->source, parent, user, view);
    }
    return std::nullopt;
  }

  std::optional<ElementDef> element(const std::string& name, const std::string& source,
                                    AttrDefId attribute) const {
    if (auto exact = registry.find_element(name, source, attribute, view)) return exact;
    if (source.empty()) {
      if (auto unique = registry.find_element_any_source(name, attribute, view)) return unique;
    }
    if (const auto canonical = thesaurus ? thesaurus->resolve(name, source) : std::nullopt) {
      return registry.find_element(canonical->name, canonical->source, attribute, view);
    }
    return std::nullopt;
  }
};

}  // namespace

struct QueryShredded {
  std::vector<QueryNode> nodes;
  std::vector<std::size_t> tops;
  std::size_t element_count = 0;
  std::size_t max_depth = 0;
  bool resolved = true;  // false when any definition was unknown/invisible
};

QueryEngine::QueryEngine(const Partition& partition, const DefinitionRegistry& registry,
                         const rel::Database& db, EngineOptions options)
    : partition_(partition), registry_(registry), db_(db), options_(options) {}

namespace {

void shred_attr(const Resolver& resolve, const AttrQuery& attr, std::size_t parent,
                std::size_t depth, QueryShredded& out) {
  const AttrDefId parent_def =
      parent == SIZE_MAX ? kNoAttr : out.nodes[parent].def;
  const auto def = resolve.attribute(attr.name(), attr.source(), parent_def);

  QueryNode node;
  node.qa_id = out.nodes.size();
  node.query = &attr;
  node.parent = parent;
  node.depth = depth;
  out.max_depth = std::max(out.max_depth, depth);
  if (!def || !def->queryable) {
    out.resolved = false;
    out.nodes.push_back(std::move(node));
    return;
  }
  node.def = def->id;

  node.elements.reserve(attr.elements().size());
  for (const ElementPredicate& pred : attr.elements()) {
    const auto elem = resolve.element(pred.name, pred.source, def->id);
    if (!elem) {
      out.resolved = false;
    } else {
      node.elements.push_back(
          ElementCriterion{out.element_count, elem->id, CompiledPred::compile(pred)});
    }
    ++out.element_count;
  }

  const std::size_t my_index = out.nodes.size();
  out.nodes.push_back(std::move(node));
  if (parent != SIZE_MAX) out.nodes[parent].children.push_back(my_index);
  if (parent == SIZE_MAX) out.tops.push_back(my_index);

  for (const AttrQuery& sub : attr.sub_attributes()) {
    shred_attr(resolve, sub, my_index, depth + 1, out);
  }
}

/// Shared state of one pipeline run: resolved tables/indexes/columns, the
/// plan counters, and scratch buffers reused across every probe and
/// intersection (allocation discipline: steady-state queries allocate only
/// for result vectors that survive the stage).
struct Pipeline {
  const rel::Table& elem_data;
  const rel::Index& elem_index;
  const rel::Table& instances;
  const rel::Index& inst_index;
  const rel::Table* inverted = nullptr;
  const rel::Index* inv_index = nullptr;
  /// Value-keyed equality indexes ((elem_id, value_str) / (elem_id,
  /// value_num)); nullptr on databases predating them.
  const rel::Index* elem_val_index = nullptr;
  const rel::Index* elem_num_index = nullptr;

  std::size_t elem_obj_col = 0;
  std::size_t elem_seq_col = 0;
  std::size_t str_col = 0;
  std::size_t num_col = 0;
  std::size_t inst_obj_col = 0;
  std::size_t inst_seq_col = 0;
  std::size_t inv_anc_attr_col = 0;
  std::size_t inv_anc_seq_col = 0;

  bool ordered = true;  // apply cardinality ordering
  QueryPlanInfo* info = nullptr;
  /// Snapshot watermarks; nullptr = live (syncing) probes.
  const rel::ReadView* view = nullptr;

  std::vector<rel::RowId> probe_scratch;
  std::vector<InstRef> inst_scratch;
  std::vector<ObjectId> obj_scratch;

  Pipeline(const rel::Database& db, bool ordered_, QueryPlanInfo* info_,
           const rel::ReadView* view_)
      : elem_data(db.require_table(kElemDataTable)),
        elem_index(*elem_data.index("idx_elem_def")),
        instances(db.require_table(kAttrInstancesTable)),
        inst_index(*instances.index("idx_inst_attr")),
        elem_val_index(elem_data.index("idx_elem_val")),
        elem_num_index(elem_data.index("idx_elem_num")),
        ordered(ordered_),
        info(info_),
        view(view_) {
    elem_obj_col = elem_data.schema().require("object_id");
    elem_seq_col = elem_data.schema().require("seq");
    str_col = elem_data.schema().require("value_str");
    num_col = elem_data.schema().require("value_num");
    inst_obj_col = instances.schema().require("object_id");
    inst_seq_col = instances.schema().require("seq");
  }

  void with_inverted(const rel::Database& db) {
    inverted = &db.require_table(kAttrInvertedTable);
    inv_index = inverted->index("idx_inv_child");
    inv_anc_attr_col = inverted->schema().require("anc_attr_id");
    inv_anc_seq_col = inverted->schema().require("anc_seq");
  }

  void count_probe() {
    if (info != nullptr) ++info->index_probes;
  }
  void count_scanned(std::size_t n = 1) {
    if (info != nullptr) info->rows_scanned += n;
  }
  void count_candidates(std::size_t n) {
    if (info != nullptr) info->candidate_rows += n;
  }
  void count_materialized(std::size_t n) {
    if (info != nullptr) info->rows_materialized += n;
  }

  std::size_t bucket(const rel::Index& index, const rel::Key& key) const {
    return view != nullptr ? view->bucket_size(elem_data, index, key)
                           : index.bucket_size(key);
  }

  /// True when `ec` can be answered by the value-keyed equality indexes.
  bool eq_probe_ready(const ElementCriterion& ec) const {
    return elem_val_index != nullptr && elem_num_index != nullptr &&
           !ec.pred.exists_only && ec.pred.op == CompareOp::kEq;
  }

  /// Cheap per-criterion cardinality estimates (index bucket sizes).
  std::size_t element_estimate(const ElementCriterion& ec) const {
    if (eq_probe_ready(ec)) {
      // Exact-bucket estimate: the union of the text bucket and (for a
      // numeric rhs) the numeric bucket bounds the criterion's result.
      std::size_t n = bucket(*elem_val_index, rel::Key{{rel::Value(ec.def),
                                                        rel::Value(ec.pred.rhs_text)}});
      if (ec.pred.numeric_rhs) {
        n += bucket(*elem_num_index,
                    rel::Key{{rel::Value(ec.def), rel::Value(ec.pred.rhs_num)}});
      }
      return n;
    }
    const rel::Key key{{rel::Value(ec.def)}};
    return view != nullptr ? view->bucket_size(elem_data, elem_index, key)
                           : elem_index.bucket_size(key);
  }

  /// Visits every elem_data row satisfying the equality criterion `ec` via
  /// the value-keyed indexes — cost O(matches), not O(element bucket).
  ///
  /// The union of two probes reproduces CompiledPred::matches exactly:
  /// the (elem_id, value_str) bucket yields the rows whose stored text
  /// equals the criterion text, and for a numeric rhs the (elem_id,
  /// value_num) bucket adds the rows that are numerically equal under a
  /// different spelling ("0730" = "730"). Rows in both buckets are emitted
  /// once (the numeric probe skips exact-text matches). `matches` still
  /// runs per visited row, so the semantics cannot drift from the scan
  /// path. Counts as ONE logical index probe — probes == criteria
  /// evaluated, the invariant the plan counters (and their tests) rely on.
  template <typename Fn>
  void for_each_eq_match(const ElementCriterion& ec, Fn&& fn) {
    count_probe();
    rel::for_each_match(
        elem_data, *elem_val_index,
        rel::Key{{rel::Value(ec.def), rel::Value(ec.pred.rhs_text)}}, view,
        probe_scratch, [&](const rel::Row& row, rel::RowId id) {
          count_scanned();
          if (ec.pred.matches(row, str_col, num_col)) fn(row, id);
        });
    if (!ec.pred.numeric_rhs) return;
    rel::for_each_match(
        elem_data, *elem_num_index,
        rel::Key{{rel::Value(ec.def), rel::Value(ec.pred.rhs_num)}}, view,
        probe_scratch, [&](const rel::Row& row, rel::RowId id) {
          count_scanned();
          const rel::Value& str = row[str_col];
          if (!str.is_null() && str.as_string_view() == ec.pred.rhs_text) return;
          if (ec.pred.matches(row, str_col, num_col)) fn(row, id);
        });
  }
  std::size_t instance_estimate(AttrDefId def) const {
    const rel::Key key{{rel::Value(def)}};
    return view != nullptr ? view->bucket_size(instances, inst_index, key)
                           : inst_index.bucket_size(key);
  }
  /// Estimate for a whole node from its direct criteria only.
  std::size_t node_estimate(const QueryNode& node) const {
    if (node.elements.empty()) return instance_estimate(node.def);
    std::size_t best = SIZE_MAX;
    for (const ElementCriterion& ec : node.elements) {
      best = std::min(best, element_estimate(ec));
    }
    return best;
  }

  /// Index order of `items` by ascending estimate (or identity when
  /// cardinality ordering is disabled).
  template <typename Items, typename Estimator>
  std::vector<std::size_t> evaluation_order(const Items& items, Estimator est) const {
    std::vector<std::size_t> order(items.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (ordered && order.size() > 1) {
      std::vector<std::size_t> cost(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) cost[i] = est(items[i]);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
    }
    return order;
  }

  /// Instances of `node` satisfying all its direct element criteria —
  /// criteria evaluated in cardinality order, intersecting incrementally
  /// with early exit on empty. Returns a sorted-unique InstRef vector.
  std::vector<InstRef> element_stage(const QueryNode& node) {
    std::vector<InstRef> current;
    if (node.elements.empty()) {
      // Existence of the attribute itself: all instances are candidates.
      count_probe();
      rel::for_each_match(instances, inst_index, rel::Key{{rel::Value(node.def)}},
                          view, probe_scratch, [&](const rel::Row& row, rel::RowId) {
                            count_scanned();
                            current.push_back(InstRef{row[inst_obj_col].as_int(),
                                                      row[inst_seq_col].as_int()});
                          });
      count_candidates(current.size());
      sort_unique(current);
      return current;
    }

    const std::vector<std::size_t> order = evaluation_order(
        node.elements, [&](const ElementCriterion& ec) { return element_estimate(ec); });
    bool first = true;
    for (const std::size_t i : order) {
      const ElementCriterion& ec = node.elements[i];
      if (!first && current.empty()) break;  // early exit: conjunction failed
      std::vector<InstRef>& out = first ? current : inst_scratch;
      out.clear();
      std::size_t matched = 0;
      const auto take = [&](const rel::Row& row) {
        ++matched;
        const InstRef ref{row[elem_obj_col].as_int(), row[elem_seq_col].as_int()};
        if (first || std::binary_search(current.begin(), current.end(), ref)) {
          out.push_back(ref);
        }
      };
      if (eq_probe_ready(ec)) {
        for_each_eq_match(ec, [&](const rel::Row& row, rel::RowId) { take(row); });
      } else {
        count_probe();
        rel::for_each_match(elem_data, elem_index, rel::Key{{rel::Value(ec.def)}},
                            view, probe_scratch, [&](const rel::Row& row, rel::RowId) {
                              count_scanned();
                              if (ec.pred.matches(row, str_col, num_col)) take(row);
                            });
      }
      count_candidates(matched);
      sort_unique(out);
      if (!first) current.swap(inst_scratch);
      first = false;
    }
    return current;
  }

  /// Ancestor instances of `parent_def` credited by the satisfied child
  /// instances through the inverted list (distance >= 1: sub-attribute
  /// criteria match at any depth below the parent; the data side needs no
  /// recursion). Sorted-unique.
  std::vector<InstRef> credited_ancestors(const std::vector<InstRef>& child_sat,
                                          AttrDefId child_def, AttrDefId parent_def) {
    std::vector<InstRef> credited;
    for (const InstRef inst : child_sat) {
      count_probe();
      rel::for_each_match(
          *inverted, *inv_index,
          rel::Key{{rel::Value(inst.object), rel::Value(child_def), rel::Value(inst.seq)}},
          view, probe_scratch, [&](const rel::Row& row, rel::RowId) {
            count_scanned();
            if (row[inv_anc_attr_col].as_int() != parent_def) return;
            credited.push_back(InstRef{inst.object, row[inv_anc_seq_col].as_int()});
          });
    }
    sort_unique(credited);
    return credited;
  }

  /// Instances of `node` satisfying its element criteria AND every child
  /// subtree (deepest-first via recursion). Children are evaluated in
  /// cardinality order with early exit.
  std::vector<InstRef> eval_node(const QueryShredded& shredded, const QueryNode& node) {
    std::vector<InstRef> own = element_stage(node);
    if (own.empty() || node.children.empty()) {
      count_materialized(own.size());
      return own;
    }
    const std::vector<std::size_t> order = evaluation_order(
        node.children,
        [&](std::size_t child) { return node_estimate(shredded.nodes[child]); });
    for (const std::size_t i : order) {
      const QueryNode& child = shredded.nodes[node.children[i]];
      const std::vector<InstRef> child_sat = eval_node(shredded, child);
      if (child_sat.empty()) return {};
      const std::vector<InstRef> credited =
          credited_ancestors(child_sat, child.def, node.def);
      intersect_into(own, credited, inst_scratch);
      if (own.empty()) return {};
    }
    count_materialized(own.size());
    return own;
  }
};

}  // namespace

bool QueryEngine::can_fast_path(const QueryShredded& shredded) const {
  for (const QueryNode& node : shredded.nodes) {
    if (!node.children.empty()) return false;
    // Single-instance check: structural attributes whose schema node is not
    // repeatable have at most one instance per object. Anything else
    // (repeatable or dynamic) may repeat.
    const AttributeDef def = registry_.attribute(node.def);
    if (def.kind != AttrKind::kStructural) return false;
    if (def.schema_order == kNoOrder) return false;
    const AttributeRootInfo* root = partition_.root_at(def.schema_order);
    if (root == nullptr || root->repeatable) return false;
  }
  return true;
}

namespace {

/// Length-prefixes a caller-supplied string before embedding it in a key.
/// Values and unresolved names can contain any byte — including the ';',
/// ':', '{', '}' the key format uses — so raw embedding lets crafted
/// values collide with a differently-structured query (and a colliding
/// key would serve one query's cached id-set to another). The "<len>:"
/// prefix makes the serialization injective: a structural parse skips
/// exactly len bytes and no value byte is ever read as a delimiter.
void append_sized(std::string& out, std::string_view v) {
  out += std::to_string(v.size());
  out += ':';
  out += v;
}

void append_value_key(std::string& out, const rel::Value& value) {
  // Type-tagged so "1000" (string) and 1000 (number) never collide — the
  // predicate compiler treats them differently. Numeric to_string output
  // is delimiter-free, but strings carry arbitrary bytes and must be
  // length-prefixed.
  switch (value.type()) {
    case rel::Type::kNull: out += 'n'; return;
    case rel::Type::kInt: out += 'i'; out += value.to_string(); return;
    case rel::Type::kDouble: out += 'd'; out += value.to_string(); return;
    case rel::Type::kString: out += 's'; append_sized(out, value.to_string()); return;
  }
}

/// One criterion subtree in normal form. Unresolved names key as
/// "u<len>:<name><len>:<source>" — distinct per spelling, and harmlessly
/// so: any unresolved node makes the whole query return the empty set.
std::string attr_canonical_key(const Resolver& resolve, const AttrQuery& attr,
                               AttrDefId parent) {
  const auto def = resolve.attribute(attr.name(), attr.source(), parent);
  std::string out = "a";
  if (!def || !def->queryable) {
    out += 'u';
    append_sized(out, attr.name());
    append_sized(out, attr.source());
  } else {
    out += std::to_string(def->id);
  }
  const AttrDefId my_def = def ? def->id : kNoAttr;

  // Sibling criteria sort lexicographically on their serialized form: the
  // query model is an unordered conjunction, so differently-ordered
  // spellings of one query must share a key.
  std::vector<std::string> parts;
  parts.reserve(attr.elements().size() + attr.sub_attributes().size());
  for (const ElementPredicate& pred : attr.elements()) {
    const auto elem = def ? resolve.element(pred.name, pred.source, my_def) : std::nullopt;
    std::string part = "e";
    if (!elem) {
      part += 'u';
      append_sized(part, pred.name);
      append_sized(part, pred.source);
    } else {
      part += std::to_string(elem->id);
    }
    if (pred.exists_only) {
      part += '?';
    } else {
      part += static_cast<char>('0' + static_cast<int>(pred.op));
      append_value_key(part, pred.value);
    }
    parts.push_back(std::move(part));
  }
  for (const AttrQuery& sub : attr.sub_attributes()) {
    parts.push_back(attr_canonical_key(resolve, sub, my_def));
  }
  std::sort(parts.begin(), parts.end());
  out += '{';
  for (const std::string& part : parts) {
    out += part;
    out += ';';
  }
  out += '}';
  return out;
}

}  // namespace

std::string QueryEngine::canonical_key(const ObjectQuery& query,
                                       const QueryContext& ctx) const {
  const Resolver resolve{registry_, ctx.view,
                         ctx.thesaurus != nullptr ? ctx.thesaurus : options_.thesaurus,
                         query.user()};
  // The thesaurus is shared live across snapshots (setup-time mutation
  // only); its mutation counter is the expansion fingerprint so a synonym
  // added — or remapped, which leaves size() unchanged — between publishes
  // cannot revive a key minted under the old map.
  std::string out =
      "T" + std::to_string(resolve.thesaurus ? resolve.thesaurus->version() : 0) + "|";
  std::vector<std::string> parts;
  parts.reserve(query.attributes().size());
  for (const AttrQuery& attr : query.attributes()) {
    parts.push_back(attr_canonical_key(resolve, attr, kNoAttr));
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) {
    out += part;
    out += ';';
  }
  return out;
}

std::vector<ObjectId> QueryEngine::run(const ObjectQuery& query, QueryPlanInfo* info,
                                       const QueryContext& ctx) const {
  const Resolver resolve{registry_, ctx.view,
                         ctx.thesaurus != nullptr ? ctx.thesaurus : options_.thesaurus,
                         query.user()};
  QueryShredded shredded;
  for (const AttrQuery& attr : query.attributes()) {
    shred_attr(resolve, attr, SIZE_MAX, 0, shredded);
  }
  if (info != nullptr) {
    info->query_nodes = shredded.nodes.size();
    info->query_elements = shredded.element_count;
    info->rollup_levels = shredded.max_depth;
  }
  if (shredded.nodes.empty() || !shredded.resolved) return {};

  if (options_.enable_fastpath && can_fast_path(shredded)) {
    return run_fast(shredded, info, ctx);
  }
  return run_general(shredded, info, ctx);
}

std::vector<ObjectId> QueryEngine::run_fast(const QueryShredded& shredded,
                                            QueryPlanInfo* info,
                                            const QueryContext& ctx) const {
  if (info != nullptr) info->fast_path = true;
  Pipeline p(db_, !options_.force_query_order, info, ctx.view);

  // One flat criterion list: element predicates plus attribute-existence
  // criteria. Every criterion contributes a set of object ids; the result
  // is their intersection, built smallest-estimated-set first so later
  // (larger) probes only test membership — and are skipped entirely once
  // the running intersection is empty.
  struct FastCriterion {
    const QueryNode* node = nullptr;      // attribute existence
    const ElementCriterion* elem = nullptr;  // or element predicate
  };
  std::vector<FastCriterion> criteria;
  for (const QueryNode& node : shredded.nodes) {
    if (node.elements.empty()) {
      criteria.push_back(FastCriterion{&node, nullptr});
    } else {
      for (const ElementCriterion& ec : node.elements) {
        criteria.push_back(FastCriterion{nullptr, &ec});
      }
    }
  }

  const std::vector<std::size_t> order =
      p.evaluation_order(criteria, [&](const FastCriterion& c) {
        return c.elem != nullptr ? p.element_estimate(*c.elem)
                                 : p.instance_estimate(c.node->def);
      });

  std::vector<ObjectId> current;
  std::vector<ObjectId> next;
  bool first = true;
  for (const std::size_t i : order) {
    const FastCriterion& c = criteria[i];
    if (!first && current.empty()) break;  // early exit: conjunction failed
    std::vector<ObjectId>& out = first ? current : next;
    out.clear();
    std::size_t matched = 0;
    const auto consider = [&](ObjectId object) {
      ++matched;
      if (first || std::binary_search(current.begin(), current.end(), object)) {
        out.push_back(object);
      }
    };
    if (c.elem != nullptr && p.eq_probe_ready(*c.elem)) {
      // for_each_eq_match counts its own (single logical) probe.
      p.for_each_eq_match(*c.elem, [&](const rel::Row& row, rel::RowId) {
        consider(row[p.elem_obj_col].as_int());
      });
    } else if (c.elem != nullptr) {
      p.count_probe();
      rel::for_each_match(p.elem_data, p.elem_index,
                          rel::Key{{rel::Value(c.elem->def)}}, p.view,
                          p.probe_scratch, [&](const rel::Row& row, rel::RowId) {
                            p.count_scanned();
                            if (c.elem->pred.matches(row, p.str_col, p.num_col)) {
                              consider(row[p.elem_obj_col].as_int());
                            }
                          });
    } else {
      p.count_probe();
      rel::for_each_match(p.instances, p.inst_index,
                          rel::Key{{rel::Value(c.node->def)}}, p.view,
                          p.probe_scratch, [&](const rel::Row& row, rel::RowId) {
                            p.count_scanned();
                            consider(row[p.inst_obj_col].as_int());
                          });
    }
    p.count_candidates(matched);
    sort_unique(out);
    if (!first) current.swap(next);
    first = false;
  }
  p.count_materialized(current.size());
  return current;  // sorted ascending by construction
}

std::vector<ObjectId> QueryEngine::run_general(const QueryShredded& shredded,
                                               QueryPlanInfo* info,
                                               const QueryContext& ctx) const {
  Pipeline p(db_, !options_.force_query_order, info, ctx.view);
  p.with_inverted(db_);

  // Evaluate one top-level subtree at a time (element criteria, then the
  // deepest-first sub-attribute roll-up via recursion), most selective
  // subtree first, intersecting object-id sets with early exit — an object
  // qualifies when it has a satisfying instance of every top-level
  // criterion.
  const std::vector<std::size_t> order = p.evaluation_order(
      shredded.tops, [&](std::size_t top) { return p.node_estimate(shredded.nodes[top]); });

  std::vector<ObjectId> current;
  bool first = true;
  for (const std::size_t t : order) {
    const std::vector<InstRef> sat = p.eval_node(shredded, shredded.nodes[t]);
    if (sat.empty()) return {};
    std::vector<ObjectId>& objects = p.obj_scratch;
    objects.clear();
    for (const InstRef inst : sat) {
      if (objects.empty() || objects.back() != inst.object) {
        objects.push_back(inst.object);  // sat is sorted by (object, seq)
      }
    }
    if (first) {
      current = objects;
      first = false;
    } else {
      std::vector<ObjectId> merged;
      merged.reserve(std::min(current.size(), objects.size()));
      std::set_intersection(current.begin(), current.end(), objects.begin(),
                            objects.end(), std::back_inserter(merged));
      current.swap(merged);
    }
    if (current.empty()) return {};
  }
  p.count_materialized(current.size());
  return current;  // sorted ascending by construction
}

}  // namespace hxrc::core
