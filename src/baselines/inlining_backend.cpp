#include "baselines/inlining_backend.hpp"

#include <algorithm>

#include "util/string_util.hpp"
#include "xml/matcher.hpp"
#include "xml/writer.hpp"

namespace hxrc::baselines {

namespace {

// Fixed column layout of every fragment table.
constexpr std::size_t kRowIdCol = 0;
constexpr std::size_t kDocCol = 1;
constexpr std::size_t kParentFragCol = 2;
constexpr std::size_t kParentRowCol = 3;
constexpr std::size_t kOrdCol = 4;
constexpr std::size_t kFirstLeafCol = 5;  // also `value` for leaf fragments

bool value_satisfies(const std::string& text, const core::ElementPredicate& pred) {
  if (pred.exists_only) return true;
  return xml::compare_values(text, pred.op, pred.value.to_string());
}

std::string column_name(const std::string& rel_path) {
  std::string out = rel_path;
  std::replace(out.begin(), out.end(), '/', '_');
  return out;
}

/// Navigates a slash path from a DOM node; returns all nodes at the final
/// segment (intermediate segments are single-instance by construction).
std::vector<const xml::Node*> nodes_at(const xml::Node& from, const std::string& rel_path) {
  const auto segments = util::split(rel_path, '/');
  std::vector<const xml::Node*> current{&from};
  for (const auto segment : segments) {
    std::vector<const xml::Node*> next;
    for (const xml::Node* node : current) {
      for (const xml::Node* child : node->children_named(segment)) {
        next.push_back(child);
      }
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace

InliningBackend::InliningBackend(const core::Partition& partition)
    : partition_(partition) {
  compile_fragment(partition.schema().root());
  // Create the tables and indexes after compilation (fragment set is final).
  for (Fragment& fragment : fragments_) {
    rel::TableSchema schema{{"row_id", rel::Type::kInt},
                            {"doc", rel::Type::kInt},
                            {"parent_frag", rel::Type::kInt},
                            {"parent_row", rel::Type::kInt},
                            {"ord", rel::Type::kInt}};
    if (fragment.leaf_value) {
      schema.add(rel::Column{"value", rel::Type::kString});
    } else {
      for (const InlinedLeaf& leaf : fragment.leaves) {
        schema.add(rel::Column{leaf.column, rel::Type::kString});
      }
    }
    rel::Table& table = db_.create_table(fragment.table, std::move(schema));
    table.create_hash_index("idx_doc", {"doc"});
    table.create_hash_index("idx_parent", {"parent_frag", "parent_row"});
  }
  next_row_.assign(fragments_.size(), 0);
}

std::size_t InliningBackend::compile_fragment(const xml::SchemaNode& node) {
  const std::size_t index = fragments_.size();
  fragments_.push_back(Fragment{});
  fragment_of_[&node] = index;
  fragments_[index].root = &node;
  fragments_[index].table = "frag_" + std::to_string(index) + "_" + node.name();
  if (node.is_leaf()) {
    fragments_[index].leaf_value = true;
  } else {
    compile_region(fragments_[index], node, "");
  }
  if (node.recursive()) {
    // The recursive element contains instances of itself as direct children.
    fragments_[index].children.push_back(ChildFragment{node.name(), index});
  }
  return index;
}

void InliningBackend::compile_region(Fragment& fragment, const xml::SchemaNode& node,
                                     const std::string& prefix) {
  // compile_fragment may reallocate fragments_, invalidating `fragment`;
  // re-derive the stable index up front and access through it after any
  // nested compilation.
  const std::size_t self_index = static_cast<std::size_t>(&fragment - fragments_.data());
  for (const auto& child : node.children()) {
    const std::string rel_path = prefix.empty() ? child->name() : prefix + "/" + child->name();
    if (child->repeatable() || child->recursive()) {
      const std::size_t frag_index = compile_fragment(*child);
      fragments_[self_index].children.push_back(ChildFragment{rel_path, frag_index});
      continue;
    }
    if (child->is_leaf()) {
      fragments_[self_index].leaves.push_back(
          InlinedLeaf{rel_path, column_name(rel_path), child.get()});
      continue;
    }
    compile_region(fragments_[self_index], *child, rel_path);
  }
}

std::int64_t InliningBackend::insert_fragment(std::size_t frag_index, const xml::Node& node,
                                              ObjectId doc, std::int64_t parent_frag,
                                              std::int64_t parent_row, std::int64_t ord) {
  const Fragment& fragment = fragments_[frag_index];
  rel::Table& table = db_.require_table(fragment.table);
  const std::int64_t row_id = next_row_[frag_index]++;

  rel::Row row;
  row.reserve(5 + (fragment.leaf_value ? 1 : fragment.leaves.size()));
  for (const std::int64_t key : {row_id, doc, parent_frag, parent_row, ord}) {
    row.emplace_back(key);
  }
  if (fragment.leaf_value) {
    row.push_back(rel::Value(node.text_content()));
  } else {
    for (const InlinedLeaf& leaf : fragment.leaves) {
      const auto found = nodes_at(node, leaf.rel_path);
      row.push_back(found.empty() ? rel::Value::null()
                                  : rel::Value(found.front()->text_content()));
    }
  }
  table.append(std::move(row));

  // Child fragments: one row per instance, ordered among siblings.
  for (const ChildFragment& child : fragment.children) {
    std::int64_t child_ord = 0;
    for (const xml::Node* instance : nodes_at(node, child.rel_path)) {
      insert_fragment(child.fragment, *instance, doc, static_cast<std::int64_t>(frag_index),
                      row_id, child_ord++);
    }
  }
  return row_id;
}

ObjectId InliningBackend::ingest(const xml::Document& doc, const std::string& owner) {
  (void)owner;
  const ObjectId id = next_doc_++;
  insert_fragment(0, *doc.root, id, /*parent_frag=*/-1, /*parent_row=*/-1, /*ord=*/0);
  return id;
}

std::vector<rel::RowId> InliningBackend::child_rows(std::size_t child_frag,
                                                    std::int64_t parent_frag,
                                                    std::int64_t parent_row) const {
  const rel::Table& table = db_.require_table(fragments_[child_frag].table);
  const rel::Index* index = table.index("idx_parent");
  return index->lookup(rel::Key{{rel::Value(parent_frag), rel::Value(parent_row)}});
}

bool InliningBackend::row_matches_structural(std::size_t frag_index, const rel::Row& row,
                                             const std::string& prefix,
                                             const core::AttrQuery& attr) const {
  const Fragment& fragment = fragments_[frag_index];

  auto find_leaf = [&](const std::string& rel_path) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < fragment.leaves.size(); ++i) {
      if (fragment.leaves[i].rel_path == rel_path) return kFirstLeafCol + i;
    }
    return std::nullopt;
  };
  auto find_child_fragment = [&](const std::string& rel_path) -> std::optional<std::size_t> {
    for (const ChildFragment& child : fragment.children) {
      if (child.rel_path == rel_path) return child.fragment;
    }
    return std::nullopt;
  };

  for (const core::ElementPredicate& pred : attr.elements()) {
    bool satisfied = false;
    const std::string rel_path = prefix.empty() ? pred.name : prefix + "/" + pred.name;

    // Attribute-element on a leaf fragment (the row itself holds the value).
    if (fragment.leaf_value && prefix.empty() && fragment.root->name() == pred.name) {
      satisfied = value_satisfies(row[kFirstLeafCol].as_string(), pred);
    }
    // Inlined leaf column.
    if (!satisfied) {
      if (const auto col = find_leaf(rel_path)) {
        satisfied = !row[*col].is_null() && value_satisfies(row[*col].as_string(), pred);
      }
    }
    // Repeatable leaf: child leaf fragment — one join.
    if (!satisfied) {
      if (const auto child_frag = find_child_fragment(rel_path)) {
        const rel::Table& child_table = db_.require_table(fragments_[*child_frag].table);
        for (const rel::RowId id : child_rows(*child_frag,
                                              static_cast<std::int64_t>(frag_index),
                                              row[kRowIdCol].as_int())) {
          const rel::Row& child_row = child_table.row(id);
          if (value_satisfies(child_row[kFirstLeafCol].as_string(), pred)) {
            satisfied = true;
            break;
          }
        }
      }
    }
    if (!satisfied) return false;
  }

  for (const core::AttrQuery& sub : attr.sub_attributes()) {
    if (!sub.source().empty()) return false;
    const std::string rel_path = prefix.empty() ? sub.name() : prefix + "/" + sub.name();
    bool found = false;
    if (const auto child_frag = find_child_fragment(rel_path)) {
      // Repeatable sub-attribute: its own fragment — one join per candidate.
      const rel::Table& child_table = db_.require_table(fragments_[*child_frag].table);
      for (const rel::RowId id : child_rows(*child_frag,
                                            static_cast<std::int64_t>(frag_index),
                                            row[kRowIdCol].as_int())) {
        if (row_matches_structural(*child_frag, child_table.row(id), "", sub)) {
          found = true;
          break;
        }
      }
    } else {
      // Inlined sub-attribute: same row, deeper prefix. Presence means at
      // least one of its inlined leaves is non-NULL.
      bool present = false;
      for (std::size_t i = 0; i < fragment.leaves.size(); ++i) {
        if (util::starts_with(fragment.leaves[i].rel_path, rel_path + "/") &&
            !row[kFirstLeafCol + i].is_null()) {
          present = true;
          break;
        }
      }
      if (present && row_matches_structural(frag_index, row, rel_path, sub)) found = true;
    }
    if (!found) return false;
  }
  return true;
}

bool InliningBackend::row_matches_dynamic(std::size_t frag_index, const rel::Row& row,
                                          const core::AttrQuery& attr) const {
  const core::DynamicConvention& c = partition_.convention();
  const Fragment& fragment = fragments_[frag_index];

  // Locate the recursive item fragment below this fragment.
  std::optional<std::size_t> item_frag;
  for (const ChildFragment& child : fragment.children) {
    if (child.rel_path == c.item_tag) item_frag = child.fragment;
  }
  if (!item_frag) return attr.elements().empty() && attr.sub_attributes().empty();

  const Fragment& items = fragments_[*item_frag];
  const rel::Table& item_table = db_.require_table(items.table);
  auto item_leaf = [&](const std::string& name) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < items.leaves.size(); ++i) {
      if (items.leaves[i].rel_path == name) return kFirstLeafCol + i;
    }
    return std::nullopt;
  };
  const auto name_col = item_leaf(c.item_name);
  const auto source_col = item_leaf(c.item_source);
  const auto value_col = item_leaf(c.item_value);
  if (!name_col) return false;

  auto leaf_text = [&](const rel::Row& item_row,
                       const std::optional<std::size_t>& col) -> std::string {
    if (!col || item_row[*col].is_null()) return {};
    return item_row[*col].as_string();
  };
  auto has_sub_items = [&](const rel::Row& item_row) {
    return !child_rows(*item_frag, static_cast<std::int64_t>(*item_frag),
                       item_row[kRowIdCol].as_int())
                .empty();
  };

  const std::vector<rel::RowId> my_items = child_rows(
      *item_frag, static_cast<std::int64_t>(frag_index), row[kRowIdCol].as_int());

  for (const core::ElementPredicate& pred : attr.elements()) {
    bool satisfied = false;
    for (const rel::RowId id : my_items) {
      const rel::Row& item_row = item_table.row(id);
      if (leaf_text(item_row, name_col) != pred.name) continue;
      if (!pred.source.empty() && leaf_text(item_row, source_col) != pred.source) continue;
      if (has_sub_items(item_row)) continue;  // sub-attribute, not an element
      if (value_satisfies(leaf_text(item_row, value_col), pred)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }

  for (const core::AttrQuery& sub : attr.sub_attributes()) {
    bool found = false;
    for (const rel::RowId id : my_items) {
      const rel::Row& item_row = item_table.row(id);
      if (leaf_text(item_row, name_col) != sub.name()) continue;
      if (!sub.source().empty() && leaf_text(item_row, source_col) != sub.source()) continue;
      if (!has_sub_items(item_row)) continue;
      if (row_matches_dynamic(*item_frag, item_row, sub)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::vector<ObjectId> InliningBackend::query(const core::ObjectQuery& q) const {
  std::vector<std::vector<ObjectId>> per_attr;
  for (const core::AttrQuery& attr : q.attributes()) {
    std::vector<ObjectId> docs;
    for (const core::AttributeRootInfo& root : partition_.attribute_roots()) {
      if (!root.queryable) continue;
      if (root.dynamic) {
        const auto frag_it = fragment_of_.find(root.schema_node);
        if (frag_it == fragment_of_.end()) continue;
        const Fragment& fragment = fragments_[frag_it->second];
        const rel::Table& table = db_.require_table(fragment.table);
        const core::DynamicConvention& c = partition_.convention();
        const std::string name_path = c.def_container + "/" + c.def_name;
        const std::string source_path = c.def_container + "/" + c.def_source;
        std::optional<std::size_t> name_col;
        std::optional<std::size_t> source_col;
        for (std::size_t i = 0; i < fragment.leaves.size(); ++i) {
          if (fragment.leaves[i].rel_path == name_path) name_col = kFirstLeafCol + i;
          if (fragment.leaves[i].rel_path == source_path) source_col = kFirstLeafCol + i;
        }
        if (!name_col || !source_col) continue;
        for (const rel::Row& row : table.rows()) {
          if (row[*name_col].is_null() ||
              row[*name_col].as_string() != attr.name()) {
            continue;
          }
          const std::string source =
              row[*source_col].is_null() ? std::string{} : row[*source_col].as_string();
          if (source != attr.source()) continue;
          if (row_matches_dynamic(frag_it->second, row, attr)) {
            docs.push_back(row[kDocCol].as_int());
          }
        }
        continue;
      }
      if (root.tag != attr.name() || !attr.source().empty()) continue;
      const auto frag_it = fragment_of_.find(root.schema_node);
      if (frag_it != fragment_of_.end()) {
        // The attribute root is a fragment root (repeatable attribute).
        const rel::Table& table = db_.require_table(fragments_[frag_it->second].table);
        for (const rel::Row& row : table.rows()) {
          if (row_matches_structural(frag_it->second, row, "", attr)) {
            docs.push_back(row[kDocCol].as_int());
          }
        }
      } else {
        // Inlined into the document-root fragment (ancestors are never
        // repeatable, so the enclosing fragment is always fragment 0).
        std::string prefix = root.path;  // path from the schema root
        const rel::Table& table = db_.require_table(fragments_[0].table);
        for (const rel::Row& row : table.rows()) {
          if (row_matches_structural(0, row, prefix, attr)) {
            docs.push_back(row[kDocCol].as_int());
          }
        }
      }
    }
    std::sort(docs.begin(), docs.end());
    docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
    per_attr.push_back(std::move(docs));
  }
  if (per_attr.empty()) return {};
  std::vector<ObjectId> out = per_attr.front();
  for (std::size_t i = 1; i < per_attr.size(); ++i) {
    std::vector<ObjectId> merged;
    std::set_intersection(out.begin(), out.end(), per_attr[i].begin(), per_attr[i].end(),
                          std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

void InliningBackend::emit_region(std::string& out, std::size_t frag_index,
                                  const rel::Row& row, const xml::SchemaNode& node,
                                  const std::string& prefix) const {
  const Fragment& fragment = fragments_[frag_index];
  for (const auto& child : node.children()) {
    const std::string rel_path =
        prefix.empty() ? child->name() : prefix + "/" + child->name();
    if (child->repeatable() || child->recursive()) {
      // Child fragment rows, in sibling order.
      for (const ChildFragment& link : fragment.children) {
        if (link.rel_path != rel_path) continue;
        const rel::Table& child_table = db_.require_table(fragments_[link.fragment].table);
        std::vector<rel::RowId> ids = child_rows(
            link.fragment, static_cast<std::int64_t>(frag_index), row[kRowIdCol].as_int());
        std::sort(ids.begin(), ids.end(), [&](rel::RowId a, rel::RowId b) {
          return child_table.row(a)[kOrdCol].as_int() < child_table.row(b)[kOrdCol].as_int();
        });
        for (const rel::RowId id : ids) {
          emit_fragment(out, link.fragment, child_table.row(id));
        }
      }
      continue;
    }
    if (child->is_leaf()) {
      for (std::size_t i = 0; i < fragment.leaves.size(); ++i) {
        if (fragment.leaves[i].rel_path != rel_path) continue;
        const rel::Value& value = row[kFirstLeafCol + i];
        if (!value.is_null()) {
          xml::append_open_tag(out, child->name(), {});
          out += xml::escape_text(value.as_string());
          xml::append_close_tag(out, child->name());
        }
      }
      continue;
    }
    // Inlined interior: emit only when it has any content below.
    std::string inner;
    emit_region(inner, frag_index, row, *child, rel_path);
    if (!inner.empty()) {
      xml::append_open_tag(out, child->name(), {});
      out += inner;
      xml::append_close_tag(out, child->name());
    }
  }
}

void InliningBackend::emit_fragment(std::string& out, std::size_t frag_index,
                                    const rel::Row& row) const {
  const Fragment& fragment = fragments_[frag_index];
  xml::append_open_tag(out, fragment.root->name(), {});
  if (fragment.leaf_value) {
    out += xml::escape_text(row[kFirstLeafCol].as_string());
  } else {
    emit_region(out, frag_index, row, *fragment.root, "");
  }
  if (fragment.root->recursive()) {
    // Nested instances of the recursive element come after the region.
    const rel::Table& table = db_.require_table(fragment.table);
    std::vector<rel::RowId> ids = child_rows(
        frag_index, static_cast<std::int64_t>(frag_index), row[kRowIdCol].as_int());
    std::sort(ids.begin(), ids.end(), [&](rel::RowId a, rel::RowId b) {
      return table.row(a)[kOrdCol].as_int() < table.row(b)[kOrdCol].as_int();
    });
    for (const rel::RowId id : ids) {
      emit_fragment(out, frag_index, table.row(id));
    }
  }
  xml::append_close_tag(out, fragment.root->name());
}

std::string InliningBackend::reconstruct(ObjectId id) const {
  const rel::Table& root_table = db_.require_table(fragments_[0].table);
  const rel::Index* by_doc = root_table.index("idx_doc");
  const auto rows = by_doc->lookup(rel::Key{{rel::Value(id)}});
  if (rows.empty()) return {};
  std::string out;
  emit_fragment(out, 0, root_table.row(rows.front()));
  return out;
}

}  // namespace hxrc::baselines
