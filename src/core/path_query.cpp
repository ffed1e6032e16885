#include "core/path_query.hpp"

#include <cctype>
#include <optional>
#include <vector>

namespace hxrc::core {

namespace {

// ---- parse tree ----

struct Term;

struct Pred {
  std::vector<Term> terms;  // the 'and' conjunction
};

/// One relative path step inside a predicate, with its own predicates.
struct RelStep {
  std::string name;  // "." means the context node's own text
  std::vector<Pred> preds;
};

struct Term {
  std::vector<RelStep> rel;  // the relative path
  bool has_cmp = false;
  CompareOp op = CompareOp::kEq;
  std::string literal;
};

struct Seg {
  std::string name;
  std::vector<Pred> preds;
};

struct ParsedQuery {
  bool descendant = false;  // started with '//'
  std::vector<Seg> segs;
};

class PathParser {
 public:
  explicit PathParser(std::string_view input) : input_(input) {}

  ParsedQuery parse() {
    ParsedQuery query;
    if (consume("//")) {
      query.descendant = true;
    } else {
      consume("/");
    }
    for (;;) {
      query.segs.push_back(parse_seg());
      if (!consume("/")) break;
    }
    skip_space();
    if (!at_end()) fail("trailing characters");
    if (query.segs.empty()) fail("empty path");
    return query;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw PathQueryError(message + " at offset " + std::to_string(pos_) + " in '" +
                         std::string(input_) + "'");
  }

  bool at_end() const noexcept { return pos_ >= input_.size(); }
  char peek() const { return at_end() ? '\0' : input_[pos_]; }

  bool consume(std::string_view token) noexcept {
    if (input_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void skip_space() noexcept {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  static bool is_name_char(char c) noexcept {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.' ||
           c == ':';
  }

  std::string parse_name() {
    skip_space();
    const std::size_t start = pos_;
    while (!at_end() && is_name_char(peek())) ++pos_;
    if (pos_ == start) fail("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Seg parse_seg() {
    Seg seg;
    seg.name = parse_name();
    while (!at_end() && peek() == '[') seg.preds.push_back(parse_pred());
    return seg;
  }

  Pred parse_pred() {
    Pred pred;
    if (!consume("[")) fail("expected '['");
    for (;;) {
      pred.terms.push_back(parse_term());
      skip_space();
      if (consume("and")) continue;
      break;
    }
    skip_space();
    if (!consume("]")) fail("expected ']'");
    return pred;
  }

  Term parse_term() {
    Term term;
    skip_space();
    if (consume(".")) {
      term.rel.push_back(RelStep{".", {}});
    } else {
      for (;;) {
        RelStep step;
        step.name = parse_name();
        while (!at_end() && peek() == '[') step.preds.push_back(parse_pred());
        term.rel.push_back(std::move(step));
        if (!consume("/")) break;
      }
    }
    skip_space();
    static constexpr std::pair<std::string_view, CompareOp> kOps[] = {
        {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"=", CompareOp::kEq},  {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    for (const auto& [text, op] : kOps) {
      if (consume(text)) {
        term.has_cmp = true;
        term.op = op;
        term.literal = parse_literal();
        return term;
      }
    }
    return term;  // existence only
  }

  std::string parse_literal() {
    skip_space();
    if (at_end()) fail("expected a literal");
    const char c = peek();
    if (c == '\'' || c == '"') {
      ++pos_;
      const std::size_t start = pos_;
      while (!at_end() && peek() != c) ++pos_;
      if (at_end()) fail("unterminated string literal");
      std::string value(input_.substr(start, pos_ - start));
      ++pos_;
      return value;
    }
    const std::size_t start = pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.' ||
                         peek() == '-' || peek() == '+' || peek() == 'e' || peek() == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a literal");
    return std::string(input_.substr(start, pos_ - start));
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

// ---- translation ----

rel::Value literal_value(const std::string& text) { return rel::Value(text); }

/// Translates predicates on a STRUCTURAL attribute into criteria.
void translate_structural_preds(const std::vector<Pred>& preds, const std::string& self_tag,
                                AttrQuery& out) {
  for (const Pred& pred : preds) {
    for (const Term& term : pred.terms) {
      if (term.rel.empty()) throw PathQueryError("empty predicate term");
      if (term.rel.size() == 1 && term.rel[0].name == ".") {
        // Attribute-element self comparison.
        if (!term.has_cmp) continue;
        out.add_element(self_tag, literal_value(term.literal), term.op);
        continue;
      }
      // Nested relative path a/b/c: a chain of sub-attributes ending at an
      // element. A single leaf name is an element predicate.
      if (term.rel.size() == 1 && term.rel[0].preds.empty()) {
        if (term.has_cmp) {
          out.add_element(term.rel[0].name, literal_value(term.literal), term.op);
        } else {
          out.require_element(term.rel[0].name);
        }
        continue;
      }
      // Multi-step or predicated step: build nested sub-attribute criteria.
      // Walk all steps but the last as sub-attributes.
      std::vector<AttrQuery> subs;
      subs.reserve(term.rel.size());
      for (std::size_t i = 0; i + 1 < term.rel.size(); ++i) {
        AttrQuery sub(term.rel[i].name);
        translate_structural_preds(term.rel[i].preds, term.rel[i].name, sub);
        subs.push_back(std::move(sub));
      }
      const RelStep& last = term.rel.back();
      if (!last.preds.empty()) {
        // The last step is itself a sub-attribute with its own predicates.
        AttrQuery sub(last.name);
        translate_structural_preds(last.preds, last.name, sub);
        if (term.has_cmp) {
          throw PathQueryError("comparison on an interior step '" + last.name + "'");
        }
        subs.push_back(std::move(sub));
      }
      // Fold the chain from the innermost outward.
      if (subs.empty()) {
        // last is a plain leaf under a chain of subs — handled above only
        // when rel.size()==1; here rel.size()>1 and subs holds the chain.
        throw PathQueryError("unsupported predicate shape");
      }
      // If the last step was a leaf (no preds) and there are chain subs,
      // attach the element predicate to the innermost sub.
      if (last.preds.empty() && term.rel.size() > 1) {
        AttrQuery& innermost = subs.back();
        if (term.has_cmp) {
          innermost.add_element(last.name, literal_value(term.literal), term.op);
        } else {
          innermost.require_element(last.name);
        }
      }
      for (std::size_t i = subs.size(); i-- > 1;) {
        subs[i - 1].add_attribute(std::move(subs[i]));
      }
      out.add_attribute(std::move(subs[0]));
    }
  }
}

/// Translates the predicates of one dynamic item (an <attr> step) into an
/// AttrQuery (sub-attribute) or element criteria on `parent`.
void translate_dynamic_item(const RelStep& item, const DynamicConvention& c,
                            AttrQuery& parent);

/// Extracts name/source/value terms from an item's predicate list.
struct ItemFacts {
  std::string name;
  std::string source;
  bool has_value = false;
  CompareOp op = CompareOp::kEq;
  std::string value;
  std::vector<const RelStep*> nested_items;
};

ItemFacts item_facts(const RelStep& item, const DynamicConvention& c) {
  ItemFacts facts;
  for (const Pred& pred : item.preds) {
    for (const Term& term : pred.terms) {
      if (term.rel.empty()) throw PathQueryError("empty dynamic predicate term");
      const RelStep& head = term.rel[0];
      if (head.name == c.item_name && term.has_cmp && term.op == CompareOp::kEq) {
        facts.name = term.literal;
        continue;
      }
      if (head.name == c.item_source && term.has_cmp && term.op == CompareOp::kEq) {
        facts.source = term.literal;
        continue;
      }
      if (head.name == c.item_value) {
        facts.has_value = true;
        if (term.has_cmp) {
          facts.op = term.op;
          facts.value = term.literal;
        }
        continue;
      }
      if (head.name == c.item_tag) {
        facts.nested_items.push_back(&head);
        continue;
      }
      throw PathQueryError("unsupported dynamic item term '" + head.name + "'");
    }
  }
  if (facts.name.empty()) {
    throw PathQueryError("dynamic item predicate must constrain " + c.item_name);
  }
  return facts;
}

void translate_dynamic_item(const RelStep& item, const DynamicConvention& c,
                            AttrQuery& parent) {
  const ItemFacts facts = item_facts(item, c);
  if (!facts.nested_items.empty()) {
    AttrQuery sub(facts.name, facts.source);
    if (facts.has_value) {
      throw PathQueryError("a dynamic item cannot be both sub-attribute and element");
    }
    for (const RelStep* nested : facts.nested_items) {
      translate_dynamic_item(*nested, c, sub);
    }
    parent.add_attribute(std::move(sub));
    return;
  }
  if (facts.has_value && !facts.value.empty()) {
    parent.add_element(facts.name, facts.source, literal_value(facts.value), facts.op);
  } else {
    parent.require_element(facts.name, facts.source);
  }
}

AttrQuery translate_dynamic(const Seg& seg, const DynamicConvention& c) {
  // Identity comes from def_container/def_name + def_source terms.
  std::string name;
  std::string source;
  std::vector<const RelStep*> items;
  for (const Pred& pred : seg.preds) {
    for (const Term& term : pred.terms) {
      if (term.rel.empty()) throw PathQueryError("empty dynamic predicate term");
      const RelStep& head = term.rel[0];
      if (head.name == c.def_container && term.rel.size() == 2 && term.has_cmp &&
          term.op == CompareOp::kEq) {
        if (term.rel[1].name == c.def_name) {
          name = term.literal;
          continue;
        }
        if (term.rel[1].name == c.def_source) {
          source = term.literal;
          continue;
        }
      }
      if (head.name == c.item_tag && term.rel.size() == 1) {
        items.push_back(&head);
        continue;
      }
      throw PathQueryError("unsupported predicate on dynamic attribute root");
    }
  }
  if (name.empty()) {
    throw PathQueryError("dynamic attribute query must constrain " + c.def_container +
                         "/" + c.def_name);
  }
  AttrQuery attr(name, source);
  for (const RelStep* item : items) {
    translate_dynamic_item(*item, c, attr);
  }
  return attr;
}

AttrQuery translate(const Partition& partition, const ParsedQuery& parsed) {
  // Locate the attribute root the path denotes.
  const AttributeRootInfo* root = nullptr;
  if (parsed.descendant && parsed.segs.size() == 1) {
    // '//name': unique attribute root with that tag.
    for (const AttributeRootInfo& candidate : partition.attribute_roots()) {
      if (candidate.tag != parsed.segs[0].name) continue;
      if (root != nullptr) {
        throw PathQueryError("'//" + parsed.segs[0].name + "' is ambiguous");
      }
      root = &candidate;
    }
  } else {
    // Explicit path; intermediate steps must be bare ancestors. The leading
    // schema-root segment may be included or omitted.
    std::string path;
    std::size_t start = 0;
    if (parsed.segs[0].name == partition.schema().root().name()) start = 1;
    for (std::size_t i = start; i < parsed.segs.size(); ++i) {
      if (i + 1 < parsed.segs.size() && !parsed.segs[i].preds.empty()) {
        throw PathQueryError("predicates are only supported on the metadata attribute ('" +
                             parsed.segs[i].name + "')");
      }
      if (!path.empty()) path.push_back('/');
      path += parsed.segs[i].name;
    }
    for (const AttributeRootInfo& candidate : partition.attribute_roots()) {
      if (candidate.path == path) root = &candidate;
    }
  }
  if (root == nullptr) {
    throw PathQueryError("path does not denote a metadata attribute");
  }

  const Seg& attr_seg = parsed.segs.back();
  if (root->dynamic) {
    return translate_dynamic(attr_seg, partition.convention());
  }
  AttrQuery attr(root->tag);
  translate_structural_preds(attr_seg.preds, root->tag, attr);
  return attr;
}

}  // namespace

ObjectQuery path_to_query(const Partition& partition, std::string_view expression) {
  PathParser parser(expression);
  ObjectQuery query;
  query.add_attribute(translate(partition, parser.parse()));
  return query;
}

}  // namespace hxrc::core
