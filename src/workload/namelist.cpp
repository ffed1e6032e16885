#include "workload/namelist.hpp"

#include <map>

#include "util/string_util.hpp"

namespace hxrc::workload {

namespace {

/// Strips a trailing Fortran comment (unquoted '!').
std::string_view strip_comment(std::string_view line) {
  bool in_quote = false;
  char quote = '\0';
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quote) {
      if (c == quote) in_quote = false;
    } else if (c == '\'' || c == '"') {
      in_quote = true;
      quote = c;
    } else if (c == '!') {
      return line.substr(0, i);
    }
  }
  return line;
}

std::vector<std::string> split_values(std::string_view raw) {
  std::vector<std::string> values;
  std::string current;
  bool in_quote = false;
  char quote = '\0';
  auto flush = [&] {
    const std::string_view trimmed = util::trim(current);
    if (!trimmed.empty()) values.emplace_back(trimmed);
    current.clear();
  };
  for (const char c : raw) {
    if (in_quote) {
      if (c == quote) {
        in_quote = false;
      } else {
        current.push_back(c);
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      in_quote = true;
      quote = c;
      continue;
    }
    if (c == ',') {
      flush();
      continue;
    }
    current.push_back(c);
  }
  if (in_quote) throw NamelistError("unterminated quoted value");
  flush();
  return values;
}

}  // namespace

std::vector<NamelistGroup> parse_namelist(std::string_view text) {
  std::vector<NamelistGroup> groups;
  NamelistGroup* current = nullptr;

  for (const std::string_view raw_line : util::split(text, '\n')) {
    const std::string_view line = util::trim(strip_comment(raw_line));
    if (line.empty()) continue;

    if (line.front() == '&') {
      if (current != nullptr) throw NamelistError("nested namelist group");
      groups.push_back(NamelistGroup{std::string(util::trim(line.substr(1))), {}});
      if (groups.back().name.empty()) throw NamelistError("group without a name");
      current = &groups.back();
      continue;
    }
    if (line == "/" || line == "&end" || line == "&END") {
      if (current == nullptr) throw NamelistError("group terminator outside a group");
      current = nullptr;
      continue;
    }
    if (current == nullptr) {
      throw NamelistError("entry outside a namelist group: '" + std::string(line) + "'");
    }
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw NamelistError("expected key = value: '" + std::string(line) + "'");
    }
    NamelistEntry entry;
    entry.key = std::string(util::trim(line.substr(0, eq)));
    if (entry.key.empty()) throw NamelistError("empty key");
    std::string_view value_part = util::trim(line.substr(eq + 1));
    if (!value_part.empty() && value_part.back() == ',') {
      value_part.remove_suffix(1);  // trailing continuation comma
    }
    entry.values = split_values(value_part);
    current->entries.push_back(std::move(entry));
  }
  if (current != nullptr) throw NamelistError("unterminated namelist group");
  return groups;
}

xml::NodePtr namelist_group_to_detailed(const NamelistGroup& group,
                                        const std::string& model,
                                        const core::DynamicConvention& c) {
  xml::NodePtr detailed = xml::Node::element("detailed");
  xml::Node* container = detailed->add_element(c.def_container);
  container->add_element(c.def_name, group.name);
  container->add_element(c.def_source, model);

  // Derived-type components ("a%b%c") become nested sub-attribute items; we
  // group entries by their leading components to build the item tree.
  struct ItemTree {
    std::map<std::string, ItemTree> children;
    std::vector<std::pair<std::string, std::string>> elements;  // (name, value)
  };
  ItemTree tree;
  for (const NamelistEntry& entry : group.entries) {
    const auto components = util::split(entry.key, '%');
    ItemTree* node = &tree;
    for (std::size_t i = 0; i + 1 < components.size(); ++i) {
      node = &node->children[std::string(components[i])];
    }
    for (const std::string& value : entry.values) {
      node->elements.emplace_back(std::string(components.back()), value);
    }
  }

  const auto emit = [&](auto&& self, xml::Node& parent, const ItemTree& node) -> void {
    for (const auto& [name, value] : node.elements) {
      xml::Node* item = parent.add_element(c.item_tag);
      item->add_element(c.item_name, name);
      item->add_element(c.item_source, model);
      item->add_element(c.item_value, value);
    }
    for (const auto& [name, child] : node.children) {
      xml::Node* item = parent.add_element(c.item_tag);
      item->add_element(c.item_name, name);
      item->add_element(c.item_source, model);
      self(self, *item, child);
    }
  };
  emit(emit, *detailed, tree);
  return detailed;
}

}  // namespace hxrc::workload
