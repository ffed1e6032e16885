#include "fed/merge.hpp"

#include <algorithm>

#include "core/service.hpp"
#include "util/string_util.hpp"

namespace hxrc::fed {

namespace {

/// Index just past the '>' closing the tag that opens at `pos` (quoted
/// values may legally contain '>').
std::size_t tag_end(std::string_view s, std::size_t pos) {
  const std::size_t end = core::scan_root_tag(s, {}, pos).end;
  if (end == std::string_view::npos) throw FedError("unterminated tag in shard response");
  return end;
}

/// Raw value of the root tag's `name` attribute; empty when absent.
std::string_view root_attr(std::string_view xml, std::string_view name) {
  if (xml.empty() || xml[0] != '<') throw FedError("shard payload is not XML");
  const core::RootTagScan scan = core::scan_root_tag(xml, name);
  if (scan.end == std::string_view::npos) throw FedError("unterminated tag in shard response");
  return scan.value;
}

std::uint64_t parse_u64(std::string_view text, const char* what) {
  if (text.empty()) throw FedError(std::string("missing ") + what);
  const std::optional<std::uint64_t> value = parse_count(text);
  if (!value) throw FedError(std::string("non-numeric ") + what);
  return *value;
}

bool consume(std::string_view s, std::size_t& pos, std::string_view token) {
  if (s.compare(pos, token.size(), token) != 0) return false;
  pos += token.size();
  return true;
}

/// Position of the `</result>` matching an already-consumed `<result ...>`
/// opener. Tracks nesting so stored documents containing their own
/// <result> elements cannot desynchronize the scan (response text is
/// XML-escaped, so every '<' begins a real tag).
std::size_t matching_result_close(std::string_view s, std::size_t pos) {
  int depth = 1;
  while (true) {
    pos = s.find('<', pos);
    if (pos == std::string_view::npos) {
      throw FedError("unterminated <result> in shard response");
    }
    if (s.compare(pos, 9, "</result>") == 0) {
      if (--depth == 0) return pos;
      pos += 9;
      continue;
    }
    if (s.compare(pos, 7, "<result") == 0 && pos + 7 < s.size()) {
      const char next = s[pos + 7];
      if (next == '>' || next == ' ' || next == '\t' || next == '/' ||
          next == '\n' || next == '\r') {
        const std::size_t end = tag_end(s, pos);
        if (s[end - 2] != '/') ++depth;  // self-closing tags don't nest
        pos = end;
        continue;
      }
    }
    ++pos;
  }
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text) {
  const std::optional<std::int64_t> value = util::parse_int(text);
  if (!value || *value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*value);
}

std::uint32_t placement_shard(std::string_view name, std::uint32_t nshards) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h % nshards);
}

ParsedResponse parse_response(std::string_view response) {
  static constexpr std::string_view kOpen = "<catalogResponse";
  static constexpr std::string_view kClose = "</catalogResponse>";
  if (response.rfind(kOpen, 0) != 0) {
    throw FedError("shard response is not a <catalogResponse>");
  }
  const std::size_t body = tag_end(response, 0);
  const std::size_t end = response.rfind(kClose);
  if (end == std::string_view::npos || end < body) {
    throw FedError("shard response envelope is truncated");
  }
  ParsedResponse parsed;
  parsed.payload = response.substr(body, end - body);
  const std::string_view status = root_attr(response, "status");
  if (status == "ok") {
    parsed.ok = true;
    parsed.version = parse_u64(root_attr(response, "version"), "response version");
  } else if (status == "error") {
    parsed.code = std::string(root_attr(response, "code"));
  } else {
    throw FedError("shard response has unknown status '" + std::string(status) +
                   "'");
  }
  return parsed;
}

QueryPayload parse_query_payload(std::string_view payload, bool ids_only) {
  QueryPayload page;
  std::size_t pos = 0;
  if (ids_only) {
    if (!consume(payload, pos, "<objectIDs>")) {
      throw FedError("queryIds payload missing <objectIDs>");
    }
    while (consume(payload, pos, "<objectID>")) {
      const std::size_t end = payload.find("</objectID>", pos);
      if (end == std::string_view::npos) {
        throw FedError("unterminated <objectID>");
      }
      page.ids.push_back(parse_u64(payload.substr(pos, end - pos), "objectID"));
      pos = end + 11;
    }
    if (!consume(payload, pos, "</objectIDs>")) {
      throw FedError("queryIds payload missing </objectIDs>");
    }
  } else {
    if (!consume(payload, pos, "<results>")) {
      throw FedError("query payload missing <results>");
    }
    while (consume(payload, pos, "<result objectID=\"")) {
      const std::size_t id_end = payload.find('"', pos);
      if (id_end == std::string_view::npos) {
        throw FedError("unterminated objectID attribute");
      }
      ResultSpan span;
      span.lid = parse_u64(payload.substr(pos, id_end - pos), "objectID");
      std::size_t body = id_end + 1;
      if (!consume(payload, body, ">")) {
        throw FedError("malformed <result> opening tag");
      }
      const std::size_t close = matching_result_close(payload, body);
      span.body = payload.substr(body, close - body);
      page.results.push_back(span);
      pos = close + 9;
    }
    if (!consume(payload, pos, "</results>")) {
      throw FedError("query payload missing </results>");
    }
  }
  if (consume(payload, pos, "<nextCursor>")) {
    const std::size_t end = payload.find("</nextCursor>", pos);
    if (end == std::string_view::npos) throw FedError("unterminated <nextCursor>");
    // Cursor strings are "HXC1.<hex>.<hex>" — no XML-escapable bytes, so
    // the escaped wire form is the literal cursor.
    page.next_cursor = std::string(payload.substr(pos, end - pos));
    pos = end + 13;
  }
  if (pos != payload.size()) {
    throw FedError("trailing bytes after query payload");
  }
  return page;
}

std::string encode_fed_cursor(const FedCursor& cursor) {
  std::string out = "HXF1";
  core::append_hex_field(out, cursor.shard_count);
  core::append_hex_field(out, cursor.serving_mask);
  core::append_hex_field(out, cursor.legs.size());
  for (const FedCursorLeg& leg : cursor.legs) {
    core::append_hex_field(out, leg.shard);
    core::append_hex_field(out, leg.epoch);
    core::append_hex_field(out, leg.after_lid);
  }
  return out;
}

bool decode_fed_cursor(std::string_view text, FedCursor& cursor) {
  if (!text.starts_with("HXF1.")) return false;
  std::size_t pos = 4;
  std::uint64_t shards = 0, mask = 0, count = 0;
  if (!core::take_hex_field(text, pos, shards) || !core::take_hex_field(text, pos, mask) ||
      !core::take_hex_field(text, pos, count)) {
    return false;
  }
  if (shards == 0 || shards > 64 || count > shards) return false;
  cursor.shard_count = static_cast<std::uint32_t>(shards);
  cursor.serving_mask = mask;
  cursor.legs.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    FedCursorLeg leg;
    std::uint64_t shard = 0;
    if (!core::take_hex_field(text, pos, shard) ||
        !core::take_hex_field(text, pos, leg.epoch) ||
        !core::take_hex_field(text, pos, leg.after_lid)) {
      return false;
    }
    if (shard >= shards) return false;
    leg.shard = static_cast<std::uint32_t>(shard);
    cursor.legs.push_back(leg);
  }
  return pos == text.size();
}

MergeOutput merge_query_pages(const std::vector<MergeInput>& inputs,
                              std::uint32_t nshards, std::size_t limit,
                              bool ids_only) {
  MergeOutput out;
  out.payload = ids_only ? "<objectIDs>" : "<results>";
  std::vector<std::size_t> next(inputs.size(), 0);
  std::size_t taken = 0;
  while (limit == 0 || taken < limit) {
    // Linear head scan: shard counts are small (<= 64), a heap would lose.
    std::size_t best = inputs.size();
    std::uint64_t best_gid = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const MergeInput& in = inputs[i];
      const std::size_t have =
          ids_only ? in.page.ids.size() : in.page.results.size();
      if (next[i] >= have) continue;
      const std::uint64_t lid =
          ids_only ? in.page.ids[next[i]] : in.page.results[next[i]].lid;
      const std::uint64_t gid = gid_of(lid, in.shard, nshards);
      if (best == inputs.size() || gid < best_gid) {
        best = i;
        best_gid = gid;
      }
    }
    if (best == inputs.size()) break;  // every stream drained
    if (ids_only) {
      out.payload += "<objectID>" + std::to_string(best_gid) + "</objectID>";
    } else {
      const ResultSpan& span = inputs[best].page.results[next[best]];
      out.payload += "<result objectID=\"" + std::to_string(best_gid) + "\">";
      out.payload += span.body;
      out.payload += "</result>";
    }
    ++next[best];
    ++taken;
  }
  out.payload += ids_only ? "</objectIDs>" : "</results>";

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const MergeInput& in = inputs[i];
    const std::size_t have = ids_only ? in.page.ids.size() : in.page.results.size();
    const bool leftover = next[i] < have;
    if (!leftover && !in.more) continue;  // shard fully consumed
    FedCursorLeg leg;
    leg.shard = in.shard;
    leg.epoch = in.version;
    if (next[i] == 0) {
      leg.after_lid = kNoLid;
    } else {
      const std::size_t last = next[i] - 1;
      leg.after_lid = ids_only ? in.page.ids[last] : in.page.results[last].lid;
    }
    out.legs.push_back(leg);
  }
  out.truncated = !out.legs.empty();
  return out;
}

std::string merge_stats_payload(const std::vector<ShardStatsInput>& shards) {
  static constexpr const char* kSummed[] = {"objects", "attributes", "elements",
                                            "clobs", "deleted"};
  std::uint64_t sums[5] = {0, 0, 0, 0, 0};
  std::uint64_t definitions = 0;
  std::uint64_t version = 0;
  std::string children;
  for (const ShardStatsInput& shard : shards) {
    if (shard.payload.rfind("<stats", 0) != 0) {
      throw FedError("shard stats payload missing <stats>");
    }
    std::string child = "<shard index=\"" + std::to_string(shard.shard) +
                        "\" endpoint=\"" +
                        (shard.replica ? "replica" : "primary") + "\"";
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string_view value = root_attr(shard.payload, kSummed[i]);
      sums[i] += parse_u64(value, kSummed[i]);
      child += ' ';
      child += kSummed[i];
      child += "=\"";
      child += value;
      child += '"';
    }
    const std::uint64_t defs =
        parse_u64(root_attr(shard.payload, "definitions"), "definitions");
    const std::uint64_t ver =
        parse_u64(root_attr(shard.payload, "version"), "version");
    definitions = std::max(definitions, defs);
    version = std::max(version, ver);
    child += " definitions=\"" + std::to_string(defs) + "\" version=\"" +
             std::to_string(ver) + "\"/>";
    children += child;
  }
  std::string payload = "<stats";
  for (std::size_t i = 0; i < 5; ++i) {
    payload += ' ';
    payload += kSummed[i];
    payload += "=\"";
    payload += std::to_string(sums[i]);
    payload += '"';
  }
  payload += " definitions=\"" + std::to_string(definitions) + "\"";
  payload += " version=\"" + std::to_string(version) + "\"";
  payload += " shards=\"" + std::to_string(shards.size()) + "\">";
  payload += children;
  payload += "</stats>";
  return payload;
}

std::string rewrite_root_attr(std::string_view xml, std::string_view name,
                              std::string_view value) {
  if (xml.empty() || xml[0] != '<') throw FedError("request is not XML");
  const core::RootTagScan scan = core::scan_root_tag(xml, name);
  if (scan.value_pos == std::string_view::npos) {
    throw FedError("request has no " + std::string(name) + " attribute");
  }
  // Only the bytes between the quotes change: the quote character stays.
  std::string out(xml.substr(0, scan.value_pos));
  out += value;
  out += xml.substr(scan.value_pos + scan.value.size());
  return out;
}

}  // namespace hxrc::fed
