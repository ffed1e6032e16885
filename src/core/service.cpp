#include "core/service.hpp"

#include <algorithm>
#include <memory>

#include "util/string_util.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace hxrc::core {

namespace {

std::string_view op_name(CompareOp op) noexcept {
  switch (op) {
    case CompareOp::kEq: return "eq";
    case CompareOp::kNe: return "ne";
    case CompareOp::kLt: return "lt";
    case CompareOp::kLe: return "le";
    case CompareOp::kGt: return "gt";
    case CompareOp::kGe: return "ge";
  }
  return "eq";
}

CompareOp op_from_name(std::string_view name) {
  if (name == "eq") return CompareOp::kEq;
  if (name == "ne") return CompareOp::kNe;
  if (name == "lt") return CompareOp::kLt;
  if (name == "le") return CompareOp::kLe;
  if (name == "gt") return CompareOp::kGt;
  if (name == "ge") return CompareOp::kGe;
  throw ValidationError("unknown comparison operator '" + std::string(name) + "'");
}

void serialize_attr(std::string& out, const AttrQuery& attr) {
  out += "<attribute name=\"" + xml::escape_attribute(attr.name()) + "\"";
  if (!attr.source().empty()) {
    out += " source=\"" + xml::escape_attribute(attr.source()) + "\"";
  }
  out += ">";
  for (const ElementPredicate& pred : attr.elements()) {
    out += "<element name=\"" + xml::escape_attribute(pred.name) + "\"";
    if (!pred.source.empty()) {
      out += " source=\"" + xml::escape_attribute(pred.source) + "\"";
    }
    if (pred.exists_only) {
      out += " exists=\"true\"/>";
    } else {
      out += " op=\"" + std::string(op_name(pred.op)) + "\">";
      out += xml::escape_text(pred.value.to_string());
      out += "</element>";
    }
  }
  for (const AttrQuery& sub : attr.sub_attributes()) {
    serialize_attr(out, sub);
  }
  out += "</attribute>";
}

/// `context` is the criterion path so far ("grid/grid-stretching"), so a
/// failed parse names exactly which criterion was at fault.
AttrQuery parse_attr(const xml::Node& node, const std::string& context) {
  const std::string_view* name = node.attribute("name");
  if (name == nullptr) {
    throw ValidationError("criterion '" + (context.empty() ? "<top-level>" : context) +
                          "': <attribute> missing name");
  }
  const std::string path =
      context.empty() ? std::string(*name) : context + "/" + std::string(*name);
  const std::string_view* source = node.attribute("source");
  AttrQuery attr(std::string(*name),
                 source == nullptr ? std::string{} : std::string(*source));

  for (const xml::Node* child : node.child_elements()) {
    if (child->name() == "element") {
      const std::string_view* elem_name = child->attribute("name");
      if (elem_name == nullptr) {
        throw ValidationError("criterion '" + path + "': <element> missing name");
      }
      const std::string_view* elem_source = child->attribute("source");
      const std::string src =
          elem_source == nullptr ? std::string{} : std::string(*elem_source);
      if (const std::string_view* exists = child->attribute("exists");
          exists != nullptr && *exists == "true") {
        attr.require_element(std::string(*elem_name), src);
        continue;
      }
      const std::string_view* op = child->attribute("op");
      const std::string text = child->text_content();
      // Values travel as text; numeric-looking values become numbers so
      // comparisons behave identically to the in-process API.
      rel::Value value;
      if (const auto num = util::parse_double(text)) {
        value = rel::Value(*num);
      } else {
        value = rel::Value(text);
      }
      try {
        attr.add_element(std::string(*elem_name), src, std::move(value),
                         op == nullptr ? CompareOp::kEq : op_from_name(*op));
      } catch (const ValidationError& e) {
        throw ValidationError("criterion '" + path + "/" + std::string(*elem_name) +
                              "': " + e.what());
      }
      continue;
    }
    if (child->name() == "attribute") {
      attr.add_attribute(parse_attr(*child, path));
      continue;
    }
    throw ValidationError("criterion '" + path + "': unexpected <" +
                          std::string(child->name()) + "> in query criteria");
  }
  return attr;
}

}  // namespace

std::string_view error_code_name(ErrorCode code) noexcept {
  for (const ErrorCodeName& entry : kErrorCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "validation";
}

std::string error_response(ErrorCode code, const std::string& message) {
  return "<catalogResponse status=\"error\" protocol=\"" +
         std::to_string(kProtocolMajor) + "\" code=\"" +
         std::string(error_code_name(code)) + "\"><message>" +
         xml::escape_text(message) + "</message></catalogResponse>";
}

const std::vector<std::string>& service_request_type_names() {
  static const std::vector<std::string> names{"ingest", "query",  "queryIds",
                                              "fetch",  "addAttribute", "define",
                                              "delete", "stats",  "other"};
  return names;
}

std::string ok_response(std::uint64_t version, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 96);  // envelope + closing tag: one allocation
  out += "<catalogResponse status=\"ok\" protocol=\"";
  out += std::to_string(kProtocolMajor);
  out += "\" version=\"";
  out += std::to_string(version);
  out += "\">";
  out += payload;
  out += "</catalogResponse>";
  return out;
}

namespace {

/// L2 insert: files the serialized response under the raw request bytes in
/// the segment of the snapshot that computed it. Entries inserted into a
/// superseded generation are harmless — only readers still pinned at that
/// epoch can find them.
void cache_response(const CatalogSnapshot& snap, std::string_view request_xml,
                    const std::string& response, bool ok, ErrorCode code) {
  if (snap.cache == nullptr) return;
  auto value = std::make_shared<CachedResponse>();
  value->body = response;
  value->ok = ok;
  value->error_code = static_cast<int>(code);
  snap.cache->insert_response(std::string(request_xml), std::move(value));
}

/// Enforces the version handshake on a parsed request root. Absent =
/// v1 (requests predating the attribute); "MAJOR" or "MAJOR.MINOR" with a
/// foreign major is refused, unknown minors under our major are fine.
void check_protocol_version(const xml::Node& request) {
  const std::string_view* declared = request.attribute("version");
  if (declared == nullptr) return;
  const std::string_view text = *declared;
  const std::size_t dot = text.find('.');
  const auto major = util::parse_int(std::string(text.substr(0, dot)));
  if (!major || *major < 1 ||
      (dot != std::string_view::npos &&
       !util::parse_int(std::string(text.substr(dot + 1))))) {
    throw ServiceError(ErrorCode::kValidation,
                       "malformed protocol version '" + std::string(text) + "'");
  }
  if (*major != kProtocolMajor) {
    throw ServiceError(ErrorCode::kUnsupportedVersion,
                       "protocol version " + std::string(text) +
                           " not supported (server speaks " +
                           std::to_string(kProtocolMajor) + ".x)");
  }
}

}  // namespace

RootTagScan scan_root_tag(std::string_view xml, std::string_view name,
                          std::size_t pos) noexcept {
  constexpr std::size_t npos = std::string_view::npos;
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  const auto skip_space = [&](std::size_t i) {
    while (i < xml.size() && is_space(xml[i])) ++i;
    return i;
  };
  RootTagScan scan;
  for (std::size_t i = pos; i < xml.size();) {
    const char c = xml[i];
    if (c == '>') {
      scan.end = i + 1;
      return scan;
    }
    std::size_t quote = npos;  // opening quote of a value to skip or capture
    bool wanted = false;
    if (c == '"' || c == '\'') {
      quote = i;
    } else if (!name.empty() && scan.value_pos == npos && i > pos && is_space(xml[i - 1]) &&
               xml.compare(i, name.size(), name) == 0) {
      std::size_t j = skip_space(i + name.size());
      if (j < xml.size() && xml[j] == '=') {
        j = skip_space(j + 1);
        if (j < xml.size() && (xml[j] == '"' || xml[j] == '\'')) {
          quote = j;
          wanted = true;
        }
      }
    }
    if (quote == npos) {
      ++i;
      continue;
    }
    const std::size_t close = xml.find(xml[quote], quote + 1);
    if (close == npos) return RootTagScan{};  // unterminated value: no end, no value
    if (wanted) {
      scan.value_pos = quote + 1;
      scan.value = xml.substr(quote + 1, close - quote - 1);
    }
    i = close + 1;
  }
  return scan;
}

std::string peek_request_attr(std::string_view request_xml, std::string_view name) {
  const RootTagScan scan = scan_root_tag(request_xml, name);
  if (scan.value.find('&') == std::string_view::npos) return std::string(scan.value);
  // Escaped value: decode it with the service's own parser, so the result
  // is what the handler will see. A malformed reference stays raw — the
  // handler rejects the request anyway.
  const char quote = request_xml[scan.value_pos - 1];
  std::string element = "<v a=";
  element += quote;
  element += scan.value;
  element += quote;
  element += "/>";
  try {
    return std::string(*xml::parse_fragment(element)->attribute("a"));
  } catch (const xml::ParseError&) {
    return std::string(scan.value);
  }
}

std::string peek_request_type(std::string_view request_xml) {
  return peek_request_attr(request_xml, "type");
}

long peek_timeout_ms(std::string_view request_xml) {
  const std::string text = peek_request_attr(request_xml, "timeoutMs");
  if (text.empty()) return -1;
  const auto value = util::parse_int(text);
  return value && *value >= 0 ? static_cast<long>(*value) : -1;
}

std::string query_to_xml(const ObjectQuery& query) {
  std::string out = "<catalogRequest type=\"query\"";
  if (!query.user().empty()) {
    out += " user=\"" + xml::escape_attribute(query.user()) + "\"";
  }
  if (query.limit() > 0) {
    out += " limit=\"" + std::to_string(query.limit()) + "\"";
  }
  if (!query.cursor().empty()) {
    out += " cursor=\"" + xml::escape_attribute(query.cursor()) + "\"";
  }
  out += ">";
  for (const AttrQuery& attr : query.attributes()) {
    serialize_attr(out, attr);
  }
  out += "</catalogRequest>";
  return out;
}

ObjectQuery query_from_xml(const xml::Node& request) {
  ObjectQuery query;
  if (const std::string_view* user = request.attribute("user")) {
    query.set_user(std::string(*user));
  }
  if (const std::string_view* limit = request.attribute("limit")) {
    const auto value = util::parse_int(*limit);
    if (!value || *value < 0) {
      throw ValidationError("bad limit attribute '" + std::string(*limit) + "'");
    }
    query.set_limit(static_cast<std::size_t>(*value));
  }
  if (const std::string_view* cursor = request.attribute("cursor")) {
    query.set_cursor(std::string(*cursor));
  }
  for (const xml::Node* child : request.child_elements()) {
    if (child->name() != "attribute") continue;
    query.add_attribute(parse_attr(*child, {}));
  }
  return query;
}

std::string CatalogService::handle(std::string_view request_xml, RequestOutcome* outcome) {
  RequestOutcome local;
  if (outcome == nullptr) outcome = &local;
  try {
    const xml::Document doc = xml::parse(request_xml);
    if (doc.root->name() != "catalogRequest") {
      throw ServiceError(ErrorCode::kParseError, "expected <catalogRequest>");
    }
    std::string response = handle_parsed(*doc.root, request_xml, outcome);
    outcome->ok = true;
    return response;
  } catch (const ServiceError& e) {
    outcome->code = e.code();
    return error_response(e.code(), e.what());
  } catch (const xml::ParseError& e) {
    outcome->code = ErrorCode::kParseError;
    return error_response(ErrorCode::kParseError, e.what());
  } catch (const StaleCursorError& e) {
    outcome->code = ErrorCode::kStaleCursor;
    return error_response(ErrorCode::kStaleCursor, e.what());
  } catch (const std::exception& e) {
    outcome->code = ErrorCode::kValidation;
    return error_response(ErrorCode::kValidation, e.what());
  }
}

std::string CatalogService::handle_parsed(const xml::Node& request,
                                          std::string_view request_xml,
                                          RequestOutcome* outcome) {
  check_protocol_version(request);
  const std::string_view* type = request.attribute("type");
  if (type == nullptr) {
    throw ServiceError(ErrorCode::kParseError, "<catalogRequest> missing type");
  }
  if (std::find(service_request_type_names().begin(), service_request_type_names().end(),
                *type) != service_request_type_names().end()) {
    outcome->type = *type;
  }
  const std::string_view* user_attr = request.attribute("user");
  const std::string user = user_attr == nullptr ? std::string{} : std::string(*user_attr);

  if (*type == "ingest") {
    const auto children = request.child_elements();
    if (children.size() != 1) {
      throw ServiceError(ErrorCode::kValidation, "ingest expects exactly one document");
    }
    const std::string_view* name = request.attribute("name");
    xml::Document doc;
    doc.root = children.front()->clone();
    const ObjectId id = catalog_.ingest(
        doc, name == nullptr ? std::string("unnamed") : std::string(*name), user);
    return ok_response(catalog_.version(),
                       "<objectID>" + std::to_string(id) + "</objectID>");
  }

  if (*type == "query" || *type == "queryIds") {
    const ObjectQuery query = query_from_xml(request);
    // One pinned snapshot for page computation AND serialization, so the L2
    // entry lands in the segment of the generation that produced it (and the
    // two can't straddle a concurrent commit).
    const MetadataCatalog::ReadGuard guard(catalog_);
    const QueryPage page = guard.query_paged(query);
    std::string payload;
    if (*type == "queryIds") {
      // Ids are ascending (query_paged guarantees it), so identical
      // requests return identical, stably-ordered pages.
      payload = "<objectIDs>";
      for (const ObjectId id : page.ids) {
        payload += "<objectID>" + std::to_string(id) + "</objectID>";
      }
      payload += "</objectIDs>";
    } else {
      payload = guard.build_response(page.ids);
    }
    if (!page.next_cursor.empty()) {
      payload += "<nextCursor>" + xml::escape_text(page.next_cursor) + "</nextCursor>";
    }
    std::string response = ok_response(page.version, payload);
    cache_response(guard.snapshot(), request_xml, response, true, ErrorCode::kValidation);
    return response;
  }

  if (*type == "fetch") {
    const std::string_view* id_text = request.attribute("objectID");
    if (id_text == nullptr) {
      throw ServiceError(ErrorCode::kValidation, "fetch requires objectID");
    }
    const auto id = util::parse_int(*id_text);
    if (!id) throw ServiceError(ErrorCode::kValidation, "bad objectID");
    // One pinned snapshot for the existence check AND the response: the
    // two cannot straddle a concurrent delete or ingest.
    const MetadataCatalog::ReadGuard guard(catalog_);
    if (*id < 0 || *id >= guard->next_object || guard->deleted->count(*id) != 0) {
      const std::string message = "object " + std::string(*id_text) + " does not exist";
      // Negative caching: the not_found response is a fact about this
      // snapshot too — repeated probes for a missing id short-circuit.
      cache_response(guard.snapshot(), request_xml,
                     error_response(ErrorCode::kNotFound, message), false,
                     ErrorCode::kNotFound);
      throw ServiceError(ErrorCode::kNotFound, message);
    }
    const std::vector<ObjectId> ids{*id};
    std::string response = ok_response(guard.epoch(), guard.build_response(ids));
    cache_response(guard.snapshot(), request_xml, response, true, ErrorCode::kValidation);
    return response;
  }

  if (*type == "addAttribute") {
    const std::string_view* id_text = request.attribute("objectID");
    const std::string_view* path = request.attribute("path");
    const auto children = request.child_elements();
    if (id_text == nullptr || path == nullptr || children.size() != 1) {
      throw ServiceError(ErrorCode::kValidation,
                         "addAttribute requires objectID, path, and one element");
    }
    const auto id = util::parse_int(*id_text);
    if (!id) throw ServiceError(ErrorCode::kValidation, "bad objectID");
    if (*id < 0 || static_cast<std::size_t>(*id) >= catalog_.object_count()) {
      throw ServiceError(ErrorCode::kNotFound,
                         "object " + std::string(*id_text) + " does not exist");
    }
    catalog_.add_attribute(*id, *path, *children.front(), user);
    return ok_response(catalog_.version(), "<added/>");
  }

  if (*type == "define") {
    const std::string_view* name = request.attribute("name");
    const std::string_view* source = request.attribute("source");
    if (name == nullptr || source == nullptr) {
      throw ServiceError(ErrorCode::kValidation, "define requires name and source");
    }
    std::vector<DynamicElementSpec> elements;
    for (const xml::Node* child : request.child_elements()) {
      if (child->name() != "element") continue;
      const std::string_view* elem_name = child->attribute("name");
      if (elem_name == nullptr) {
        throw ServiceError(ErrorCode::kValidation, "<element> missing name");
      }
      DynamicElementSpec spec;
      spec.name = *elem_name;
      if (const std::string_view* elem_type = child->attribute("type")) {
        spec.type = xml::leaf_type_from_string(*elem_type);
      }
      elements.push_back(std::move(spec));
    }
    const bool is_private = user_attr != nullptr;
    const AttrDefId id = catalog_.define_dynamic_attribute(
        std::string(*name), std::string(*source), elements,
        is_private ? Visibility::kUser : Visibility::kAdmin, user);
    return ok_response(catalog_.version(),
                       "<attributeID>" + std::to_string(id) + "</attributeID>");
  }

  if (*type == "delete") {
    const std::string_view* id_text = request.attribute("objectID");
    if (id_text == nullptr) {
      throw ServiceError(ErrorCode::kValidation, "delete requires objectID");
    }
    const auto id = util::parse_int(*id_text);
    if (!id) throw ServiceError(ErrorCode::kValidation, "bad objectID");
    if (catalog_.object_state(*id) == ObjectState::kUnknown) {
      throw ServiceError(ErrorCode::kNotFound,
                         "object " + std::string(*id_text) + " does not exist");
    }
    catalog_.delete_object(*id);
    return ok_response(catalog_.version(), "<deleted/>");
  }

  if (*type == "stats") {
    // One pinned snapshot for every catalog-derived figure: the counts are
    // mutually consistent at one epoch, and no lock is taken. The guard is
    // held while the MVCC counters render, so pinned_readers is >= 1 here.
    const MetadataCatalog::ReadGuard guard(catalog_);
    const ShredStats& stats = guard->stats;
    std::string payload = "<stats";
    payload += " objects=\"" + std::to_string(guard->next_object) + "\"";
    payload += " attributes=\"" + std::to_string(stats.attribute_instances) + "\"";
    payload += " elements=\"" + std::to_string(stats.element_rows) + "\"";
    payload += " clobs=\"" + std::to_string(stats.clobs) + "\"";
    payload += " definitions=\"" + std::to_string(guard->defs->attribute_count()) + "\"";
    payload += " deleted=\"" + std::to_string(guard->deleted->size()) + "\"";
    payload += " version=\"" + std::to_string(guard.epoch()) + "\"";
    payload += ">";
    {
      const util::MvccStats mvcc = catalog_.mvcc_stats();
      payload += "<mvcc epoch=\"" + std::to_string(mvcc.epoch) + "\"";
      payload += " pinned_readers=\"" + std::to_string(mvcc.pinned_readers) + "\"";
      payload += " retired_pending=\"" + std::to_string(mvcc.retired_pending) + "\"";
      payload += " reclamations=\"" + std::to_string(mvcc.reclamations) + "\"";
      payload += " snapshots=\"" + std::to_string(mvcc.snapshots_published) + "\"";
      payload += "/>";
    }
    {
      const util::IngestMetrics& ingest = catalog_.ingest_metrics();
      const std::uint64_t docs = ingest.documents.load(std::memory_order_relaxed);
      const std::uint64_t rows = ingest.element_rows.load(std::memory_order_relaxed);
      const std::uint64_t micros = ingest.micros.load(std::memory_order_relaxed);
      payload += "<ingest documents=\"" + std::to_string(docs) + "\"";
      payload += " element_rows=\"" + std::to_string(rows) + "\"";
      payload += " attribute_instances=\"" +
                 std::to_string(ingest.attribute_instances.load(std::memory_order_relaxed)) +
                 "\"";
      payload += " clob_bytes=\"" +
                 std::to_string(ingest.clob_bytes.load(std::memory_order_relaxed)) + "\"";
      payload += " arena_bytes=\"" +
                 std::to_string(ingest.arena_bytes.load(std::memory_order_relaxed)) + "\"";
      payload += " micros=\"" + std::to_string(micros) + "\"";
      payload += " docs_per_sec=\"" +
                 std::to_string(util::IngestMetrics::per_second(docs, micros)) + "\"";
      payload += " rows_per_sec=\"" +
                 std::to_string(util::IngestMetrics::per_second(rows, micros)) + "\"";
      payload += "/>";
    }
    if (const util::DurabilityMetrics* wal = catalog_.durability_metrics()) {
      payload += "<durability";
      payload += " wal_records=\"" +
                 std::to_string(wal->wal_records.load(std::memory_order_relaxed)) + "\"";
      payload += " wal_bytes=\"" +
                 std::to_string(wal->wal_bytes.load(std::memory_order_relaxed)) + "\"";
      payload += " wal_fsyncs=\"" +
                 std::to_string(wal->wal_fsyncs.load(std::memory_order_relaxed)) + "\"";
      payload += " snapshots=\"" +
                 std::to_string(wal->snapshots.load(std::memory_order_relaxed)) + "\"";
      payload += " snapshot_bytes=\"" +
                 std::to_string(wal->snapshot_bytes.load(std::memory_order_relaxed)) + "\"";
      payload += " replayed_records=\"" +
                 std::to_string(wal->replayed_records.load(std::memory_order_relaxed)) +
                 "\"";
      payload += " torn_tail_truncations=\"" +
                 std::to_string(wal->torn_tail_truncations.load(std::memory_order_relaxed)) +
                 "\"";
      payload += " recovery_ms=\"" +
                 std::to_string(wal->recovery_micros.load(std::memory_order_relaxed) / 1000) +
                 "\"";
      payload += "/>";
    }
    if (const util::ReplicationState* repl = catalog_.replication_state()) {
      payload += "<replication";
      payload += " wal_seq=\"" +
                 std::to_string(repl->wal_seq.load(std::memory_order_relaxed)) + "\"";
      payload += " applied_lsn=\"" +
                 std::to_string(repl->applied_lsn.load(std::memory_order_relaxed)) + "\"";
      payload += " applied_epoch=\"" +
                 std::to_string(repl->applied_epoch.load(std::memory_order_relaxed)) + "\"";
      payload += " records_applied=\"" +
                 std::to_string(repl->records_applied.load(std::memory_order_relaxed)) +
                 "\"";
      payload += " chunks_applied=\"" +
                 std::to_string(repl->chunks_applied.load(std::memory_order_relaxed)) + "\"";
      payload += " bootstraps=\"" +
                 std::to_string(repl->bootstraps.load(std::memory_order_relaxed)) + "\"";
      payload += " connections=\"" +
                 std::to_string(repl->connections.load(std::memory_order_relaxed)) + "\"";
      payload += "/>";
    }
    if (catalog_.cache_enabled()) {
      const util::CacheMetrics& cache = catalog_.cache_metrics();
      const auto level_attrs = [](const util::CacheLevelMetrics& level) {
        std::string out;
        out += " hits=\"" + std::to_string(level.hits.load(std::memory_order_relaxed)) + "\"";
        out += " misses=\"" + std::to_string(level.misses.load(std::memory_order_relaxed)) +
               "\"";
        out += " inserts=\"" + std::to_string(level.inserts.load(std::memory_order_relaxed)) +
               "\"";
        out += " evictions=\"" +
               std::to_string(level.evictions.load(std::memory_order_relaxed)) + "\"";
        out += " entries=\"" + std::to_string(level.entries.load(std::memory_order_relaxed)) +
               "\"";
        out += " bytes=\"" + std::to_string(level.bytes.load(std::memory_order_relaxed)) +
               "\"";
        return out;
      };
      payload += "<cache bypass=\"" +
                 std::to_string(cache.bypass.load(std::memory_order_relaxed)) + "\"";
      payload += " inline_served=\"" +
                 std::to_string(cache.inline_served.load(std::memory_order_relaxed)) + "\">";
      payload += "<l1" + level_attrs(cache.l1) + "/>";
      payload += "<l2" + level_attrs(cache.l2) + "/>";
      payload += "</cache>";
    }
    if (const util::ServerPauses* pauses = catalog_.server_pauses()) {
      payload += "<server read_pauses=\"" +
                 std::to_string(pauses->read_pauses.load(std::memory_order_relaxed)) + "\"";
      payload += " write_pauses=\"" +
                 std::to_string(pauses->write_pauses.load(std::memory_order_relaxed)) +
                 "\"/>";
    }
    if (metrics_ == nullptr) {
      payload += "</stats>";
    } else {
      payload += "<requests>";
      for (std::size_t i = 0; i < metrics_->size(); ++i) {
        const util::RequestStats& slot = metrics_->at(i);
        const std::uint64_t handled = slot.handled.load(std::memory_order_relaxed);
        const std::uint64_t rejected = slot.rejected.load(std::memory_order_relaxed);
        if (handled == 0 && rejected == 0) continue;
        payload += "<request type=\"" + metrics_->name(i) + "\"";
        payload += " handled=\"" + std::to_string(handled) + "\"";
        payload += " ok=\"" + std::to_string(slot.ok.load(std::memory_order_relaxed)) + "\"";
        payload +=
            " errors=\"" + std::to_string(slot.errors.load(std::memory_order_relaxed)) + "\"";
        payload += " timeouts=\"" +
                   std::to_string(slot.timeouts.load(std::memory_order_relaxed)) + "\"";
        payload += " rejected=\"" + std::to_string(rejected) + "\"";
        payload += " mean_us=\"" + std::to_string(slot.latency.mean_micros()) + "\"";
        payload += " p50_us=\"" + std::to_string(slot.latency.percentile_micros(0.50)) + "\"";
        payload += " p99_us=\"" + std::to_string(slot.latency.percentile_micros(0.99)) + "\"";
        payload += " max_us=\"" + std::to_string(slot.latency.max_micros()) + "\"";
        payload += "/>";
      }
      payload += "</requests></stats>";
    }
    return ok_response(guard.epoch(), payload);
  }

  throw ServiceError(ErrorCode::kUnknownType,
                     "unknown request type '" + std::string(*type) + "'");
}

}  // namespace hxrc::core
