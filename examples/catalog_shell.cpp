// An interactive shell over the hybrid metadata catalog.
//
// Commands (one per line; also usable non-interactively via a pipe):
//   gen <n>                          generate and ingest n synthetic documents
//   ingest <file.xml>                ingest a LEAD metadata document from disk
//   find <name> [<source>] [<elem><op><value> ...]
//                                    metadata-attribute query, e.g.
//                                      find grid ARPS dx=1000 dz<=500
//   xfind <path-expression>          XPath-style query (§4 rewriting), e.g.
//                                      xfind //theme[themekey='air_temperature']
//   fetch <object_id>                print one object's reconstructed XML
//   sql <statement>                  run SQL against the shredded tables
//   defs                             list attribute definitions
//   stats                            catalog statistics
//   checkpoint                       write a snapshot, rotate the WAL (durable mode)
//   help                             this text
//   quit
//
// Run:  ./build/examples/catalog_shell
//       printf 'gen 50\nfind theme themekey=air_temperature\nquit\n' |
//           ./build/examples/catalog_shell
//
// With `--data-dir <dir>` the catalog runs on the durability subsystem:
// every mutation is WAL-logged to <dir>, and on startup the newest valid
// snapshot plus the WAL tail is replayed before the prompt appears — kill
// the process (kill -9 included) and restart to pick up where it crashed.
//
// With `--connect host:port` the shell drives a live catalog_server or
// catalog_router over the wire instead of an in-process catalog: gen,
// ingest, find, fetch and stats translate to framed <catalogRequest>s
// (plus `raw <xml>` for sending arbitrary request bodies); commands that
// need in-process state (sql, xfind, defs, checkpoint) are unavailable.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/path_query.hpp"
#include "core/service.hpp"
#include "net/client.hpp"
#include "storage/recovery.hpp"
#include "util/string_util.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace {

using namespace hxrc;

/// Parses "name<op>value" with op in {=, !=, <=, >=, <, >}.
bool parse_predicate(const std::string& token, core::AttrQuery& attr) {
  static constexpr std::pair<const char*, core::CompareOp> kOps[] = {
      {"!=", core::CompareOp::kNe}, {"<=", core::CompareOp::kLe},
      {">=", core::CompareOp::kGe}, {"=", core::CompareOp::kEq},
      {"<", core::CompareOp::kLt},  {">", core::CompareOp::kGt},
  };
  for (const auto& [text, op] : kOps) {
    const auto pos = token.find(text);
    if (pos == std::string::npos || pos == 0) continue;
    const std::string name = token.substr(0, pos);
    const std::string value = token.substr(pos + std::string(text).size());
    if (const auto num = util::parse_double(value)) {
      attr.add_element(name, rel::Value(*num), op);
    } else {
      attr.add_element(name, rel::Value(value), op);
    }
    return true;
  }
  return false;
}

void print_help() {
  std::printf(
      "commands:\n"
      "  gen <n>                         ingest n synthetic documents\n"
      "  ingest <file.xml>               ingest a document from disk\n"
      "  find <name> [<source>] [<elem><op><value> ...]\n"
      "  xfind <path-expression>         XPath-style metadata query\n"
      "  fetch <object_id>               print reconstructed XML\n"
      "  sql <statement>                 query the shredded tables\n"
      "  raw <request-xml>               send a request body verbatim (--connect)\n"
      "  defs | stats | checkpoint | help | quit\n");
}

/// Prints the ids of a queryIds response as one sorted-by-the-server line.
void print_remote_ids(const std::string& response) {
  std::vector<long long> ids;
  std::size_t pos = 0;
  while ((pos = response.find("<objectID>", pos)) != std::string::npos) {
    pos += 10;
    ids.push_back(std::atoll(response.c_str() + pos));
  }
  if (response.find("status=\"error\"") != std::string::npos) {
    std::printf("%s\n", response.c_str());
    return;
  }
  std::printf("%zu object(s):", ids.size());
  for (const long long id : ids) std::printf(" %lld", id);
  if (response.find("<partial ") != std::string::npos) std::printf(" [partial]");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(std::string("--data-dir=").size());
    } else if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(std::string("--connect=").size());
    } else {
      std::fprintf(stderr,
                   "usage: catalog_shell [--data-dir <dir>] [--connect host:port]\n");
      return 2;
    }
  }
  if (!connect.empty() && !data_dir.empty()) {
    std::fprintf(stderr, "--connect and --data-dir are mutually exclusive\n");
    return 2;
  }

  std::unique_ptr<net::BlockingClient> remote;
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    const long remote_port =
        colon == std::string::npos ? 0 : std::atol(connect.c_str() + colon + 1);
    if (colon == std::string::npos || colon == 0 || remote_port <= 0 ||
        remote_port > 65535) {
      std::fprintf(stderr, "--connect expects host:port\n");
      return 2;
    }
    try {
      remote = std::make_unique<net::BlockingClient>(
          connect.substr(0, colon), static_cast<std::uint16_t>(remote_port));
    } catch (const net::SocketError& e) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", connect.c_str(), e.what());
      return 1;
    }
  }

  xml::Schema schema = workload::lead_schema();
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  core::MetadataCatalog catalog(schema, workload::lead_annotations(), config);

  std::unique_ptr<storage::DurableCatalog> durable;
  if (!data_dir.empty()) {
    storage::DurabilityConfig durability;
    durability.data_dir = data_dir;
    try {
      durable = std::make_unique<storage::DurableCatalog>(catalog, durability);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "recovery failed: %s\n", e.what());
      return 1;
    }
    const storage::RecoveryInfo& recovery = durable->recovery();
    std::printf(
        "recovered from '%s': snapshot=%s replayed=%llu torn_tail=%d objects=%zu "
        "(%.1f ms)\n",
        data_dir.c_str(), recovery.snapshot_loaded ? "yes" : "no",
        static_cast<unsigned long long>(recovery.replayed_records),
        recovery.torn_tail ? 1 : 0, catalog.object_count(),
        static_cast<double>(recovery.recovery_micros) / 1000.0);
  }

  workload::DocumentGenerator generator;
  std::uint64_t next_doc = catalog.object_count();

  std::printf("hybrid XML-relational metadata catalog shell — 'help' for commands\n");
  if (remote != nullptr) {
    std::printf("connected to %s (wire mode)\n", connect.c_str());
  }
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    input >> command;
    try {
      if (command.empty()) continue;
      if (command == "quit" || command == "exit") break;
      if (remote != nullptr) {
        // Wire mode: translate commands into framed <catalogRequest>s.
        if (command == "help") {
          print_help();
        } else if (command == "gen") {
          std::size_t n = 10;
          input >> n;
          std::size_t ok = 0;
          for (std::size_t i = 0; i < n; ++i, ++next_doc) {
            const xml::Document doc = generator.generate(next_doc);
            const std::string request =
                "<catalogRequest type=\"ingest\" name=\"gen-" +
                std::to_string(next_doc) + "\" user=\"shell\">" +
                xml::write(*doc.root) + "</catalogRequest>";
            const std::string response = remote->call(request);
            if (response.find("status=\"ok\"") != std::string::npos) {
              ++ok;
            } else {
              std::printf("%s\n", response.c_str());
            }
          }
          std::printf("ingested %zu/%zu documents over the wire\n", ok, n);
        } else if (command == "ingest") {
          std::string path;
          input >> path;
          std::ifstream file(path);
          if (!file) {
            std::printf("cannot open '%s'\n", path.c_str());
            continue;
          }
          std::stringstream buffer;
          buffer << file.rdbuf();
          const std::string request = "<catalogRequest type=\"ingest\" name=\"" +
                                      xml::escape_attribute(path) +
                                      "\" user=\"shell\">" + buffer.str() +
                                      "</catalogRequest>";
          std::printf("%s\n", remote->call(request).c_str());
        } else if (command == "find") {
          std::string name;
          input >> name;
          if (name.empty()) {
            std::printf("usage: find <name> [<source>] [<elem><op><value> ...]\n");
            continue;
          }
          std::vector<std::string> tokens;
          std::string token;
          while (input >> token) tokens.push_back(token);
          std::string source;
          std::size_t first_pred = 0;
          if (!tokens.empty() &&
              tokens[0].find_first_of("=<>!") == std::string::npos) {
            source = tokens[0];
            first_pred = 1;
          }
          core::AttrQuery attr(name, source);
          bool ok = true;
          for (std::size_t i = first_pred; i < tokens.size(); ++i) {
            if (!parse_predicate(tokens[i], attr)) {
              std::printf("bad predicate '%s'\n", tokens[i].c_str());
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          core::ObjectQuery query;
          query.add_attribute(std::move(attr));
          std::string request = core::query_to_xml(query);
          request.replace(request.find("type=\"query\""),
                          std::string("type=\"query\"").size(),
                          "type=\"queryIds\"");
          print_remote_ids(remote->call(request));
        } else if (command == "fetch") {
          long long id = -1;
          input >> id;
          const std::string request = "<catalogRequest type=\"fetch\" objectID=\"" +
                                      std::to_string(id) + "\"/>";
          std::printf("%s\n", remote->call(request).c_str());
        } else if (command == "stats") {
          std::printf("%s\n",
                      remote->call("<catalogRequest type=\"stats\"/>").c_str());
        } else if (command == "raw") {
          std::string request;
          std::getline(input, request);
          std::printf("%s\n", remote->call(util::trim(request)).c_str());
        } else {
          std::printf("'%s' needs an in-process catalog — unavailable with "
                      "--connect\n",
                      command.c_str());
        }
        continue;
      }
      if (command == "help") {
        print_help();
      } else if (command == "gen") {
        std::size_t n = 10;
        input >> n;
        for (std::size_t i = 0; i < n; ++i) {
          catalog.ingest(generator.generate(next_doc), "gen-" + std::to_string(next_doc),
                         "shell");
          ++next_doc;
        }
        std::printf("ingested %zu documents (catalog now has %zu objects)\n", n,
                    catalog.object_count());
      } else if (command == "ingest") {
        std::string path;
        input >> path;
        std::ifstream file(path);
        if (!file) {
          std::printf("cannot open '%s'\n", path.c_str());
          continue;
        }
        std::stringstream buffer;
        buffer << file.rdbuf();
        const auto id = catalog.ingest_xml(buffer.str(), path, "shell");
        std::printf("ingested object %lld\n", static_cast<long long>(id));
      } else if (command == "find") {
        std::string name;
        input >> name;
        if (name.empty()) {
          std::printf("usage: find <name> [<source>] [<elem><op><value> ...]\n");
          continue;
        }
        std::vector<std::string> tokens;
        std::string token;
        while (input >> token) tokens.push_back(token);
        // A first token without an operator is the source.
        std::string source;
        std::size_t first_pred = 0;
        if (!tokens.empty() && tokens[0].find_first_of("=<>!") == std::string::npos) {
          source = tokens[0];
          first_pred = 1;
        }
        core::AttrQuery attr(name, source);
        bool ok = true;
        for (std::size_t i = first_pred; i < tokens.size(); ++i) {
          if (!parse_predicate(tokens[i], attr)) {
            std::printf("bad predicate '%s'\n", tokens[i].c_str());
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        core::ObjectQuery query;
        query.add_attribute(std::move(attr));
        core::QueryPlanInfo info;
        const auto ids = catalog.query(query, &info);
        std::printf("%zu object(s)%s:", ids.size(),
                    info.fast_path ? " [fast path]" : "");
        for (const auto id : ids) std::printf(" %lld", static_cast<long long>(id));
        std::printf("\n");
      } else if (command == "xfind") {
        std::string expression;
        std::getline(input, expression);
        const core::ObjectQuery query =
            core::path_to_query(catalog.partition(), util::trim(expression));
        const auto ids = catalog.query(query);
        std::printf("%zu object(s):", ids.size());
        for (const auto id : ids) std::printf(" %lld", static_cast<long long>(id));
        std::printf("\n");
      } else if (command == "fetch") {
        long long id = -1;
        input >> id;
        const xml::Document doc = catalog.fetch(id);
        std::printf("%s\n", xml::write(doc, xml::WriteOptions{.indent = 2}).c_str());
      } else if (command == "sql") {
        std::string statement;
        std::getline(input, statement);
        const rel::ResultSet result = catalog.database().execute(statement);
        std::printf("%s(%zu rows)\n", result.pretty().c_str(), result.size());
      } else if (command == "defs") {
        const core::DefinitionRegistry& registry = catalog.registry();
        for (core::AttrDefId id = 0;
             static_cast<std::size_t>(id) < registry.attribute_count(); ++id) {
          const core::AttributeDef def = registry.attribute(id);
          std::printf("  [%lld] %s%s%s %s parent=%lld\n",
                      static_cast<long long>(def.id), def.name.c_str(),
                      def.source.empty() ? "" : " @ ",
                      def.source.c_str(),
                      def.kind == core::AttrKind::kDynamic ? "(dynamic)" : "(structural)",
                      static_cast<long long>(def.parent));
        }
      } else if (command == "stats") {
        const core::ShredStats& stats = catalog.total_stats();
        std::printf(
            "objects=%zu attr_instances=%zu sub_attrs=%zu elements=%zu clobs=%zu "
            "clob_bytes=%zu defs=%zu elem_defs=%zu db_bytes=%zu\n",
            catalog.object_count(), stats.attribute_instances,
            stats.sub_attribute_instances, stats.element_rows, stats.clobs,
            stats.clob_bytes, catalog.registry().attribute_count(),
            catalog.registry().element_count(), catalog.database().approx_bytes());
        if (catalog.cache_enabled()) {
          const util::CacheMetrics& cache = catalog.cache_metrics();
          std::printf(
              "cache: l1 hits=%llu misses=%llu entries=%llu bytes=%llu | "
              "l2 hits=%llu misses=%llu entries=%llu bytes=%llu | "
              "evictions=%llu bypass=%llu\n",
              static_cast<unsigned long long>(cache.l1.hits.load()),
              static_cast<unsigned long long>(cache.l1.misses.load()),
              static_cast<unsigned long long>(cache.l1.entries.load()),
              static_cast<unsigned long long>(cache.l1.bytes.load()),
              static_cast<unsigned long long>(cache.l2.hits.load()),
              static_cast<unsigned long long>(cache.l2.misses.load()),
              static_cast<unsigned long long>(cache.l2.entries.load()),
              static_cast<unsigned long long>(cache.l2.bytes.load()),
              static_cast<unsigned long long>(cache.l1.evictions.load() +
                                              cache.l2.evictions.load()),
              static_cast<unsigned long long>(cache.bypass.load()));
        }
      } else if (command == "checkpoint") {
        if (durable == nullptr) {
          std::printf("no data dir — start with --data-dir <dir>\n");
          continue;
        }
        durable->checkpoint();
        std::printf("snapshot %llu written, WAL rotated\n",
                    static_cast<unsigned long long>(durable->wal_seq()));
      } else {
        std::printf("unknown command '%s' — try 'help'\n", command.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  if (durable != nullptr) durable->close();  // final fsync before exit
  return 0;
}
