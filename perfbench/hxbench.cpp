// hxbench — the catalog benchmark: seeded wire-level workloads against
// in-process catalogs over loopback TCP, with per-layer attribution.
//
//   hxbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//           --param key=value ...
//
// Workloads (parameters come from perfbench/workloads.json via run.py):
//   discover    single node, query cache on, no WAL, read-only open loop
//   ingest      single node on a DurableCatalog: 3 closed-loop loaders plus
//               an open-loop reader, then a clean close, reopen and checks
//   cold_fetch  single node with CLOB paging, corpus 4x the resident CLOB
//               budget; open loop walking permutations so every cache misses
//   federated   4 shard servers behind a FederationRouter served by its own
//               CatalogServer; closed loop with routed ingests
//
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) installs a span-recording RequestBroker decorator in
// front of every broker, replays a seeded sample of the window's requests
// through the layer entry points afterwards, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A full record (provenance, parameters, sample counts, checks, extra
// metrics) goes to DIR/<workload>-seed<N>-trace<T>.json and, when traced,
// the spans to DIR/spans-<workload>-seed<N>.jsonl.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_stamp.hpp"
#include "core/catalog.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "fed/merge.hpp"
#include "fed/router.hpp"
#include "load.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "storage/clob_pager.hpp"
#include "storage/recovery.hpp"
#include "trace.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "workload/scale.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace {

using namespace hxbench;
namespace core = hxrc::core;
namespace fed = hxrc::fed;
namespace net = hxrc::net;
namespace storage = hxrc::storage;
namespace util = hxrc::util;
namespace workload = hxrc::workload;
namespace xml = hxrc::xml;
namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::map<std::string, std::string> params;

  double num(const std::string& key) const {
    const auto it = params.find(key);
    if (it == params.end()) throw std::invalid_argument("missing --param " + key);
    return std::stod(it->second);
  }
  std::size_t count(const std::string& key) const {
    return static_cast<std::size_t>(num(key));
  }
};

// ---------------------------------------------------------------------------
// Exact statistics over raw samples.

struct Pct {
  double value = 0;
  std::size_t n = 0;
  /// The percentile actually reported (see percentile()).
  double p = 0;
};

/// Nearest-rank percentile over raw samples; +inf values (failed requests)
/// sort last. A tail percentile (p > 0.5) is reported only with at least
/// ten samples beyond it: with fewer samples the highest percentile that
/// has ten beyond it is reported instead, and `p` says which.
Pct percentile(std::vector<double> values, double p) {
  Pct out;
  out.n = values.size();
  out.p = p;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (p > 0.5 && n - rank < 10) {
    rank = n > 10 ? n - 10 : 1;
    out.p = static_cast<double>(rank) / static_cast<double>(n);
  }
  out.value = values[rank - 1];
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median_of(std::vector<double> values) { return percentile(std::move(values), 0.5).value; }

std::vector<double> latencies(const std::vector<Sample>& samples, Kind kind) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.kind == kind) out.push_back(s.ok ? s.latency_us() : kInf);
  }
  return out;
}

/// A latency percentile that one burst of stalls cannot move: the window
/// is cut into k equal intervals by due time, k = samples / 1000 capped at
/// 10 (so each interval supports a p99), the exact percentile is taken in
/// each interval and the median of those is reported. With fewer than
/// 2000 samples it is the exact percentile of the whole window.
Pct interval_percentile(const std::vector<Sample>& samples, Kind kind, double p) {
  std::vector<const Sample*> of_kind;
  for (const Sample& s : samples) {
    if (s.kind == kind) of_kind.push_back(&s);
  }
  const std::size_t k = std::min<std::size_t>(10, of_kind.size() / 1000);
  if (k < 2) return percentile(latencies(samples, kind), p);
  std::sort(of_kind.begin(), of_kind.end(),
            [](const Sample* a, const Sample* b) { return a->due_us < b->due_us; });
  const double t0 = of_kind.front()->due_us;
  const double span = of_kind.back()->due_us - t0 + 1e-9;
  std::vector<std::vector<double>> parts(k);
  for (const Sample* s : of_kind) {
    const auto i = std::min<std::size_t>(k - 1, static_cast<std::size_t>((s->due_us - t0) / span * static_cast<double>(k)));
    parts[i].push_back(s->ok ? s->latency_us() : kInf);
  }
  std::vector<double> per_interval;
  double reported = p;
  for (auto& part : parts) {
    const Pct pct = percentile(std::move(part), p);
    per_interval.push_back(pct.value);
    reported = std::min(reported, pct.p);
  }
  Pct out = percentile(per_interval, 0.5);
  out.n = of_kind.size();
  out.p = reported;
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Report.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value (0 = not a sampled statistic)
  double p = 0;       // percentile reported, when the value is one
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> extra;  // end-to-end figures reported but not gated
  std::vector<std::string> check_failures;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string invalid;  // non-empty: the open loop could not hold its schedule
  std::map<std::string, double> info;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

void add_pct(std::vector<Metric>& into, const std::string& name, const Pct& pct) {
  into.push_back({name, pct.value, "us", pct.n, pct.p});
}

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e300" : "-1e300";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", v);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics, bool detailed) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (detailed) {
      if (m.n != 0) out += ", \"samples\": " + std::to_string(m.n);
      if (m.p != 0) out += ", \"percentile\": " + json_number(m.p);
    }
    out += "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Seeded inputs.

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A seeded permutation of [0, n) (Fisher-Yates).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = i;
  util::Prng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return items;
}

/// Zipf(s) over ranks [0, n), ranks mapped to items by a seeded permutation
/// so popularity is uncorrelated with item order.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : cdf_(n), items_(permutation(n, seed)) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(util::Prng& rng) const {
    const double u = rng.uniform01();
    std::size_t r = static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    if (r >= items_.size()) r = items_.size() - 1;
    return items_[r];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> items_;
};

std::string fetch_request(std::uint64_t id) {
  return "<catalogRequest type=\"fetch\" version=\"1\" objectID=\"" + std::to_string(id) + "\"/>";
}

std::string ingest_request(const xml::Document& doc, const std::string& name) {
  return "<catalogRequest type=\"ingest\" version=\"1\" name=\"" + name + "\" user=\"bench\">" +
         xml::write(doc) + "</catalogRequest>";
}

const std::string kStatsRequest = "<catalogRequest type=\"stats\" version=\"1\"/>";

struct QueryEntry {
  std::string body;
  /// The page-2 request a client following nextCursor sends next (empty:
  /// this entry is not followed or has one page).
  std::string follow;
};

/// Distinct `query` requests from the repository's query generator, each
/// with a seeded page size.
std::vector<QueryEntry> generator_queries(std::size_t count, std::uint64_t seed,
                                          const std::vector<std::size_t>& limits) {
  workload::QueryGenConfig qconfig;
  qconfig.seed = mix_seed(seed, 11);
  workload::QueryGenerator qgen(qconfig);
  util::Prng rng(mix_seed(seed, 12));
  std::set<std::string> seen;
  std::vector<QueryEntry> out;
  for (std::uint64_t i = 0; out.size() < count && i < count * 20; ++i) {
    core::ObjectQuery q = qgen.generate(i);
    q.set_limit(limits[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(limits.size()) - 1))]);
    std::string body = core::query_to_xml(q);
    if (seen.insert(body).second) out.push_back({std::move(body), {}});
  }
  return out;
}

/// Precomputes the page-2 request for a seeded share of the pool (read-only
/// workloads: the catalog epoch, and so the cursor, cannot change).
void add_follows(std::vector<QueryEntry>& pool, const core::MetadataCatalog& catalog,
                 double share, std::uint64_t seed) {
  util::Prng rng(mix_seed(seed, 13));
  for (QueryEntry& entry : pool) {
    if (!rng.chance(share)) continue;
    const xml::Document doc = xml::parse(entry.body);
    core::ObjectQuery q = core::query_from_xml(*doc.root);
    const core::QueryPage page = catalog.read_guard().query_paged(q);
    if (page.next_cursor.empty()) continue;
    q.set_cursor(page.next_cursor);
    entry.follow = core::query_to_xml(q);
  }
}

// ---------------------------------------------------------------------------
// Stats over the wire: <stats> flattened to "element.attr" keys; repeated
// <request> children are summed.

using Stats = std::map<std::string, double>;

void flatten(const xml::Node& node, const std::string& prefix, Stats& out) {
  for (const xml::Node* child : node.child_elements()) {
    const std::string key = prefix + std::string(child->name());
    for (const auto& name : {"hits", "misses", "inserts", "evictions", "entries", "bytes",
                             "bypass", "inline_served", "documents", "element_rows", "micros",
                             "retired_pending", "reclamations", "snapshots", "wal_records",
                             "wal_bytes", "wal_fsyncs", "snapshot_bytes", "read_pauses",
                             "write_pauses", "handled", "rejected", "errors", "timeouts"}) {
      if (const std::string_view* v = child->attribute(name)) {
        out[key + "." + name] += std::stod(std::string(*v));
      }
    }
    flatten(*child, key + ".", out);
  }
}

Stats read_stats(std::uint16_t port) {
  const std::string response = call_once(port, kStatsRequest);
  if (!response_ok(response)) throw std::runtime_error("stats request failed: " + response);
  const xml::Document doc = xml::parse(response);
  Stats out;
  for (const xml::Node* child : doc.root->child_elements()) {
    if (child->name() == "stats") flatten(*child, "", out);
  }
  return out;
}

Stats sum_stats(const std::vector<Stats>& parts) {
  Stats out;
  for (const Stats& part : parts) {
    for (const auto& [k, v] : part) out[k] += v;
  }
  return out;
}

double delta(const Stats& before, const Stats& after, const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double gauge(const Stats& stats, const std::string& key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// One catalog behind one CatalogServer.

struct NodeOptions {
  std::string page_file;  // non-empty: CLOB paging on
  std::size_t segment_bytes = 4u << 20;
  std::size_t resident_segments = 8;
  std::string data_dir;  // non-empty: DurableCatalog on
  std::size_t workers = 4;
  std::size_t event_threads = 2;
};

struct Tracing {
  explicit Tracing(Clock::time_point epoch) : clock(epoch) {}
  TraceClock clock;
  std::vector<std::unique_ptr<SpanLog>> logs;
  SpanLog& new_log() {
    logs.push_back(std::make_unique<SpanLog>(std::size_t{1} << 18));
    return *logs.back();
  }
};

struct Node {
  explicit Node(const NodeOptions& options) : schema(workload::lead_schema()) {
    core::CatalogConfig config;
    config.shred.auto_define_dynamic = true;
    catalog = std::make_unique<core::MetadataCatalog>(schema, workload::lead_annotations(), config);
    if (!options.page_file.empty()) {
      pager = std::make_unique<storage::PagedClobFile>(options.page_file);
      catalog->database().clobs().enable_paging(pager.get(), options.segment_bytes,
                                                options.resident_segments);
    }
    if (!options.data_dir.empty()) {
      storage::DurabilityConfig durability;
      durability.data_dir = options.data_dir;
      durable = std::make_unique<storage::DurableCatalog>(*catalog, durability);
      catalog->set_durability_metrics(&durable->metrics());
    }
    dispatch_config.workers = options.workers;
    server_config.event_threads = options.event_threads;
  }

  void serve(Tracing* tracing) {
    dispatcher = std::make_unique<core::ServiceDispatcher>(*catalog, dispatch_config);
    core::RequestBroker* broker = dispatcher.get();
    if (tracing != nullptr) {
      log = &tracing->new_log();
      tracer = std::make_unique<TracingBroker>(*dispatcher, tracing->clock, *log, catalog.get());
      broker = tracer.get();
    }
    server = std::make_unique<net::CatalogServer>(*broker, server_config);
    catalog->set_server_pauses(&server->stats().pauses);
    server->start();
  }

  /// Graceful stop: drain the server (and with it the dispatcher), then
  /// the final WAL flush.
  void stop() {
    if (server) server->drain();
    catalog->set_server_pauses(nullptr);
    if (durable) durable->close();
  }

  std::uint16_t port() const { return server->port(); }

  // Declaration order is destruction order reversed: the server goes
  // first, the pager after the catalog whose CLOB store borrows it.
  xml::Schema schema;
  std::unique_ptr<storage::PagedClobFile> pager;
  std::unique_ptr<core::MetadataCatalog> catalog;
  std::unique_ptr<storage::DurableCatalog> durable;
  core::DispatcherConfig dispatch_config;
  net::ServerConfig server_config;
  std::unique_ptr<core::ServiceDispatcher> dispatcher;
  SpanLog* log = nullptr;
  std::unique_ptr<TracingBroker> tracer;
  std::unique_ptr<net::CatalogServer> server;
};

struct ServerCounters {
  double frames_out = 0, bytes_out = 0, read_pauses = 0, write_pauses = 0;
};

ServerCounters counters(const net::CatalogServer& server) {
  const net::ServerStats& s = server.stats();
  return {static_cast<double>(s.frames_out.load()), static_cast<double>(s.bytes_out.load()),
          static_cast<double>(s.pauses.read_pauses.load()),
          static_cast<double>(s.pauses.write_pauses.load())};
}

/// Peak RSS so far. Read right after the window, so the checks, replays
/// and the ingest workload's reopen (which allocates a second catalog
/// beside the freed one) do not count.
double peak_rss_mb() { return static_cast<double>(util::peak_rss_bytes()) / 1048576.0; }

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Set-up time of the program's own work: only the calls passed to time()
/// count, so generating the benchmark's inputs between them does not.
struct SetupTimer {
  double seconds = 0;
  template <typename Fn>
  void time(Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    seconds += seconds_since(t0);
  }
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Strips the envelope's epoch so responses from before and after a
/// restart (which bumps the epoch) compare on content.
std::string without_version(const std::string& response) {
  const std::size_t v = response.find(" version=\"");
  const std::size_t gt = response.find('>');
  if (v == std::string::npos || v > gt) return response;
  const std::size_t end = response.find('"', v + 10);
  return response.substr(0, v) + response.substr(end + 1);
}

// ---------------------------------------------------------------------------
// The run: shared state and the measured window.

struct Run {
  Args args;
  Clock::time_point epoch = Clock::now();
  std::unique_ptr<Tracing> tracing;
  Report report;
  LoopResult window;
  double window_begin_us = 0;
  /// Spans written out at the end (traced run).
  std::vector<std::string> span_lines;
  std::uint64_t next_trace_id = 1;
  /// Per-layer inputs gathered by the workload: spans of the broker(s)
  /// directly in front of catalogs, and the MVCC gauge's sampled maximum.
  std::vector<Span> serving_spans;
  double retired_pending_max = 0;

  bool traced() const { return tracing != nullptr; }
  double now_us() const { return micros_since(epoch, Clock::now()); }

  void arm() {
    window_begin_us = now_us();
    if (tracing) tracing->clock.arm(window_begin_us, window_begin_us + args.seconds * 1e6 + 60e6);
  }
  void disarm() {
    if (tracing) tracing->clock.disarm();
  }
  void span(const std::string& name, double start_us, double end_us, std::uint64_t trace,
            std::uint64_t parent = 0) {
    if (!traced()) return;
    std::string line = "{\"trace\": " + std::to_string(trace) + ", \"name\": " + json_string(name) +
                       ", \"start_us\": " + json_number(start_us) +
                       ", \"end_us\": " + json_number(end_us);
    if (parent != 0) line += ", \"parent\": " + std::to_string(parent);
    span_lines.push_back(line + "}");
  }
};

/// Times `fn` and records a replay span; returns microseconds.
template <typename Fn>
double timed(Run& run, const char* name, std::uint64_t trace, Fn&& fn) {
  const double start = run.now_us();
  fn();
  const double end = run.now_us();
  run.span(name, start, end, trace);
  return end - start;
}

/// Checks the open loop kept its schedule: requests sent late, or a
/// growing number in flight, mean the offered rate was not the rate the
/// program received, so the run's latencies are not reported.
void check_open_loop(Report& report, const LoopResult& loop, const char* who) {
  if (loop.lag_us.empty()) return;
  const Pct lag = percentile(loop.lag_us, 0.99);
  const std::size_t tenth = std::max<std::size_t>(1, loop.in_flight.size() / 10);
  double first = 0, last = 0;
  for (std::size_t i = 0; i < tenth; ++i) {
    first += loop.in_flight[i];
    last += loop.in_flight[loop.in_flight.size() - 1 - i];
  }
  first /= static_cast<double>(tenth);
  last /= static_cast<double>(tenth);
  if (lag.value > 20'000) {
    report.invalid = std::string(who) + ": generator fell behind (send lag p99 " +
                     json_number(lag.value) + " us)";
  } else if (last > 4 * first + 64) {
    report.invalid = std::string(who) + ": backlog grew during the window (" +
                     json_number(first) + " -> " + json_number(last) + " in flight)";
  }
}

/// Copies one node's recorded spans out (after traffic stopped).
std::vector<Span> take_spans(Node& node, Run& run) {
  if (node.log == nullptr) return {};
  run.retired_pending_max =
      std::max(run.retired_pending_max, static_cast<double>(node.tracer->retired_pending_max()));
  return node.log->take();
}

/// Counts a loop's requests into attempted/failed and checks its frames.
void count_requests(Report& r, const LoopResult& loop, const std::string& what) {
  r.attempted += loop.samples.size() + loop.unanswered;
  r.failed += loop.unanswered;
  for (const Sample& s : loop.samples) r.failed += s.ok ? 0 : 1;
  r.check(loop.bad_frames == 0,
          std::to_string(loop.bad_frames) + " " + what + " response frames failed the envelope checks");
}

/// Ok responses per second: completions are counted in ten equal slices of
/// the span from the first send to the last answer, and the median slice
/// is reported, so one burst of host noise cannot move it.
double responses_per_s(const std::vector<Sample>& samples) {
  double begin = kInf, end = 0;
  std::vector<double> done;
  for (const Sample& s : samples) {
    begin = std::min(begin, s.sent_us);
    if (!s.ok) continue;
    end = std::max(end, s.done_us);
    done.push_back(s.done_us);
  }
  if (done.empty() || end <= begin) return 0;
  constexpr std::size_t kSlices = 10;
  const double slice_us = (end - begin) / kSlices;
  std::vector<double> counts(kSlices, 0);
  for (const double t : done) {
    counts[std::min<std::size_t>(kSlices - 1, static_cast<std::size_t>((t - begin) / slice_us))] += 1;
  }
  return median_of(counts) / slice_us * 1e6;
}

/// Counts the window's requests (and the capacity phase's, when there is
/// one) and fills the end-to-end metrics every workload reports.
void window_metrics(Run& run, const std::vector<Sample>& reads, double throughput_rps,
                    const LoopResult* capacity = nullptr) {
  Report& r = run.report;
  count_requests(r, run.window, "window");
  if (capacity != nullptr) count_requests(r, *capacity, "capacity-phase");
  add_pct(r.e2e, "query_p50_us", interval_percentile(reads, Kind::kQuery, 0.5));
  add_pct(r.e2e, "fetch_p50_us", interval_percentile(reads, Kind::kFetch, 0.5));
  r.e2e.push_back({"throughput_rps", throughput_rps, "1/s"});
  // Tails: reported, not gated (their run-to-run spread on a shared
  // 4-core host exceeds any useful regression bound).
  add_pct(r.extra, "query_p99_us", interval_percentile(reads, Kind::kQuery, 0.99));
  add_pct(r.extra, "fetch_p99_us", interval_percentile(reads, Kind::kFetch, 0.99));
  r.extra.push_back({"error_frac", ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
                     "frac"});
}

// ---------------------------------------------------------------------------
// Replays (traced run): a seeded sample of the window's requests through
// the layer entry points, after the window so it cannot warm what the
// window measured.

struct ReadReplay {
  std::vector<double> handle, parse, engine, self;
  double build_us = 0, build_objects = 0, build_bytes = 0;
  double rows_scanned = 0, results = 0, index_probes = 0, materialized = 0, queries = 0;
};

/// `route` maps a window request to the catalog that answers it and the
/// request that catalog would receive.
using Route = std::function<std::pair<core::MetadataCatalog*, std::string>(const std::string&)>;

/// Service, parse and response replay of the first `full` requests, and
/// `engine_runs` engine replays (ReadGuard::query with plan info, which
/// bypasses the L1 memo) cycling over the queries among them, so the engine
/// p99 has samples to stand on even when the window sent few queries. The
/// first handle of a request is the reported handle time (caches as the
/// window left them); a second handle and its parts (parse, the L1-served
/// page, the §5 build) then run in one warm cache state, and self time is
/// that handle minus those parts.
ReadReplay replay_reads(Run& run, const std::vector<Request>& requests, std::size_t full,
                        std::size_t engine_runs, const Route& route) {
  ReadReplay out;
  const bool any_query = std::any_of(requests.begin(), requests.end(),
                                     [](const Request& r) { return r.kind == Kind::kQuery; });
  for (std::size_t i = 0; i < requests.size() || (any_query && out.engine.size() < engine_runs); ++i) {
    const Request& request = requests[i % requests.size()];
    if (i >= requests.size() && request.kind != Kind::kQuery) continue;
    const auto routed = route(request.body);
    core::MetadataCatalog* catalog = routed.first;
    const std::string& body = routed.second;
    if (catalog == nullptr) continue;
    const std::uint64_t trace = run.next_trace_id++;
    const xml::Document doc = xml::parse(body);
    const core::MetadataCatalog::ReadGuard guard(*catalog);
    core::ObjectQuery q;
    if (request.kind == Kind::kQuery) {
      q = core::query_from_xml(*doc.root);
      core::QueryPlanInfo info;
      std::vector<core::ObjectId> ids;
      out.engine.push_back(timed(run, "replay.engine.query", trace, [&] { ids = guard.query(q, &info); }));
      out.rows_scanned += static_cast<double>(info.rows_scanned);
      out.index_probes += static_cast<double>(info.index_probes);
      out.materialized += static_cast<double>(info.rows_materialized);
      out.results += static_cast<double>(ids.size());
      out.queries += 1;
    }
    if (i >= full || i >= requests.size()) continue;
    core::CatalogService service(*catalog);
    const double handle_us = timed(run, "replay.service.handle", trace, [&] { (void)service.handle(body); });
    const double warm_us = timed(run, "replay.service.handle", trace, [&] { (void)service.handle(body); });
    const double parse_us = timed(run, "replay.service.parse", trace, [&] { (void)xml::parse(body); });
    std::vector<core::ObjectId> page;
    double page_us = 0;
    if (request.kind == Kind::kQuery) {
      page_us = timed(run, "replay.catalog.query_paged", trace, [&] { page = guard.query_paged(q).ids; });
    } else {
      page.push_back(std::stoll(std::string(*doc.root->attribute("objectID"))));
    }
    std::string built;
    const double build_us =
        timed(run, "replay.response.build", trace, [&] { built = guard.build_response(page); });
    out.build_us += build_us;
    out.build_objects += static_cast<double>(page.size());
    out.build_bytes += static_cast<double>(built.size());
    out.handle.push_back(handle_us);
    out.parse.push_back(parse_us);
    out.self.push_back(warm_us - parse_us - page_us - build_us);
  }
  return out;
}

void read_replay_metrics(Run& run, const ReadReplay& rr) {
  auto& L = run.report.layer;
  L.push_back({"service.handle_us_p50", median_of(rr.handle), "us", rr.handle.size()});
  L.push_back({"service.parse_us_p50", median_of(rr.parse), "us", rr.parse.size()});
  L.push_back({"service.self_us_p50", median_of(rr.self), "us", rr.self.size()});
  L.push_back({"engine.match_us_p50", median_of(rr.engine), "us", rr.engine.size()});
  add_pct(L, "engine.match_us_p99", percentile(rr.engine, 0.99));
  L.push_back({"engine.rows_scanned_per_result", ratio(rr.rows_scanned, rr.results), "rows"});
  L.push_back({"engine.index_probes_per_query", ratio(rr.index_probes, rr.queries), "count"});
  L.push_back({"engine.rows_materialized_per_query", ratio(rr.materialized, rr.queries), "rows"});
  L.push_back({"response.build_us_per_object", ratio(rr.build_us, rr.build_objects), "us"});
  L.push_back({"response.bytes_per_object", ratio(rr.build_bytes, rr.build_objects), "bytes"});
}

/// A seeded sample (without replacement) of the window's requests of the
/// given kinds, at most `cap`.
std::vector<Request> sample_requests(const std::vector<Request>& sent, std::size_t cap,
                                     std::uint64_t seed) {
  std::vector<Request> out;
  for (const std::size_t i : permutation(sent.size(), seed)) {
    if (out.size() == cap) break;
    out.push_back(sent[i]);
  }
  return out;
}

struct IngestReplay {
  std::vector<double> parse, apply;
  double shred_us_mean = 0;
};

IngestReplay replay_ingest(Run& run, core::MetadataCatalog& catalog,
                           const std::vector<std::string>& bodies) {
  IngestReplay out;
  const double docs0 = static_cast<double>(catalog.ingest_metrics().documents.load());
  const double micros0 = static_cast<double>(catalog.ingest_metrics().micros.load());
  for (const std::string& body : bodies) {
    const std::uint64_t trace = run.next_trace_id++;
    xml::Document request;
    out.parse.push_back(timed(run, "replay.xml.parse", trace, [&] { request = xml::parse(body); }));
    xml::Document doc;
    doc.root = request.root->child_elements().front()->clone();
    const std::string name = std::string(*request.root->attribute("name")) + "-replay";
    out.apply.push_back(
        timed(run, "replay.catalog.ingest", trace, [&] { catalog.ingest(doc, name, "bench"); }));
  }
  const double docs = static_cast<double>(catalog.ingest_metrics().documents.load()) - docs0;
  const double micros = static_cast<double>(catalog.ingest_metrics().micros.load()) - micros0;
  out.shred_us_mean = ratio(micros, docs);
  return out;
}

void ingest_replay_metrics(Run& run, const IngestReplay& ir) {
  auto& L = run.report.layer;
  L.push_back({"xml.doc_parse_us_p50", median_of(ir.parse), "us", ir.parse.size()});
  L.push_back({"shredder.shred_us_mean", ir.shred_us_mean, "us", ir.apply.size()});
  add_pct(L, "catalog.ingest_apply_us_p50", percentile(ir.apply, 0.5));
  add_pct(L, "catalog.ingest_apply_us_p99", percentile(ir.apply, 0.99));
  L.push_back({"catalog.publish_us_mean", std::max(0.0, mean(ir.apply) - ir.shred_us_mean), "us",
               ir.apply.size()});
}

/// Dispatch-span durations, optionally only of one request type.
std::vector<double> durations(const std::vector<Span>& spans, SpanKind kind, char type = 0,
                              int hit = -1) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind != kind || (type != 0 && s.type != type)) continue;
    if (hit >= 0 && s.hit != (hit == 1)) continue;
    out.push_back(s.end_us - s.start_us);
  }
  return out;
}

/// Ties client samples to the front broker's spans by request bytes and
/// time containment; returns net self times (client wire time minus the
/// broker's probe + dispatch span) and writes the spans out.
std::vector<double> match_spans(Run& run, const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> by_hash;
  for (const Span& s : spans) by_hash[s.hash].push_back(&s);
  for (auto& [hash, list] : by_hash) {
    std::sort(list.begin(), list.end(),
              [](const Span* a, const Span* b) { return a->start_us < b->start_us; });
  }
  std::vector<double> self;
  for (const Sample& sample : run.window.samples) {
    if (!sample.ok || !TraceClock::slice_on(sample.sent_us - run.window_begin_us)) continue;
    const std::uint64_t trace = run.next_trace_id++;
    run.span("client.request", sample.sent_us, sample.done_us, trace);
    const auto it = by_hash.find(sample.hash);
    if (it == by_hash.end()) continue;
    const Span* probe = nullptr;
    const Span* dispatch = nullptr;
    for (const Span* s : it->second) {
      if (s->start_us < sample.sent_us || s->end_us > sample.done_us) continue;
      if (s->kind == SpanKind::kProbe && probe == nullptr) probe = s;
      if (s->kind == SpanKind::kDispatch && dispatch == nullptr) dispatch = s;
    }
    const Span* first = probe != nullptr ? probe : dispatch;
    if (first == nullptr) continue;
    const Span* last = (probe != nullptr && probe->hit) || dispatch == nullptr ? probe : dispatch;
    run.span(probe != nullptr ? "broker.probe" : "broker.dispatch", first->start_us, first->end_us,
             trace, trace);
    if (last != first) run.span("broker.dispatch", last->start_us, last->end_us, trace, trace);
    self.push_back((sample.done_us - sample.sent_us) - (last->end_us - first->start_us));
  }
  return self;
}

/// Per-layer metrics every workload reports from spans, counters and the
/// client samples (replay metrics are added by the workload).
void common_layer_metrics(Run& run, const Stats& before, const Stats& after,
                          const ServerCounters& front0, const ServerCounters& front1,
                          double frames_all, double pauses_read, double pauses_write,
                          const std::vector<Span>& front_spans, double handle_p50) {
  auto& L = run.report.layer;
  const std::vector<double> self = match_spans(run, front_spans);
  L.push_back({"net.self_us_p50", median_of(self), "us", self.size()});
  L.push_back({"net.inline_frac", ratio(delta(before, after, "cache.inline_served"), frames_all), "frac"});
  L.push_back({"net.read_pauses", pauses_read, "count"});
  L.push_back({"net.write_pauses", pauses_write, "count"});
  L.push_back({"net.bytes_out_per_resp",
               ratio(front1.bytes_out - front0.bytes_out, front1.frames_out - front0.frames_out), "bytes"});

  const std::vector<double> spans = durations(run.serving_spans, SpanKind::kDispatch);
  add_pct(L, "dispatcher.span_us_p50", percentile(spans, 0.5));
  add_pct(L, "dispatcher.span_us_p99", percentile(spans, 0.99));
  // Queue wait of reads: their dispatch span beyond the replayed handle
  // time (ingest spans are dominated by the apply, not by waiting).
  std::vector<double> reads = durations(run.serving_spans, SpanKind::kDispatch, 'q');
  const std::vector<double> fetches = durations(run.serving_spans, SpanKind::kDispatch, 'f');
  reads.insert(reads.end(), fetches.begin(), fetches.end());
  L.push_back({"dispatcher.queue_wait_us_p50", std::max(0.0, median_of(reads) - handle_p50), "us", reads.size()});
  std::vector<double> depths;
  for (const Span& s : run.serving_spans) {
    if (s.kind == SpanKind::kDispatch) depths.push_back(s.depth);
  }
  L.push_back({"dispatcher.queue_depth_mean", mean(depths), "count", depths.size()});
  L.push_back({"dispatcher.rejected", delta(before, after, "requests.request.rejected"), "count"});

  const double l2h = delta(before, after, "cache.l2.hits"), l2m = delta(before, after, "cache.l2.misses");
  const double l1h = delta(before, after, "cache.l1.hits"), l1m = delta(before, after, "cache.l1.misses");
  L.push_back({"cache.l2_hit_frac", ratio(l2h, l2h + l2m), "frac"});
  L.push_back({"cache.l1_hit_frac", ratio(l1h, l1h + l1m), "frac"});
  L.push_back({"cache.l2_evictions", delta(before, after, "cache.l2.evictions"), "count"});
  L.push_back({"cache.l2_mb", gauge(after, "cache.l2.bytes") / 1048576.0, "MB"});
  const std::vector<double> probes = durations(run.serving_spans, SpanKind::kProbe, 0, 0);
  L.push_back({"cache.probe_us_p50", median_of(probes), "us", probes.size()});

  const double snaps = delta(before, after, "mvcc.snapshots");
  L.push_back({"mvcc.retired_pending_max",
               std::max(run.retired_pending_max, gauge(after, "mvcc.retired_pending")), "count"});
  L.push_back({"mvcc.reclamations_per_commit", ratio(delta(before, after, "mvcc.reclamations"), snaps), "count"});
  const double docs = delta(before, after, "ingest.documents");
  L.push_back({"shredder.rows_per_doc", ratio(delta(before, after, "ingest.element_rows"), docs), "rows"});

  // Tracing overhead: traced minus untraced slices of this same run.
  for (const Kind kind : {Kind::kQuery, Kind::kFetch}) {
    std::vector<double> on, off;
    for (const Sample& s : run.window.samples) {
      if (s.kind != kind || !s.ok) continue;
      (TraceClock::slice_on(s.sent_us - run.window_begin_us) ? on : off).push_back(s.latency_us());
    }
    L.push_back({std::string("trace.overhead_") + kind_name(kind) + "_p50_us",
                 median_of(on) - median_of(off), "us", on.size() + off.size()});
  }
  add_pct(L, "gen.lag_us_p99", percentile(run.window.lag_us, 0.99));
}

/// Layers a workload does not exercise report exact zeros.
using LayerNames = std::vector<std::pair<const char*, const char*>>;

void zero_layers(Run& run, const LayerNames& names) {
  for (const auto& [name, unit] : names) run.report.layer.push_back({name, 0, unit});
}

const LayerNames kShredLayer = {{"xml.doc_parse_us_p50", "us"},        {"shredder.shred_us_mean", "us"},
                                {"catalog.ingest_apply_us_p50", "us"}, {"catalog.ingest_apply_us_p99", "us"},
                                {"catalog.publish_us_mean", "us"},     {"catalog.apply_growth", "ratio"}};
const LayerNames kWalLayer = {{"wal.fsyncs_per_doc", "count"},
                              {"wal.bytes_per_doc", "bytes"},
                              {"wal.flush_us_p50", "us"},
                              {"recovery.replay_us_per_record", "us"},
                              {"snapshot.mb", "MB"}};
const LayerNames kFedLayer = {{"fed.router_span_us_p50", "us"}, {"fed.shard_span_us_p50", "us"},
                              {"fed.router_overhead_us", "us"}, {"fed.legs_per_request", "count"},
                              {"fed.shard_imbalance", "ratio"}, {"fed.merge_us_p50", "us"}};
const LayerNames kClobLayer = {
    {"clob.miss_frac", "frac"}, {"clob.read_amp", "ratio"}, {"clob.resident_mb", "MB"}, {"clob.spilled_mb", "MB"}};

void clob_metrics(Run& run, const hxrc::rel::ClobStore& clobs, double hits0, double misses0,
                  double segment_bytes, double bytes_served) {
  auto& L = run.report.layer;
  const double hits = static_cast<double>(clobs.cache_hits()) - hits0;
  const double misses = static_cast<double>(clobs.cache_misses()) - misses0;
  L.push_back({"clob.miss_frac", ratio(misses, hits + misses), "frac"});
  L.push_back({"clob.read_amp", ratio(misses * segment_bytes, bytes_served), "ratio"});
  L.push_back({"clob.resident_mb", static_cast<double>(clobs.resident_bytes()) / 1048576.0, "MB"});
  L.push_back({"clob.spilled_mb", static_cast<double>(clobs.spilled_bytes()) / 1048576.0, "MB"});
}

/// apply time in the last tenth of the window over the first tenth, from
/// the dispatch spans of ingest requests.
double apply_growth(const std::vector<Span>& spans) {
  std::vector<const Span*> ingests;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kDispatch && s.type == 'i') ingests.push_back(&s);
  }
  if (ingests.size() < 20) return 0;
  std::sort(ingests.begin(), ingests.end(),
            [](const Span* a, const Span* b) { return a->start_us < b->start_us; });
  const std::size_t tenth = ingests.size() / 10;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < tenth; ++i) {
    first.push_back(ingests[i]->end_us - ingests[i]->start_us);
    const Span* s = ingests[ingests.size() - 1 - i];
    last.push_back(s->end_us - s->start_us);
  }
  return ratio(median_of(last), median_of(first));
}

// ---------------------------------------------------------------------------
// Read mixes.

/// Read requests drawn Zipf-skewed from a query pool and a fetch pool, with
/// per-connection cursor following.
class ZipfReads {
 public:
  ZipfReads(const std::vector<QueryEntry>& queries, std::vector<std::string> fetches,
            double query_share, double zipf_s, std::uint64_t seed, std::size_t connections)
      : queries_(queries),
        fetches_(std::move(fetches)),
        query_share_(query_share),
        qzipf_(queries.size(), zipf_s, mix_seed(seed, 21)),
        fzipf_(fetches_.size(), zipf_s, mix_seed(seed, 22)),
        follow_(connections) {
    for (std::size_t c = 0; c < connections; ++c) rngs_.emplace_back(mix_seed(seed, 100 + c));
  }

  Request next(std::size_t conn) {
    if (!follow_[conn].empty()) return {Kind::kQuery, std::exchange(follow_[conn], {}), -1};
    util::Prng& rng = rngs_[conn];
    if (rng.chance(query_share_)) {
      const QueryEntry& entry = queries_[qzipf_.sample(rng)];
      follow_[conn] = entry.follow;
      return {Kind::kQuery, entry.body, -1};
    }
    return {Kind::kFetch, fetches_[fzipf_.sample(rng)], -1};
  }

 private:
  const std::vector<QueryEntry>& queries_;
  std::vector<std::string> fetches_;
  double query_share_;
  Zipf qzipf_, fzipf_;
  std::vector<util::Prng> rngs_;
  std::vector<std::string> follow_;
};

/// First served response of a seeded sample of distinct requests, for the
/// byte oracles.
struct ResponseSample {
  explicit ResponseSample(std::size_t cap) : cap(cap) {}
  void offer(const Request& request, std::string_view body, bool ok) {
    if (!ok || request.kind == Kind::kIngest || request_hash(request.body) % 8 != 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (served.size() < cap) served.emplace(request.body, std::string(body));
  }
  std::size_t cap;
  std::mutex mutex;
  std::map<std::string, std::string> served;
};

/// Every read the window sent, kept for the replays (traced run).
struct SentLog {
  void add(const Request& request) {
    if (request.kind == Kind::kIngest) return;
    std::lock_guard<std::mutex> lock(mutex);
    reads.push_back(request);
  }
  std::mutex mutex;
  std::vector<Request> reads;
};

// ---------------------------------------------------------------------------
// Workload: discover and cold_fetch (single node, read-only open loop).

void run_read_only(Run& run, bool cold) {
  const Args& a = run.args;
  const std::uint64_t seed = a.seed;
  const std::size_t corpus = a.count("corpus");
  const std::size_t connections = a.count("connections");
  const double rate = a.num("rate");
  const std::string tmp = a.out_dir + "/tmp-" + std::to_string(::getpid());
  fs::create_directories(tmp);

  workload::GeneratorConfig gconfig;
  if (cold) gconfig = workload::scale_config(workload::scale_tier("10k"));
  gconfig.seed = mix_seed(seed, 1);

  std::unique_ptr<Node> node;
  std::vector<QueryEntry> queries;
  std::vector<std::string> fetches;
  const std::size_t reps = a.count("setup_reps");
  for (std::size_t rep = 0; rep < reps; ++rep) {
    node.reset();
    const Clock::time_point t0 = Clock::now();
    SetupTimer setup;
    NodeOptions options;
    if (cold) {
      options.page_file = tmp + "/clobs.pages";
      options.segment_bytes = a.count("segment_bytes");
      options.resident_segments = a.count("resident_segments");
    }
    setup.time([&] { node = std::make_unique<Node>(options); });
    workload::DocumentGenerator generator(gconfig);
    for (std::size_t i = 0; i < corpus; ++i) {
      const xml::Document doc = generator.generate(i);
      const std::string name = "doc-" + std::to_string(i);
      setup.time([&] { node->catalog->ingest(doc, name, "bench"); });
    }
    if (cold) setup.time([&] { node->catalog->database().clobs().flush(); });
    run.report.info["setup_ingest_s"] = seconds_since(t0);
    fetches.clear();
    for (std::size_t i = 0; i < corpus; ++i) fetches.push_back(fetch_request(i));
    if (cold) {
      // Indexed dynamic-parameter equalities at the tier's cardinality,
      // paged 20-50 objects at a time.
      util::Prng rng(mix_seed(seed, 14));
      std::set<std::string> seen;
      queries.clear();
      const int cardinality = gconfig.value_cardinality;
      while (queries.size() < a.count("query_pool")) {
        const char* group = rng.pick(workload::grid_group_names());
        const char* model = rng.pick(workload::model_names());
        const char* param = rng.pick(workload::parameter_names());
        const int v = static_cast<int>(rng.uniform(0, cardinality - 1));
        core::ObjectQuery q =
            workload::dynamic_param_query(group, model, param, workload::parameter_value(param, v));
        q.set_limit(static_cast<std::size_t>(rng.uniform(20, 50)));
        std::string body = core::query_to_xml(q);
        if (seen.insert(body).second) queries.push_back({std::move(body), {}});
      }
    } else {
      queries = generator_queries(a.count("query_pool"), seed, {10, 50});
      add_follows(queries, *node->catalog, a.num("follow_share"), seed);
    }
    run.report.info["setup_pools_s"] = seconds_since(t0) - run.report.info["setup_ingest_s"];
    setup.time([&] { node->serve(run.tracing.get()); });
    // Warm-up (not set-up time: its length is fixed): the same mix from a
    // different stream.
    if (!cold) {
      ZipfReads warm(queries, fetches, a.num("query_share"), a.num("zipf_s"), mix_seed(seed, 7), connections);
      open_loop({node->port(), connections, rate, a.num("warmup_s")},
                [&](std::size_t c) { return warm.next(c); }, [](const Request&, std::string_view, bool) {},
                run.epoch);
    }
    run.report.info["setup_wall_s"] = seconds_since(t0);
    run.report.setup_s.push_back(setup.seconds);
  }

  // The window.
  std::unique_ptr<ZipfReads> zipf;
  std::vector<std::size_t> fperm, qperm;
  util::Prng mix_rng(mix_seed(seed, 30));
  std::size_t fnext = 0, qnext = 0;
  if (cold) {
    // Walk seeded permutations: the cycle (corpus fetches, pool queries)
    // is longer than both the L2 cache and the CLOB segment LRU.
    fperm = permutation(fetches.size(), mix_seed(seed, 31));
    qperm = permutation(queries.size(), mix_seed(seed, 32));
  } else {
    zipf = std::make_unique<ZipfReads>(queries, fetches, a.num("query_share"), a.num("zipf_s"), seed,
                                       connections);
  }
  const double query_share = a.num("query_share");
  const Picker pick = [&](std::size_t c) -> Request {
    if (!cold) return zipf->next(c);
    if (mix_rng.chance(query_share)) return {Kind::kQuery, queries[qperm[qnext++ % qperm.size()]].body, -1};
    return {Kind::kFetch, fetches[fperm[fnext++ % fperm.size()]], -1};
  };
  ResponseSample sample(256);
  SentLog sent;
  const Stats before = read_stats(node->port());
  const ServerCounters c0 = counters(*node->server);
  const hxrc::rel::ClobStore& clobs = node->catalog->database().clobs();
  const double hits0 = static_cast<double>(clobs.cache_hits());
  const double misses0 = static_cast<double>(clobs.cache_misses());
  const std::uint64_t version0 = node->catalog->version();
  run.arm();
  run.window = open_loop({node->port(), connections, rate, a.seconds}, pick,
                         [&](const Request& r, std::string_view body, bool ok) {
                           sample.offer(r, body, ok);
                           if (run.traced()) sent.add(r);
                         },
                         run.epoch);
  run.disarm();
  const ServerCounters c1 = counters(*node->server);
  const Stats after = read_stats(node->port());
  run.report.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  // Capacity: an open loop receives exactly the rate it offers, so the
  // throughput reported here is the program's own, from a closed loop on
  // as many connections that continues the window's request stream.
  std::mutex pick_mutex;
  const LoopResult capacity = closed_loop(
      {node->port(), connections, a.num("capacity_s")},
      [&](std::size_t c) {
        std::lock_guard<std::mutex> lock(pick_mutex);
        return pick(c);
      },
      [&](const Request& r, std::string_view body, bool ok) { sample.offer(r, body, ok); }, run.epoch);
  run.report.info["window_ok_rps"] = responses_per_s(run.window.samples);
  window_metrics(run, run.window.samples, responses_per_s(capacity.samples), &capacity);
  check_open_loop(run.report, run.window, "reads");

  // Byte oracle: served (cached or not) == direct handle at the same epoch.
  run.report.check(node->catalog->version() == version0, "catalog epoch moved in a read-only window");
  core::CatalogService direct(*node->catalog);
  std::size_t mismatches = 0;
  for (const auto& [request, served] : sample.served) {
    if (direct.handle(request) != served) ++mismatches;
  }
  run.report.check(!sample.served.empty(), "no responses sampled for the byte oracle");
  run.report.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                        std::to_string(sample.served.size()) +
                                        " sampled responses differ from a direct handle");
  run.report.info["oracle_samples"] = static_cast<double>(sample.served.size());

  if (run.traced()) {
    run.serving_spans = take_spans(*node, run);
    const ReadReplay rr =
        replay_reads(run, sample_requests(sent.reads, a.count("engine_replay"), mix_seed(seed, 40)),
                     a.count("replay"), a.count("engine_replay"),
                     [&](const std::string& body) { return std::make_pair(node->catalog.get(), body); });
    common_layer_metrics(run, before, after, c0, c1, c1.frames_out - c0.frames_out,
                         c1.read_pauses - c0.read_pauses, c1.write_pauses - c0.write_pauses,
                         run.serving_spans, median_of(rr.handle));
    read_replay_metrics(run, rr);
    if (cold) {
      clob_metrics(run, clobs, hits0, misses0, static_cast<double>(a.count("segment_bytes")),
                   c1.bytes_out - c0.bytes_out);
    } else {
      zero_layers(run, kClobLayer);
    }
    zero_layers(run, kShredLayer);
    zero_layers(run, kWalLayer);
    zero_layers(run, kFedLayer);
  }
  node->stop();
  node.reset();
  fs::remove_all(tmp);
}

// ---------------------------------------------------------------------------
// Workload: ingest (durable single node, loaders + reader).

void run_ingest(Run& run) {
  const Args& a = run.args;
  const std::uint64_t seed = a.seed;
  const std::size_t preload = a.count("preload");
  const std::size_t loaders = a.count("loaders");
  const std::size_t window_docs =
      static_cast<std::size_t>(a.seconds * a.num("docs_per_second_nominal"));
  const std::string tmp = a.out_dir + "/tmp-" + std::to_string(::getpid());
  const std::string data_dir = tmp + "/data";

  workload::GeneratorConfig gconfig;
  gconfig.seed = mix_seed(seed, 1);
  workload::DocumentGenerator generator(gconfig);
  std::vector<QueryEntry> queries;
  std::unique_ptr<Node> node;
  std::vector<std::string> docs;
  const std::size_t reps = a.count("setup_reps");
  for (std::size_t rep = 0; rep < reps; ++rep) {
    node.reset();
    fs::remove_all(tmp);
    fs::create_directories(data_dir);
    const Clock::time_point t0 = Clock::now();
    SetupTimer setup;
    NodeOptions options;
    options.data_dir = data_dir;
    setup.time([&] { node = std::make_unique<Node>(options); });
    for (std::size_t i = 0; i < preload; ++i) {
      const xml::Document doc = generator.generate(i);
      const std::string name = "doc-" + std::to_string(i);
      setup.time([&] { node->catalog->ingest(doc, name, "bench"); });
    }
    setup.time([&] { node->durable->flush(); });
    // Fresh window documents, never repeated.
    docs.clear();
    for (std::size_t i = 0; i < window_docs; ++i) {
      docs.push_back(ingest_request(generator.generate(preload + i), "doc-" + std::to_string(preload + i)));
    }
    queries = generator_queries(a.count("query_pool"), seed, {10, 50});
    setup.time([&] { node->serve(run.tracing.get()); });
    run.report.info["setup_wall_s"] = seconds_since(t0);
    run.report.setup_s.push_back(setup.seconds);
  }

  // Reader: open loop on its own connection, queries from the pool and
  // fetches biased toward the newest acknowledged ids.
  std::atomic<std::int64_t> newest{static_cast<std::int64_t>(preload) - 1};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::size_t> next_doc{0};
  std::vector<std::int64_t> acked_ids(window_docs, -1);
  Zipf qzipf(queries.size(), a.num("zipf_s"), mix_seed(seed, 21));
  util::Prng reader_rng(mix_seed(seed, 50));
  SentLog sent;
  const double reader_share = a.num("query_share");
  const Picker reader_pick = [&](std::size_t) -> Request {
    if (reader_rng.chance(reader_share)) return {Kind::kQuery, queries[qzipf.sample(reader_rng)].body, -1};
    const std::int64_t back = static_cast<std::int64_t>(-std::log(1 - reader_rng.uniform01()) * 16);
    return {Kind::kFetch, fetch_request(static_cast<std::uint64_t>(std::max<std::int64_t>(0, newest.load() - back))),
            -1};
  };
  const Picker loader_pick = [&](std::size_t) -> Request {
    const std::size_t i = next_doc.fetch_add(1);
    if (i >= docs.size()) return {};
    return {Kind::kIngest, docs[i], static_cast<std::int64_t>(i)};
  };
  const ResponseHook loader_hook = [&](const Request& r, std::string_view body, bool ok) {
    if (run.traced()) sent.add(r);
    if (!ok) return;
    const std::size_t open = body.find("<objectID>");
    const std::int64_t id = std::stoll(std::string(body.substr(open + 10)));
    acked_ids[static_cast<std::size_t>(r.tag)] = id;
    acked.fetch_add(1);
    std::int64_t seen = newest.load();
    while (id > seen && !newest.compare_exchange_weak(seen, id)) {
    }
  };

  const Stats before = read_stats(node->port());
  const ServerCounters c0 = counters(*node->server);
  std::atomic<bool> loaders_done{false};
  LoopResult reader;
  const double reader_rate = a.num("reader_rate");
  run.arm();
  std::thread reader_thread([&] {
    // The reader stops when the loaders finish, so its window matches
    // theirs without knowing its length in advance.
    reader = open_loop({node->port(), 1, reader_rate, 150.0, &loaders_done}, reader_pick,
                       [&](const Request& r, std::string_view, bool) {
                         if (run.traced()) sent.add(r);
                       },
                       run.epoch);
  });
  LoopResult load = closed_loop({node->port(), loaders, 150.0}, loader_pick, loader_hook, run.epoch);
  loaders_done.store(true);
  reader_thread.join();
  run.disarm();
  const ServerCounters c1 = counters(*node->server);
  const Stats after = read_stats(node->port());
  run.report.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  run.window = std::move(load);
  const double elapsed = run.window.elapsed_s;
  const double docs_acked = static_cast<double>(acked.load());
  run.report.check(acked.load() == window_docs,
                   std::to_string(acked.load()) + " of " + std::to_string(window_docs) + " ingests acknowledged");
  // Reads are the reader's; the window's samples are the union.
  run.window.samples.insert(run.window.samples.end(), reader.samples.begin(), reader.samples.end());
  run.window.unanswered += reader.unanswered;
  run.window.bad_frames += reader.bad_frames;
  run.window.lag_us = reader.lag_us;
  run.window.in_flight = reader.in_flight;
  window_metrics(run, reader.samples, responses_per_s(run.window.samples));
  check_open_loop(run.report, reader, "reader");
  add_pct(run.report.extra, "ingest_p50_us", interval_percentile(run.window.samples, Kind::kIngest, 0.5));
  add_pct(run.report.extra, "ingest_p99_us", interval_percentile(run.window.samples, Kind::kIngest, 0.99));
  run.report.extra.push_back({"ingest_docs_per_s", docs_acked / elapsed, "1/s"});

  // Pre-restart responses of a seeded sample of acknowledged documents.
  util::Prng check_rng(mix_seed(seed, 60));
  std::map<std::string, std::string> before_restart;
  {
    net::BlockingClient client("127.0.0.1", node->port());
    for (int i = 0; i < 64; ++i) {
      const std::int64_t id = acked_ids[static_cast<std::size_t>(
          check_rng.uniform(0, static_cast<std::int64_t>(window_docs) - 1))];
      if (id < 0) continue;
      const std::string request = fetch_request(static_cast<std::uint64_t>(id));
      before_restart[request] = client.call(request);
    }
  }
  if (run.traced()) run.serving_spans = take_spans(*node, run);
  const double wal_fsyncs = delta(before, after, "durability.wal_fsyncs");
  const double wal_bytes = delta(before, after, "durability.wal_bytes");
  node->stop();
  const double disk = static_cast<double>(dir_bytes(data_dir));
  const std::size_t expected_objects = preload + acked.load();
  node.reset();

  // Reopen and time recovery.
  const Clock::time_point r0 = Clock::now();
  NodeOptions reopen;
  reopen.data_dir = data_dir;
  node = std::make_unique<Node>(reopen);
  const double recovery_s = seconds_since(r0);
  const storage::RecoveryInfo& info = node->durable->recovery();
  run.report.extra.push_back({"recovery_s", recovery_s, "s"});
  run.report.extra.push_back({"disk_bytes_per_doc", disk / static_cast<double>(expected_objects), "bytes"});
  run.report.check(node->catalog->object_count() == expected_objects,
                   "object count after reopen " + std::to_string(node->catalog->object_count()) +
                       " != preload + acknowledged " + std::to_string(expected_objects));
  std::size_t mismatches = 0;
  core::CatalogService direct(*node->catalog);
  for (const auto& [request, response] : before_restart) {
    if (!response_ok(response) || without_version(direct.handle(request)) != without_version(response)) {
      ++mismatches;
    }
  }
  run.report.check(!before_restart.empty(), "no acknowledged documents sampled");
  run.report.check(mismatches == 0, std::to_string(mismatches) + " of " + std::to_string(before_restart.size()) +
                                        " fetches differ across the restart");

  if (run.traced()) {
    // WAL flush: one fresh document, then a timed flush, repeated.
    std::vector<double> flushes;
    for (std::size_t i = 0; i < 64; ++i) {
      node->catalog->ingest(generator.generate(preload + window_docs + i), "flush-" + std::to_string(i), "bench");
      const std::uint64_t trace = run.next_trace_id++;
      flushes.push_back(timed(run, "replay.wal.flush", trace, [&] { node->durable->flush(); }));
    }
    node->durable->checkpoint();
    const double snapshot_mb = static_cast<double>(node->durable->metrics().snapshot_bytes.load()) / 1048576.0;
    node->durable->close();
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < a.count("replay_ingests"); ++i) {
      fresh.push_back(ingest_request(generator.generate(preload + window_docs + 64 + i),
                                     "replay-" + std::to_string(i)));
    }
    const ReadReplay rr =
        replay_reads(run, sample_requests(sent.reads, a.count("engine_replay"), mix_seed(seed, 40)),
                     a.count("replay"), a.count("engine_replay"),
                     [&](const std::string& body) { return std::make_pair(node->catalog.get(), body); });
    const IngestReplay ir = replay_ingest(run, *node->catalog, fresh);
    common_layer_metrics(run, before, after, c0, c1, c1.frames_out - c0.frames_out,
                         c1.read_pauses - c0.read_pauses, c1.write_pauses - c0.write_pauses,
                         run.serving_spans, median_of(rr.handle));
    read_replay_metrics(run, rr);
    ingest_replay_metrics(run, ir);
    auto& L = run.report.layer;
    L.push_back({"catalog.apply_growth", apply_growth(run.serving_spans), "ratio"});
    L.push_back({"wal.fsyncs_per_doc", ratio(wal_fsyncs, docs_acked), "count"});
    L.push_back({"wal.bytes_per_doc", ratio(wal_bytes, docs_acked), "bytes"});
    L.push_back({"wal.flush_us_p50", median_of(flushes), "us", flushes.size()});
    L.push_back({"recovery.replay_us_per_record",
                 ratio(static_cast<double>(info.recovery_micros), static_cast<double>(info.replayed_records)), "us"});
    L.push_back({"snapshot.mb", snapshot_mb, "MB"});
    zero_layers(run, kClobLayer);
    zero_layers(run, kFedLayer);
  }
  node->stop();
  node.reset();
  fs::remove_all(tmp);
}

// ---------------------------------------------------------------------------
// Workload: federated (4 shards behind a router, closed loop).

struct Federation {
  Federation(std::size_t shards, Tracing* tracing) {
    fed::RouterOptions options;
    for (std::size_t i = 0; i < shards; ++i) {
      NodeOptions shard_options;
      shard_options.workers = 2;
      shard_options.event_threads = 1;
      nodes.push_back(std::make_unique<Node>(shard_options));
      nodes.back()->serve(tracing);
      fed::ShardEndpoint endpoint;
      endpoint.primary_port = nodes.back()->port();
      options.shards.push_back(endpoint);
    }
    options.workers = 4;
    options.io_timeout_ms = 30000;
    options.probe_interval_ms = 0;
    router = std::make_unique<fed::FederationRouter>(std::move(options));
    core::RequestBroker* broker = router.get();
    if (tracing != nullptr) {
      log = &tracing->new_log();
      tracer = std::make_unique<TracingBroker>(*router, tracing->clock, *log);
      broker = tracer.get();
    }
    net::ServerConfig config;
    config.event_threads = 2;
    front = std::make_unique<net::CatalogServer>(*broker, config);
    front->start();
  }
  void stop() {
    front->drain();
    for (auto& node : nodes) node->stop();
  }

  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<fed::FederationRouter> router;
  SpanLog* log = nullptr;
  std::unique_ptr<TracingBroker> tracer;
  std::unique_ptr<net::CatalogServer> front;
};

void run_federated(Run& run) {
  const Args& a = run.args;
  const std::uint64_t seed = a.seed;
  const std::size_t corpus = a.count("corpus");
  const std::size_t connections = a.count("connections");
  const std::size_t shards = a.count("shards");
  const std::size_t ingest_every = a.count("ingest_every");

  workload::GeneratorConfig gconfig;
  gconfig.seed = mix_seed(seed, 1);
  workload::DocumentGenerator generator(gconfig);
  std::unique_ptr<Federation> fedn;
  std::vector<QueryEntry> queries;
  std::vector<std::string> fetches;
  std::vector<std::string> fresh;
  std::vector<std::string> preload;
  for (std::size_t i = 0; i < corpus; ++i) {
    preload.push_back(ingest_request(generator.generate(i), "doc-" + std::to_string(i)));
  }
  const std::size_t reps = a.count("setup_reps");
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (fedn) fedn->stop();
    fedn.reset();
    const Clock::time_point t0 = Clock::now();
    SetupTimer setup;
    setup.time([&] { fedn = std::make_unique<Federation>(shards, run.tracing.get()); });
    // Preload through the router's own wire ingest.
    std::atomic<std::size_t> next{0};
    std::mutex gid_mutex;
    fetches.clear();
    const Picker next_preload = [&](std::size_t) -> Request {
      const std::size_t i = next.fetch_add(1);
      return i < preload.size() ? Request{Kind::kIngest, preload[i], -1} : Request{};
    };
    // The gid set is seeded (placement hashes the document name); which
    // document holds which gid follows arrival order at each shard.
    const ResponseHook record_gid = [&](const Request&, std::string_view body, bool ok) {
      if (!ok) return;
      const std::size_t open = body.find("<objectID>");
      const std::uint64_t gid = std::stoull(std::string(body.substr(open + 10)));
      std::lock_guard<std::mutex> lock(gid_mutex);
      fetches.push_back(fetch_request(gid));
    };
    setup.time([&] { closed_loop({fedn->front->port(), connections, 120.0}, next_preload, record_gid, run.epoch); });
    if (fetches.size() != corpus) throw std::runtime_error("federated preload failed");
    std::sort(fetches.begin(), fetches.end());  // completion order is not seeded
    queries = generator_queries(a.count("query_pool"), seed, {10, 50});
    fresh.clear();
    for (std::size_t i = 0; i < a.count("fresh_docs"); ++i) {
      fresh.push_back(ingest_request(generator.generate(corpus + i), "doc-" + std::to_string(corpus + i)));
    }
    run.report.info["setup_wall_s"] = seconds_since(t0);
    run.report.setup_s.push_back(setup.seconds);
  }

  ZipfReads reads(queries, fetches, a.num("query_share"), a.num("zipf_s"), seed, connections);
  std::vector<std::uint64_t> seq(connections, 0);
  std::atomic<std::size_t> next_fresh{0};
  const Picker pick = [&](std::size_t c) -> Request {
    if (++seq[c] % ingest_every == 0) {
      const std::size_t i = next_fresh.fetch_add(1);
      if (i < fresh.size()) return {Kind::kIngest, fresh[i], -1};
    }
    return reads.next(c);
  };
  SentLog sent;
  std::vector<Stats> before_parts;
  for (auto& node : fedn->nodes) before_parts.push_back(read_stats(node->port()));
  const Stats before = sum_stats(before_parts);
  const ServerCounters f0 = counters(*fedn->front);
  ServerCounters s0;
  for (auto& node : fedn->nodes) {
    const ServerCounters c = counters(*node->server);
    s0.frames_out += c.frames_out;
    s0.read_pauses += c.read_pauses;
    s0.write_pauses += c.write_pauses;
  }
  run.arm();
  run.window = closed_loop({fedn->front->port(), connections, a.seconds}, pick,
                           [&](const Request& r, std::string_view, bool) {
                             if (run.traced()) sent.add(r);
                           },
                           run.epoch);
  run.disarm();
  const ServerCounters f1 = counters(*fedn->front);
  ServerCounters s1;
  for (auto& node : fedn->nodes) {
    const ServerCounters c = counters(*node->server);
    s1.frames_out += c.frames_out;
    s1.read_pauses += c.read_pauses;
    s1.write_pauses += c.write_pauses;
  }
  std::vector<Stats> after_parts;
  for (auto& node : fedn->nodes) after_parts.push_back(read_stats(node->port()));
  const Stats after = sum_stats(after_parts);
  run.report.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  window_metrics(run, run.window.samples, responses_per_s(run.window.samples));
  add_pct(run.report.extra, "ingest_p50_us", interval_percentile(run.window.samples, Kind::kIngest, 0.5));

  // Merge oracle: router pages == k-way merge of direct shard pages, with
  // the merge itself timed.
  util::Prng check_rng(mix_seed(seed, 70));
  std::vector<double> merge_us;
  std::size_t mismatches = 0, checked = 0;
  {
    net::BlockingClient router_client("127.0.0.1", fedn->front->port());
    std::vector<std::unique_ptr<net::BlockingClient>> shard_clients;
    for (auto& node : fedn->nodes) {
      shard_clients.push_back(std::make_unique<net::BlockingClient>("127.0.0.1", node->port()));
    }
    for (std::size_t k = 0; k < a.count("merge_checks"); ++k) {
      const std::string& request =
          queries[static_cast<std::size_t>(check_rng.uniform(0, static_cast<std::int64_t>(queries.size()) - 1))].body;
      std::vector<std::string> responses;
      for (auto& client : shard_clients) responses.push_back(client->call(request));
      std::vector<fed::MergeInput> inputs;
      std::uint64_t version = 0;
      bool shard_error = false;
      for (std::uint32_t s = 0; s < responses.size(); ++s) {
        const fed::ParsedResponse parsed = fed::parse_response(responses[s]);
        if (!parsed.ok) {
          shard_error = true;
          break;
        }
        fed::MergeInput in;
        in.shard = s;
        in.version = parsed.version;
        in.page = fed::parse_query_payload(parsed.payload, false);
        in.more = !in.page.next_cursor.empty();
        version = std::max(version, parsed.version);
        inputs.push_back(std::move(in));
      }
      const std::string limit_text = core::peek_request_attr(request, "limit");
      const std::size_t limit = limit_text.empty() ? 0 : std::stoul(limit_text);
      fed::MergeOutput merged;
      const std::uint64_t trace = run.next_trace_id++;
      merge_us.push_back(timed(run, "replay.fed.merge", trace, [&] {
        merged = fed::merge_query_pages(inputs, static_cast<std::uint32_t>(shards), limit, false);
      }));
      std::string payload = merged.payload;
      if (merged.truncated) {
        fed::FedCursor next;
        next.shard_count = static_cast<std::uint32_t>(shards);
        next.legs = merged.legs;
        payload += "<nextCursor>" + fed::encode_fed_cursor(next) + "</nextCursor>";
      }
      ++checked;
      if (shard_error || router_client.call(request) != fed::ok_envelope(version, payload)) ++mismatches;
    }
  }
  run.report.check(checked > 0 && mismatches == 0,
                   std::to_string(mismatches) + " of " + std::to_string(checked) +
                       " merged pages differ from the merge of direct shard pages");

  if (run.traced()) {
    const std::vector<Span> front_spans = fedn->log->take();
    std::vector<std::vector<Span>> shard_spans;
    for (auto& node : fedn->nodes) {
      shard_spans.push_back(take_spans(*node, run));
      run.serving_spans.insert(run.serving_spans.end(), shard_spans.back().begin(), shard_spans.back().end());
    }
    const auto route = [&](const std::string& body) -> std::pair<core::MetadataCatalog*, std::string> {
      const std::string id = core::peek_request_attr(body, "objectID");
      if (id.empty()) return {fedn->nodes[0]->catalog.get(), body};
      const std::uint64_t gid = std::stoull(id);
      return {fedn->nodes[fed::shard_of(gid, static_cast<std::uint32_t>(shards))]->catalog.get(),
              fetch_request(fed::lid_of(gid, static_cast<std::uint32_t>(shards)))};
    };
    const ReadReplay rr =
        replay_reads(run, sample_requests(sent.reads, a.count("engine_replay"), mix_seed(seed, 40)),
                     a.count("replay"), a.count("engine_replay"), route);
    std::vector<std::string> replay_docs;
    for (std::size_t i = 0; i < a.count("replay_ingests"); ++i) {
      replay_docs.push_back(ingest_request(generator.generate(corpus + fresh.size() + i),
                                           "replay-" + std::to_string(i)));
    }
    const IngestReplay ir = replay_ingest(run, *fedn->nodes[0]->catalog, replay_docs);
    common_layer_metrics(run, before, after, f0, f1, s1.frames_out - s0.frames_out,
                         s1.read_pauses - s0.read_pauses + f1.read_pauses - f0.read_pauses,
                         s1.write_pauses - s0.write_pauses + f1.write_pauses - f0.write_pauses,
                         front_spans, median_of(rr.handle));
    read_replay_metrics(run, rr);
    ingest_replay_metrics(run, ir);
    auto& L = run.report.layer;
    L.push_back({"catalog.apply_growth", apply_growth(run.serving_spans), "ratio"});
    const std::vector<double> router_spans = durations(front_spans, SpanKind::kDispatch);
    const std::vector<double> shard_all = durations(run.serving_spans, SpanKind::kDispatch);
    L.push_back({"fed.router_span_us_p50", median_of(router_spans), "us", router_spans.size()});
    L.push_back({"fed.shard_span_us_p50", median_of(shard_all), "us", shard_all.size()});
    L.push_back({"fed.router_overhead_us", median_of(router_spans) - median_of(shard_all), "us"});
    // Every leg is probed at its shard; hits never reach a dispatch span.
    L.push_back({"fed.legs_per_request",
                 ratio(static_cast<double>(durations(run.serving_spans, SpanKind::kProbe).size()),
                       static_cast<double>(durations(front_spans, SpanKind::kProbe).size())),
                 "count"});
    std::vector<double> busy;
    for (const auto& spans : shard_spans) {
      double sum = 0;
      for (const double d : durations(spans, SpanKind::kDispatch)) sum += d;
      busy.push_back(sum);
    }
    L.push_back({"fed.shard_imbalance", ratio(*std::max_element(busy.begin(), busy.end()), mean(busy)), "ratio"});
    L.push_back({"fed.merge_us_p50", median_of(merge_us), "us", merge_us.size()});
    zero_layers(run, kClobLayer);
    zero_layers(run, kWalLayer);
  }
  fedn->stop();
  fedn.reset();
}

// ---------------------------------------------------------------------------
// Output.

std::string record_json(const Run& run, const std::string& last_line) {
  const Report& r = run.report;
  std::ostringstream out;
  out << "{" << hxrc::benchx::bench_stamp_fields() << ", \"workload\": " << json_string(run.args.workload)
      << ", \"seed\": " << run.args.seed << ", \"seconds\": " << json_number(run.args.seconds)
      << ", \"trace\": " << (run.traced() ? 1 : 0) << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : run.args.params) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  out << "}, \"setup_s_samples\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) out << (i ? ", " : "") << json_number(r.setup_s[i]);
  out << "], \"info\": {";
  first = true;
  for (const auto& [k, v] : r.info) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  out << "}, \"end_to_end\": " << metrics_json(r.e2e, true) << ", \"extra\": " << metrics_json(r.extra, true)
      << ", \"per_layer\": " << metrics_json(r.layer, true) << ", \"checks_failed\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(r.check_failures[i]);
  }
  out << "], \"invalid\": " << json_string(r.invalid) << ", \"result\": " << last_line << "}\n";
  return out.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14s %-6s", m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
    if (m.n != 0) std::printf(" (n=%zu)", m.n);
    if (m.p != 0) std::printf(" [p%.4g]", m.p * 100);
    std::printf("\n");
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hxbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]"
               " [--param key=value ...]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  Args& args = run.args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--out") {
      args.out_dir = value;
    } else if (arg == "--param") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) usage();
      args.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      usage();
    }
  }
  if (args.seconds <= 0) usage();
  fs::create_directories(args.out_dir);
  if (args.trace) run.tracing = std::make_unique<Tracing>(run.epoch);

  try {
    if (args.workload == "discover") {
      run_read_only(run, false);
    } else if (args.workload == "cold_fetch") {
      run_read_only(run, true);
    } else if (args.workload == "ingest") {
      run_ingest(run);
    } else if (args.workload == "federated") {
      run_federated(run);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hxbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  Report& r = run.report;
  if (run.tracing) {
    for (const auto& log : run.tracing->logs) r.info["spans_dropped"] += static_cast<double>(log->dropped());
  }
  r.e2e.insert(r.e2e.begin(), Metric{"setup_s", median_of(r.setup_s), "s", r.setup_s.size()});
  const bool correct = r.check_failures.empty() && r.failed == 0;
  std::ostringstream last;
  last << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": "
       << metrics_json(args.trace ? r.layer : r.e2e, false) << "}";

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  std::ofstream(stem + "-trace" + (args.trace ? "1" : "0") + ".json") << record_json(run, last.str());
  if (args.trace) {
    std::ofstream spans(args.out_dir + "/spans-" + args.workload + "-seed" + std::to_string(args.seed) + ".jsonl");
    for (const std::string& line : run.span_lines) spans << line << "\n";
  }

  std::printf("workload %s seed %llu: %llu attempted, %llu failed\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_table("end-to-end:", r.e2e);
  print_table("reported, not gated:", r.extra);
  if (args.trace) print_table("per-layer:", r.layer);
  for (const std::string& failure : r.check_failures) std::printf("CHECK FAILED: %s\n", failure.c_str());
  if (!r.invalid.empty()) {
    std::fprintf(stderr, "hxbench: run invalid: %s\n", r.invalid.c_str());
    return 3;
  }
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
