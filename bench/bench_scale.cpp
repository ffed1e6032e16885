// Million-object scale bench (EXPERIMENTS.md E14) -> BENCH_scale.json.
//
// Standalone driver (not Google Benchmark): each tier is one streamed
// ingest of the scale corpus followed by exact-percentile query and fetch
// latency measurement — setup dominates and percentiles gate CI, so the
// iteration machinery of the other benches doesn't fit.
//
// Modes:
//   default                 10k + 100k tiers, compressed postings + CLOB
//                           paging, writes BENCH_scale.json
//   HXRC_SCALE_FULL=1       adds the 1m tier (local/manual; ~minutes)
//   HXRC_SCALE_BASELINE=1   uncompressed postings, no paging, writes
//                           BENCH_scale.pre.json (the pre/post baseline)
//   --gate                  CI smoke: 10k + 100k post and 100k pre
//                           in-process; exits nonzero when the
//                           bytes/object or p99 gates fail
//   --json=PATH             overrides the output path
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/storage.hpp"
#include "rel/postings.hpp"
#include "storage/clob_pager.hpp"
#include "util/metrics.hpp"
#include "workload/lead_schema.hpp"
#include "workload/scale.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct TierResult {
  std::string name;
  std::size_t documents = 0;
  bool baseline = false;
  double ingest_seconds = 0;
  double ingest_docs_per_sec = 0;
  double approx_bytes = 0;
  double bytes_per_object = 0;
  double peak_rss_bytes = 0;
  double postings_bytes = 0;
  double postings_raw_bytes = 0;
  double postings_ratio = 1.0;
  double clob_resident_bytes = 0;
  double clob_spilled_bytes = 0;
  double clob_segments = 0;
  double query_p50_micros = 0;
  double query_p99_micros = 0;
  std::size_t queries = 0;
  double block_scan_rows_per_sec = 0;
  double fetch_p50_micros = 0;
  double fetch_p99_micros = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

TierResult run_tier(const hxrc::workload::ScaleTier& tier, bool baseline) {
  using namespace hxrc;

  rel::PostingList::set_compression(!baseline);

  xml::Schema schema = workload::lead_schema();
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  core::MetadataCatalog catalog(schema, workload::lead_annotations(), config);

  const std::string page_path =
      std::string("bench_scale_") + tier.name + (baseline ? "_pre" : "") + ".pages";
  std::unique_ptr<storage::PagedClobFile> pager;
  if (!baseline) {
    pager = std::make_unique<storage::PagedClobFile>(page_path);
    catalog.database().clobs().enable_paging(pager.get(), 4u << 20, 8);
  }

  TierResult r;
  r.name = tier.name;
  r.documents = tier.documents;
  r.baseline = baseline;

  std::fprintf(stderr, "[scale] tier %s (%zu docs, %s)\n", tier.name,
               tier.documents, baseline ? "baseline" : "compressed+paged");
  const auto t0 = Clock::now();
  workload::ingest_scale_corpus(catalog, tier, [&](std::size_t done) {
    std::fprintf(stderr, "[scale]   %zu/%zu ingested (%.0f docs/s)\n", done,
                 tier.documents, static_cast<double>(done) / seconds_since(t0));
  });
  catalog.database().clobs().flush();
  r.ingest_seconds = seconds_since(t0);
  r.ingest_docs_per_sec = static_cast<double>(tier.documents) / r.ingest_seconds;

  const rel::Database& db = catalog.database();
  r.approx_bytes = static_cast<double>(db.approx_bytes());
  r.bytes_per_object = r.approx_bytes / static_cast<double>(tier.documents);
  r.peak_rss_bytes = static_cast<double>(util::peak_rss_bytes());
  const rel::IndexStats postings = db.postings_stats();
  r.postings_bytes = static_cast<double>(postings.postings_bytes);
  r.postings_raw_bytes = static_cast<double>(postings.postings_raw_bytes);
  if (postings.postings_raw_bytes > 0) {
    r.postings_ratio = r.postings_bytes / r.postings_raw_bytes;
  }
  r.clob_resident_bytes = static_cast<double>(db.clobs().resident_bytes());
  r.clob_spilled_bytes = static_cast<double>(db.clobs().spilled_bytes());
  r.clob_segments = pager ? static_cast<double>(pager->segment_count()) : 0;

  // Indexed point queries: per-query best-of-3 (minimum over repetitions),
  // percentiles over the minima. The gate compares p99 across tiers, so
  // each sample must reflect the query's algorithmic cost at that scale —
  // a single-shot p99 is dominated by scheduler/allocator jitter on the
  // one unlucky run and scales with nothing but noise.
  const auto queries = workload::scale_query_mix(tier, 256);
  std::size_t matched = 0;
  for (const auto& q : queries) matched += catalog.query(q).size();  // warmup
  std::vector<double> lat;
  lat.reserve(queries.size());
  for (const auto& q : queries) {
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto q0 = Clock::now();
      const auto ids = catalog.query(q);
      const double micros = seconds_since(q0) * 1e6;
      if (rep == 0) matched += ids.size();
      best = rep == 0 ? micros : std::min(best, micros);
    }
    lat.push_back(best);
  }
  std::sort(lat.begin(), lat.end());
  r.query_p50_micros = percentile(lat, 0.50);
  r.query_p99_micros = percentile(lat, 0.99);
  r.queries = queries.size();
  std::fprintf(stderr,
               "[scale]   %zu queries, avg %.1f matches, p50 %.1fus p99 %.1fus\n",
               queries.size(),
               static_cast<double>(matched) / (2.0 * static_cast<double>(queries.size())),
               r.query_p50_micros, r.query_p99_micros);

  // Document reconstruction (the CLOB read path; cold reads page back in).
  {
    util::Prng rng(7);
    std::vector<double> fl;
    for (int i = 0; i < 200; ++i) {
      const auto id = static_cast<core::ObjectId>(
          rng.uniform(0, static_cast<std::int64_t>(tier.documents) - 1));
      const auto f0 = Clock::now();
      const xml::Document doc = catalog.fetch(id);
      fl.push_back(seconds_since(f0) * 1e6);
    }
    std::sort(fl.begin(), fl.end());
    r.fetch_p50_micros = percentile(fl, 0.50);
    r.fetch_p99_micros = percentile(fl, 0.99);
  }

  pager.reset();
  std::remove(page_path.c_str());
  return r;
}

void write_json(const std::string& path, const std::vector<TierResult>& results) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierResult& r = results[i];
    out << "  {\"name\": \"scale/" << r.name << "\", \"corpus_size\": " << r.documents
        << ", \"mode\": \"" << (r.baseline ? "baseline" : "compressed") << '"'
        << ", \"ingest_seconds\": " << r.ingest_seconds
        << ", \"ingest_docs_per_sec\": " << r.ingest_docs_per_sec
        << ", \"approx_bytes\": " << r.approx_bytes
        << ", \"bytes_per_object\": " << r.bytes_per_object
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"postings_bytes\": " << r.postings_bytes
        << ", \"postings_raw_bytes\": " << r.postings_raw_bytes
        << ", \"postings_ratio\": " << r.postings_ratio
        << ", \"clob_resident_bytes\": " << r.clob_resident_bytes
        << ", \"clob_spilled_bytes\": " << r.clob_spilled_bytes
        << ", \"clob_segments\": " << r.clob_segments
        << ", \"queries\": " << r.queries
        << ", \"query_p50_micros\": " << r.query_p50_micros
        << ", \"query_p99_micros\": " << r.query_p99_micros
        << ", \"fetch_p50_micros\": " << r.fetch_p50_micros
        << ", \"fetch_p99_micros\": " << r.fetch_p99_micros
        << (i + 1 < results.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  std::fprintf(stderr, "[scale] wrote %s\n", path.c_str());
}

/// CI smoke gates at the 100k tier (the 1M acceptance gates live in
/// EXPERIMENTS.md E14 and run locally): compressed bytes/object must stay
/// under 70% of the uncompressed baseline, and the 100k p99 must stay
/// within 1.25x of the 10k p99 (with a 64us floor so a fast machine's
/// timer noise can't fail the ratio).
int run_gate() {
  using hxrc::workload::scale_tier;
  const TierResult small = run_tier(scale_tier("10k"), false);
  const TierResult post = run_tier(scale_tier("100k"), false);
  const TierResult pre = run_tier(scale_tier("100k"), true);

  bool ok = true;
  const double ratio = post.bytes_per_object / pre.bytes_per_object;
  std::fprintf(stderr, "[gate] bytes/object: post %.0f vs pre %.0f (ratio %.3f, limit 0.70)\n",
               post.bytes_per_object, pre.bytes_per_object, ratio);
  if (ratio > 0.70) {
    std::fprintf(stderr, "[gate] FAIL: compression+paging saves too little\n");
    ok = false;
  }
  const double p99_floor = std::max(small.query_p99_micros, 64.0);
  std::fprintf(stderr, "[gate] query p99: 100k %.1fus vs 10k %.1fus (limit %.1fus)\n",
               post.query_p99_micros, small.query_p99_micros, 1.25 * p99_floor);
  if (post.query_p99_micros > 1.25 * p99_floor) {
    std::fprintf(stderr, "[gate] FAIL: indexed query latency not scale-invariant\n");
    ok = false;
  }
  std::fprintf(stderr, "[gate] %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") gate = true;
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  if (gate) return run_gate();

  const char* baseline_env = std::getenv("HXRC_SCALE_BASELINE");
  const bool baseline = baseline_env != nullptr && baseline_env[0] == '1';
  const char* full_env = std::getenv("HXRC_SCALE_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';
  if (json_path.empty()) {
    json_path = baseline ? "BENCH_scale.pre.json" : "BENCH_scale.json";
  }

  std::vector<TierResult> results;
  for (const auto& tier : hxrc::workload::scale_tiers()) {
    if (tier.documents >= 1'000'000 && !full) continue;
    results.push_back(run_tier(tier, baseline));
  }
  write_json(json_path, results);
  return 0;
}
