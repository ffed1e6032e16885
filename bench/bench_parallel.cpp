// E9/E11 — concurrent catalog operation (hpc-parallel substrate).
//
// ConcurrentQuery: read-only query throughput with T worker threads over a
// shared catalog; expectation: near-linear (tables are immutable during
// reads).
// MixedReadWrite (E11): the service scenario the MVCC catalog exists for —
// ONE background writer continuously ingesting while T closed-loop reader
// clients each run query → think → query against the same catalog. Clients
// model remote grid users (AMGA-style multi-client measurement): each
// carries a fixed think time (network RTT + client processing) between
// requests, so aggregate throughput grows with the number of in-flight
// clients until the server saturates. Under the old shared_mutex
// discipline every commit stalled the whole read side; with MVCC snapshot
// reads each query pins an epoch and runs lock-free, so read throughput
// must stay near-linear with a live writer. Per-request latency is
// recorded into a histogram and reported as p50/p99/p999 — tail latency is
// where writer-induced stalls would show. ReadOnlyScaling is the
// zero-writer control: the same closed loop without the background
// ingester, isolating reader-reader interference. Run with
// `--json=BENCH_concurrent.json --benchmark_filter=E11` to emit the
// committed results.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/metrics.hpp"

namespace {

using namespace hxrc;

/// Runs body(t) for t in [0, threads) on that many fresh threads and joins
/// them all.
template <typename Body>
void run_threads(std::size_t threads, const Body& body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back([&body, t] { body(t); });
  for (std::thread& worker : workers) worker.join();
}

void concurrent_query_bench(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  baselines::MetadataBackend& backend =
      benchx::loaded_backend(baselines::BackendKind::kHybrid, 1000);

  // Pre-generate a query batch.
  workload::QueryGenerator generator;
  std::vector<core::ObjectQuery> queries;
  for (std::uint64_t q = 0; q < 64; ++q) queries.push_back(generator.generate(q));

  std::size_t total = 0;
  for (auto _ : state) {
    std::atomic<std::size_t> hits{0};
    run_threads(threads, [&](std::size_t t) {
      for (std::size_t i = t; i < queries.size(); i += threads) {
        hits.fetch_add(backend.query(queries[i]).size(), std::memory_order_relaxed);
      }
    });
    benchmark::DoNotOptimize(hits.load());
    total += queries.size();
  }
  state.counters["queries/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

// ---- E11: mixed read/write over the shared-lock catalog ----

/// Per-client think time: the gap a remote grid client spends off the
/// catalog between requests (network round trip + client-side processing).
constexpr auto kClientThink = std::chrono::milliseconds(5);
/// Writer pacing: steady metadata arrival, not a tight ingest spin.
constexpr auto kWriterGap = std::chrono::milliseconds(2);
constexpr std::size_t kPreload = 500;
constexpr int kQueriesPerClientPerIter = 16;

void closed_loop_bench(benchmark::State& state, bool with_writer) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  static xml::Schema schema = workload::lead_schema();
  const auto& docs = benchx::corpus(kPreload + 200);

  core::MetadataCatalog catalog(schema, workload::lead_annotations(),
                                benchx::auto_define_config());
  for (std::size_t i = 0; i < kPreload; ++i) {
    catalog.ingest(docs[i], "preload", "bench");
  }

  workload::QueryGenerator generator;
  std::vector<core::ObjectQuery> queries;
  for (std::uint64_t q = 0; q < 32; ++q) queries.push_back(generator.generate(q));

  // Background writer: ingests for the whole lifetime of the benchmark
  // run, cycling through the spare corpus tail. Every ingest takes the
  // exclusive commit lock, publishes a new snapshot, and retires the old
  // one — MVCC readers must never notice.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> writes{0};
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        catalog.ingest(docs[kPreload + (i++ % 200)], "live", "writer");
        writes.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(kWriterGap);
      }
    });
  }

  // Per-request service latency (think time excluded): the histogram is
  // lock-free, so recording from every client adds no synchronization of
  // its own.
  util::LatencyHistogram latency;
  std::size_t total_queries = 0;
  std::atomic<std::size_t> total_hits{0};
  for (auto _ : state) {
    run_threads(clients, [&](std::size_t c) {
      for (int i = 0; i < kQueriesPerClientPerIter; ++i) {
        const auto& q =
            queries[(c * kQueriesPerClientPerIter + static_cast<std::size_t>(i)) %
                    queries.size()];
        const auto start = std::chrono::steady_clock::now();
        total_hits.fetch_add(catalog.query(q).size(), std::memory_order_relaxed);
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
        std::this_thread::sleep_for(kClientThink);
      }
    });
    total_queries += clients * kQueriesPerClientPerIter;
  }
  if (with_writer) {
    stop.store(true, std::memory_order_release);
    writer.join();
  }

  benchmark::DoNotOptimize(total_hits.load());
  state.counters["queries/s"] = benchmark::Counter(static_cast<double>(total_queries),
                                                   benchmark::Counter::kIsRate);
  state.counters["writes"] = benchmark::Counter(static_cast<double>(writes.load()));
  state.counters["catalog_version"] =
      benchmark::Counter(static_cast<double>(catalog.version()));
  state.counters["p50_us"] =
      benchmark::Counter(static_cast<double>(latency.percentile_micros(0.50)));
  state.counters["p99_us"] =
      benchmark::Counter(static_cast<double>(latency.percentile_micros(0.99)));
  state.counters["p999_us"] =
      benchmark::Counter(static_cast<double>(latency.percentile_micros(0.999)));
  state.counters["mean_us"] = benchmark::Counter(static_cast<double>(latency.mean_micros()));
  const util::MvccStats mvcc = catalog.mvcc_stats();
  state.counters["reclamations"] = benchmark::Counter(static_cast<double>(mvcc.reclamations));
}

void mixed_read_write_bench(benchmark::State& state) {
  closed_loop_bench(state, /*with_writer=*/true);
}

void read_only_scaling_bench(benchmark::State& state) {
  closed_loop_bench(state, /*with_writer=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  for (const long threads : {1L, 2L, 4L, 8L}) {
    benchmark::RegisterBenchmark("E9/ConcurrentQuery/threads", concurrent_query_bench)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
    benchmark::RegisterBenchmark("E11/MixedReadWrite/clients", mixed_read_write_bench)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark("E11/ReadOnlyScaling/clients", read_only_scaling_bench)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  return hxrc::benchx::run_benchmarks(argc, argv, "BENCH_concurrent.json");
}
