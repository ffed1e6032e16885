// Shared fixtures for the experiment benches (see DESIGN.md §4).
//
// Benches compare the hybrid catalog against the inlining / edge / CLOB
// baselines on identical generated corpora. Heavy setup (corpus generation,
// backend ingest) is cached across benchmark iterations keyed by the
// benchmark arguments.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/backend.hpp"
#include "bench_stamp.hpp"
#include "core/catalog.hpp"
#include "util/metrics.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace hxrc::benchx {

/// The partitioned LEAD schema (static: Partition keeps a schema pointer).
inline const core::Partition& lead_partition() {
  static const xml::Schema schema = workload::lead_schema();
  static const core::Partition partition =
      core::Partition::build(schema, workload::lead_annotations());
  return partition;
}

/// Cached deterministic corpora keyed by (size, config signature).
inline const std::vector<xml::Document>& corpus(std::size_t size,
                                                const workload::GeneratorConfig& config = {}) {
  struct KeyedCorpus {
    workload::GeneratorConfig config;
    std::size_t size;
    std::vector<xml::Document> docs;
  };
  static std::vector<KeyedCorpus> cache;
  for (const auto& entry : cache) {
    if (entry.size == size && entry.config.seed == config.seed &&
        entry.config.params_max == config.params_max &&
        entry.config.themes_max == config.themes_max &&
        entry.config.value_cardinality == config.value_cardinality &&
        entry.config.sub_attr_probability == config.sub_attr_probability &&
        entry.config.max_nesting == config.max_nesting) {
      return entry.docs;
    }
  }
  workload::DocumentGenerator generator(config);
  cache.push_back(KeyedCorpus{config, size, generator.corpus(size)});
  return cache.back().docs;
}

/// A backend pre-loaded with `size` documents, cached per (kind, size).
inline baselines::MetadataBackend& loaded_backend(baselines::BackendKind kind,
                                                  std::size_t size) {
  static std::map<std::pair<int, std::size_t>,
                  std::unique_ptr<baselines::MetadataBackend>>
      cache;
  const auto key = std::make_pair(static_cast<int>(kind), size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto backend = baselines::make_backend(kind, lead_partition());
    for (const auto& doc : corpus(size)) backend->ingest(doc, "bench");
    it = cache.emplace(key, std::move(backend)).first;
  }
  return *it->second;
}

inline core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

/// Display reporter that mirrors the normal console output and also collects
/// one record per run, written as a JSON array when the run finishes. Used
/// as the *display* reporter so no --benchmark_out flag is required.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      Record record{run.benchmark_name(), corpus_size(run.benchmark_name()),
                    run.GetAdjustedRealTime(), {}};
      // User counters arrive already finalized (rates divided by elapsed
      // time), so they can be dumped verbatim.
      for (const auto& [name, counter] : run.counters) {
        record.counters.emplace_back(name, static_cast<double>(counter));
      }
      // Process-wide peak RSS at run completion, and its per-object share
      // for corpus-sized runs — a memory check every bench gets for free.
      const auto rss = static_cast<double>(util::peak_rss_bytes());
      record.counters.emplace_back("peak_rss_bytes", rss);
      if (record.corpus_size > 0) {
        record.counters.emplace_back(
            "rss_bytes_per_object", rss / static_cast<double>(record.corpus_size));
      }
      records_.push_back(std::move(record));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::ofstream out(path_);
    // Leading provenance record (name "_meta") so every BENCH_*.json carries
    // the commit, build type, and run time it was measured from.
    out << "[\n  {\"name\": \"_meta\", " << bench_stamp_fields()
        << (records_.empty() ? "}\n" : "},\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "  {\"name\": \"" << escaped(r.name) << "\", \"corpus_size\": " << r.corpus_size
          << ", \"micros\": " << r.micros;
      for (const auto& [name, value] : r.counters) {
        out << ", \"" << escaped(name) << "\": " << value;
      }
      out << (i + 1 < records_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
  }

 private:
  struct Record {
    std::string name;
    long corpus_size;
    double micros;  // benches register with kMicrosecond
    std::vector<std::pair<std::string, double>> counters;
  };

  /// Last all-digit "/N/" segment, 0 when the name carries none. Scans
  /// right-to-left so decorations Google Benchmark appends after the Arg —
  /// "/iterations:40", "/manual_time", "/real_time" — are skipped.
  static long corpus_size(const std::string& name) {
    const std::string_view view(name);
    std::size_t end = view.size();
    while (end != 0) {
      const std::size_t slash = view.rfind('/', end - 1);
      if (slash == std::string::npos) return 0;
      const std::string_view segment = view.substr(slash + 1, end - slash - 1);
      long size = 0;
      bool digits = !segment.empty();
      for (const char c : segment) {
        if (c < '0' || c > '9') {
          digits = false;
          break;
        }
        size = size * 10 + (c - '0');
      }
      if (digits) return size;
      end = slash;
    }
    return 0;
  }

  static std::string escaped(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Record> records_;
};

/// Shared bench main body: strips `--json[=path]` from argv (default path is
/// per-bench), then runs the registered benchmarks, teeing results into the
/// JSON file when requested.
inline int run_benchmarks(int argc, char** argv, const char* default_json_path) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = default_json_path;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonTeeReporter reporter(std::move(json_path));
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace hxrc::benchx
