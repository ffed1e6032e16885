// E7 — dynamic-attribute validation on insert (§3).
//
// Two sweeps:
//   Lookup/D      definition-registry lookups with D registered definitions
//                 (hash lookups: expected near-flat in D);
//   Validate/k    ingest where k of the 6 generator groups are registered —
//                 unregistered dynamic content is stored CLOB-only and
//                 skipped by shredding, so ingest gets *cheaper* as the
//                 unknown fraction grows, while unshredded counters rise.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace hxrc;

void lookup_bench(benchmark::State& state) {
  const auto defs = static_cast<std::size_t>(state.range(0));
  static xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog catalog(schema, workload::lead_annotations());
  for (std::size_t d = 0; d < defs; ++d) {
    catalog.define_dynamic_attribute("param-" + std::to_string(d), "ARPS",
                                     {{"value", xml::LeafType::kDouble, ""}});
  }
  std::size_t lookups = 0;
  std::size_t found = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::string name = "param-" + std::to_string((i * 131) % (defs * 2));
      if (catalog.registry().find_attribute(name, "ARPS", core::kNoAttr)) {
        ++found;
      }
      ++lookups;
    }
  }
  benchmark::DoNotOptimize(found);
  state.counters["lookups/s"] =
      benchmark::Counter(static_cast<double>(lookups), benchmark::Counter::kIsRate);
}

void validate_bench(benchmark::State& state) {
  const auto registered_groups = static_cast<std::size_t>(state.range(0));
  static xml::Schema schema = workload::lead_schema();

  workload::GeneratorConfig config;
  config.sub_attr_probability = 0.0;  // keep definitions flat for this sweep
  const auto& docs = benchx::corpus(200, config);

  std::size_t total = 0;
  std::size_t unshredded = 0;
  for (auto _ : state) {
    core::MetadataCatalog catalog(schema, workload::lead_annotations());
    std::size_t g = 0;
    for (const char* group : workload::grid_group_names()) {
      if (g++ >= registered_groups) break;
      for (const char* model : workload::model_names()) {
        std::vector<core::DynamicElementSpec> elements;
        for (const char* param : workload::parameter_names()) {
          elements.push_back(
              core::DynamicElementSpec{param, xml::LeafType::kDouble, model});
        }
        catalog.define_dynamic_attribute(group, model, elements);
      }
    }
    for (const auto& doc : docs) catalog.ingest(doc, "d", "bench");
    total += docs.size();
    unshredded = catalog.total_stats().unshredded_dynamic;
  }
  state.counters["docs/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["clob_only"] = static_cast<double>(unshredded) / docs.size();
}

}  // namespace

int main(int argc, char** argv) {
  for (const long defs : {16L, 256L, 4096L}) {
    benchmark::RegisterBenchmark("E7/Lookup", lookup_bench)->Arg(defs);
  }
  for (const long groups : {0L, 3L, 6L}) {
    benchmark::RegisterBenchmark("E7/Validate/registered_groups", validate_bench)
        ->Arg(groups)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
