// CPLX-DFG — DFG construction is O(n) and scalable (Sec. V step 3;
// refs [24][25]).
//
// Sweeps the event count for the serial single-pass builder under
// top2 and last2 (the mapping of perfbench's serve_wide workload; its
// activities keep the file name, so they are longer and more often
// outgrow the small-string buffer). Parallel construction is the same
// per-case step folded per task (pipeline::DfgSink); bench_pipeline
// measures it end to end.
#include <benchmark/benchmark.h>

#include "dfg/builder.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

/// O(n) serial construction under the registry mapping `map`.
void BM_BuildSerial(benchmark::State& state, const char* map) {
  const auto log = bench::synthetic_log(/*seed=*/1, /*cases=*/64,
                                        static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::mapping_by_name(map);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::build_serial(log, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetComplexityN(static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK_CAPTURE(BM_BuildSerial, top2, "top2")->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);
BENCHMARK_CAPTURE(BM_BuildSerial, last2, "last2")->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);

/// Merge cost grows with graph size, not event count.
void BM_DfgMerge(benchmark::State& state) {
  const auto log = bench::synthetic_log(2, 32, 256, static_cast<std::size_t>(state.range(0)));
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(log, f);
  for (auto _ : state) {
    dfg::Dfg acc;
    acc.merge(g);
    acc.merge(g);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DfgMerge)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
