// CPLX-MAP — the mapping application is O(n) and row-independent
// (Sec. V step 2), plus an end-to-end pipeline benchmark covering
// Fig. 6's steps: filter -> map -> DFG -> statistics, the
// staged-vs-streamed trace -> EventLog -> DFG comparison feeding
// BENCH_pipeline.json's pipeline_overlap_speedup_vs_staged, and the
// multi-sink comparison (one pipeline::run pass folding DFG + case
// stats + variants vs the same analytics as N staged passes) feeding
// multi_sink_single_pass_speedup_vs_staged.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "strace/filename.hpp"
#include "strace/reader.hpp"
#include "support/timeparse.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

void BM_MappingApplication(benchmark::State& state) {
  const auto log = bench::synthetic_log(8, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    std::size_t mapped = 0;
    for (const auto& c : log.cases()) {
      for (const auto& e : c.events()) {
        if (f(e)) ++mapped;
      }
    }
    benchmark::DoNotOptimize(mapped);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetComplexityN(static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_MappingApplication)->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);

void BM_FpFilter(benchmark::State& state) {
  const auto log = bench::synthetic_log(9, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.filter_fp("/data/dir3"));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_FpFilter)->Range(1 << 10, 1 << 15);

void BM_ActivityLogBuild(benchmark::State& state) {
  const auto log = bench::synthetic_log(10, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ActivityLog::build(log, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_ActivityLogBuild)->Range(1 << 10, 1 << 15);

/// The whole Fig. 6 pipeline on one thread.
void BM_FullPipeline(benchmark::State& state) {
  const auto log = bench::synthetic_log(11, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    const auto filtered = log.filter_fp("/data");
    const auto g = dfg::build_serial(filtered, f);
    const auto stats = dfg::IoStatistics::compute(filtered, f);
    benchmark::DoNotOptimize(g);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_FullPipeline)->Range(1 << 10, 1 << 15);

// ---- staged vs streamed trace -> EventLog -> DFG -----------------------

/// On-disk strace corpus: one big file plus a swarm of small ones (the
/// mixed-parallelism workload), written once and removed at exit.
class TraceCorpus {
 public:
  static const std::vector<std::string>& paths() {
    static TraceCorpus corpus;
    return corpus.paths_;
  }

 private:
  TraceCorpus() {
    namespace fs = std::filesystem;
    // Unique per process: concurrent runs (CI + local) must not share
    // — or remove_all — each other's live corpus.
    std::random_device rd;
    dir_ = fs::temp_directory_path() /
           ("st_bench_pipeline_" + std::to_string(rd()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    paths_.push_back(write("big_nodeA_9001.st", make_trace(20000, 7)));
    for (int i = 0; i < 8; ++i) {
      paths_.push_back(write("s" + std::to_string(i) + "_nodeB_" + std::to_string(9100 + i) +
                                 ".st",
                             make_trace(1500, static_cast<std::uint64_t>(100 + i))));
    }
  }
  ~TraceCorpus() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::string make_trace(std::size_t lines, std::uint64_t pid) {
    std::string text;
    Micros t = 36000000000;  // 10:00:00
    const std::string p = std::to_string(pid);
    for (std::size_t i = 0; i < lines; ++i) {
      t += 100;
      switch (i % 4) {
        case 0:
          text += p + "  " + format_time_of_day(t) +
                  " read(3</p/data/f" + std::to_string(i % 16) +
                  ">, \"\"..., 65536) = 65536 <0.000040>\n";
          break;
        case 1:
          text += p + "  " + format_time_of_day(t) +
                  " openat(AT_FDCWD, \"/p/scratch/ssf/t" + std::to_string(i % 8) +
                  "\", O_RDWR|O_CREAT, 0644) = 5 <0.000150>\n";
          break;
        case 2:
          text += p + "  " + format_time_of_day(t) +
                  " pwrite64(5</p/scratch/ssf/t" + std::to_string(i % 8) +
                  ">, \"\"..., 1048576, 33554432) = 1048576 <0.000294>\n";
          break;
        default:
          text += p + "  " + format_time_of_day(t) +
                  " lseek(5</p/scratch/ssf/t" + std::to_string(i % 8) +
                  ">, 0, SEEK_SET) = 0 <0.000002>\n";
          break;
      }
    }
    return text;
  }

  std::string write(const std::string& name, const std::string& text) {
    const auto p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
};

/// The pre-pipeline parallel DFG build: a chunked map-reduce of
/// add_case_trace over `pool`, partial graphs merged through the Dfg
/// monoid. Kept here (not in src/) only as the staged baselines' last
/// barrier.
dfg::Dfg staged_build(const model::EventLog& log, const model::Mapping& f, ThreadPool& pool) {
  const auto cases = log.cases();
  return map_reduce(
      pool, cases.size(), dfg::Dfg{},
      [&](std::size_t lo, std::size_t hi) {
        dfg::Dfg partial;
        model::MappedCase walk;
        for (std::size_t i = lo; i < hi; ++i) {
          walk.assign(cases[i], f);
          dfg::add_case_trace(partial, walk);
        }
        return partial;
      },
      [](dfg::Dfg acc, const dfg::Dfg& part) {
        acc.merge(part);
        return acc;
      });
}

/// The barrier-separated reference: parse ALL files (mixed work queue),
/// then convert ALL files (parallel_for on the same pool), then
/// staged_build — the pre-pipeline construction, kept here as the
/// baseline pipeline_overlap_speedup_vs_staged is measured against.
dfg::Dfg staged_dfg(const std::vector<std::string>& paths, const model::Mapping& f,
                    ThreadPool& pool) {
  std::vector<strace::TraceFileId> ids;
  ids.reserve(paths.size());
  for (const auto& p : paths) ids.push_back(*strace::parse_trace_filename(p));

  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  auto results = bench::read_collected(paths, opts);  // barrier 1

  const std::size_t n = results.size();
  const std::size_t chunks = default_chunks(pool, n);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<model::Case> cases(n);
  std::vector<std::shared_ptr<strace::StringArena>> arenas(chunks);
  parallel_for(pool, 0, chunks, [&](std::size_t c) {  // barrier 2
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    if (lo >= hi) return;
    auto arena = std::make_shared<strace::StringArena>();
    for (std::size_t i = lo; i < hi; ++i) {
      cases[i] = model::case_from_records(ids[i], results[i].records, *arena);
    }
    arenas[c] = std::move(arena);
  });
  model::EventLog log;
  for (auto& arena : arenas) {
    if (arena) log.adopt(std::move(arena));
  }
  for (std::size_t i = 0; i < n; ++i) {
    log.add_case(std::move(cases[i]));
    log.adopt(std::move(results[i].buffer));
  }
  return staged_build(log, f, pool);  // barrier 3
}

void BM_PipelineStaged(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    const auto g = staged_dfg(paths, f, pool);
    traces += g.trace_count();
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_PipelineStaged)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PipelineStreamed(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    pipeline::DfgSink sink(f);
    const auto log = pipeline::run(paths, pool, {&sink});
    traces += sink.graph().trace_count();
    benchmark::DoNotOptimize(log);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_PipelineStreamed)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- multi-sink single pass vs N staged analytic passes ----------------

/// The pre-sink workflow: ingest the log (streaming pipeline, the best
/// ingest-only path), THEN walk the event arrays once per analytic —
/// graph, case summaries, variant multiset — behind the ingestion
/// barrier. Baseline for multi_sink_single_pass_speedup_vs_staged.
void BM_MultiSinkStaged(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    const auto log = pipeline::run(paths, pool, {});             // barrier
    const auto g = staged_build(log, f, pool);                   // pass 1
    const auto summaries = model::summarize_cases(log, pool);    // pass 2
    const auto variants = model::ActivityLog::build(log, f).variants();  // pass 3
    traces += g.trace_count();
    benchmark::DoNotOptimize(g);
    benchmark::DoNotOptimize(summaries);
    benchmark::DoNotOptimize(variants);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_MultiSinkStaged)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One pipeline::run pass: the same three analytics fold on the pool
/// while the files parse — no barrier, no re-walks.
void BM_MultiSinkSinglePass(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    pipeline::VariantsSink variants_sink(f);
    const auto log =
        pipeline::run(paths, pool, {&graph_sink, &stats_sink, &variants_sink});
    traces += graph_sink.graph().trace_count();
    benchmark::DoNotOptimize(log);
    benchmark::DoNotOptimize(graph_sink);
    benchmark::DoNotOptimize(stats_sink);
    benchmark::DoNotOptimize(variants_sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_MultiSinkSinglePass)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
