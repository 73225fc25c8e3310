// Streaming trace -> EventLog -> DFG pipeline: parse, record->Case
// conversion and graph construction overlap on ONE ThreadPool instead
// of meeting at barriers (the scalable Sec. V construction of the
// paper, refs [24][25] in dfg/builder.hpp, taken end-to-end).
//
// Since the CaseSink refactor both entry points here are thin wrappers
// over pipeline::run (pipeline/sink.hpp) — the general "one streamed
// pass feeds any set of analytics" substrate:
//
//   files ──(buffer,chunk) parse tasks──► per-file fold ──StageQueue──►
//     convert tasks (case_from_records + every sink's fold) ──►
//     input-order assembly + input-order sink merges
//
//   - stage A: strace::read_trace_files_streamed enqueues every
//     (file, chunk) parse task; the pool thread that finishes a file's
//     last chunk folds it and pushes the ReadResult onto a bounded
//     StageQueue (backpressure: parsing stalls rather than piling up
//     unconverted files without limit; capacity via
//     StreamOptions::queue_capacity).
//   - stage B: the calling thread pops completions and immediately
//     submits the file's record->Case conversion to the SAME pool, so
//     conversion of early files runs while later files still parse.
//     trace_to_dfg folds each finished Case into a per-task partial
//     Dfg right inside the conversion task (a DfgSink).
//   - assembly: once the queue closes, results are assembled strictly
//     in input order and the partial graphs merge via the existing
//     Dfg monoid — byte-identical to the staged path.
//
// Guarantees (asserted by tests/test_pipeline_stream.cpp and
// tests/test_pipeline_sinks.cpp):
//   - output equals the staged event_log_from_files + build_serial
//     path byte for byte: case order, event order, warning strings and
//     their order, and graph equality — at any worker count and any
//     queue capacity;
//   - lifetime-correct: per-task conversion arenas and every parsed
//     TraceBuffer are adopted into the EventLog before it escapes;
//   - deterministic on error: every task is awaited, then the
//     exception of the lowest failing input index is rethrown.
//
// Usage:
//
//   st::ThreadPool pool(8);
//   auto [log, graph] = st::pipeline::trace_to_dfg(
//       paths, st::model::Mapping::call_top_dirs(2), pool);
//   // or, when only the log is needed:
//   st::model::EventLog log2 = st::pipeline::event_log_streamed(paths, pool);
#pragma once

#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "pipeline/sink.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::pipeline {

/// Streaming replacement for the staged "parse all files, then convert
/// all files" event-log construction: each file's record->Case
/// conversion is enqueued the moment that file's parse chunks finish
/// folding. File names must follow cid_host_rid.st (ParseError for the
/// first offender, checked before any I/O). Output is byte-identical
/// to the staged path. `opts.pool` is ignored — `pool` is used.
/// Equivalent to run(paths, pool, {}) with no sinks.
[[nodiscard]] model::EventLog event_log_streamed(const std::vector<std::string>& paths,
                                                 ThreadPool& pool, const StreamOptions& opts = {});

struct TraceDfg {
  model::EventLog log;
  dfg::Dfg graph;  ///< == dfg::build_serial(log, f)
};

/// Full streaming chain: parse, convert AND per-case DFG construction
/// overlap on `pool`; per-task partial graphs merge via the Dfg monoid.
/// The returned graph equals build_serial(result.log, f) on any input.
/// Thin wrapper over
/// run(paths, pool, {&dfg_sink}).
[[nodiscard]] TraceDfg trace_to_dfg(const std::vector<std::string>& paths,
                                    const model::Mapping& f, ThreadPool& pool,
                                    const StreamOptions& opts = {});

}  // namespace st::pipeline
