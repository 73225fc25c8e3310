// Self-contained HTML report of one analysis — the "static report"
// synthesis style the paper's related work attributes to Darshan and
// PyDarshan, built from this library's primitives:
//
//   - run metadata and the query that produced the view,
//   - per-case summary table (events, bytes, I/O time, span),
//   - the DFG as inline SVG (statistics- or partition-colored),
//   - activity statistics table (Load, bytes, DR, concurrency, ranks),
//   - edge gap table (the stalls between directly-following calls),
//   - optional trace-variant multiset (streaming reports),
//   - optional timeline of a chosen activity.
//
// Everything is embedded: one .html file, no external assets.
//
// One assembly behind every report: a report renders from one fold of
// L_f(C), a pipeline::ShardPartial, through assemble_report_data.
// Where that fold comes from is the only difference between the paths:
//   - build_report(log, ...) and the served report fold a materialized
//     EventLog in one walk (fold_log: one model::MappedCase per case
//     feeds the graph and both statistics partials);
//   - streaming_report folds the trace files in a single pipeline::run
//     (pipeline::fold_report: DfgSink + CaseStatsSink + VariantsSink +
//     IoStatsSink + EdgeStatsSink), so EVERY section is folded on the
//     pool WHILE the trace files parse; the sharded report merges the
//     same partials from fold-shard blobs. Both render through
//     render_sharded_report, which adds the two ingestion sections
//     (variants, data health).
// The I/O and edge statistics are finalized from the partials, and the
// doubles still match compute() bit for bit thanks to the
// deterministic summation tree in dfg/stats.hpp, so a section looks
// identical no matter which path produced it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dfg/coloring.hpp"
#include "dfg/concurrency.hpp"
#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"

namespace st {
class ThreadPool;
}  // namespace st

namespace st::report {

struct ReportOptions {
  std::string title = "I/O inspection report";
  std::string description;  ///< free text shown under the title
  /// Activity whose timeline is embedded (empty = none).
  std::optional<model::Activity> timeline_activity;
  /// Optional partition predicate label shown with the legend.
  std::string partition_legend;
};

/// The precomputed pieces every report section renders from, filled
/// from a folded partial by assemble_report_data (the ingestion
/// sections by render_sharded_report).
struct ReportData {
  dfg::Dfg graph;
  dfg::IoStatistics stats;
  dfg::EdgeStatistics edge_stats;
  std::vector<model::CaseSummary> case_summaries;
  std::size_t case_count = 0;
  std::size_t total_events = 0;
  /// Rendered as a "Trace variants" section when non-nullopt.
  std::optional<model::VariantCounts> variants;
  /// Rendered as a "Data health" section when non-nullopt (streaming
  /// and sharded reports — the paths with an ingestion phase whose
  /// degradation is worth surfacing; build_report never sets it).
  std::optional<pipeline::DataHealth> health;
  /// Timeline entries of ReportOptions::timeline_activity, when set.
  std::vector<dfg::TimelineEntry> timeline;
};

/// Renders the report from precomputed data. `styler` may be null
/// (uncolored DFG).
[[nodiscard]] std::string render_report(const ReportData& data, const model::Mapping& f,
                                        const dfg::Styler* styler, const ReportOptions& opts = {});

/// One walk over a materialized log: each case is mapped once and feeds
/// the graph, the I/O and edge statistics partials, the case summary
/// and the counts. Variants, warnings and health stay empty — a report
/// of a materialized log renders neither ingestion section.
[[nodiscard]] pipeline::ShardPartial fold_log(const model::EventLog& log, const model::Mapping& f);

/// The one ReportData assembly: copies the graph, case summaries and
/// counts, finalizes the I/O and edge statistics from the (const)
/// partials and takes the timeline from the folded I/O partial.
[[nodiscard]] ReportData assemble_report_data(const pipeline::ShardPartial& folded,
                                              const ReportOptions& opts = {});

/// Builds the full report from a materialized log (fold_log, then
/// assemble_report_data, then render_report). `styler` may be null
/// (uncolored DFG).
[[nodiscard]] std::string build_report(const model::EventLog& log, const model::Mapping& f,
                                       const dfg::Styler* styler, const ReportOptions& opts = {});

/// Writes the report to a file (throws IoError on failure).
void write_report_file(const std::string& path, const model::EventLog& log,
                       const model::Mapping& f, const dfg::Styler* styler,
                       const ReportOptions& opts = {});

struct StreamingReport {
  std::string html;
  /// The ingested log from the same pass — reusable (e.g. elog_tool
  /// import writes it to a container alongside the report).
  model::EventLog log;
};

/// Single-pass report straight from trace files: pipeline::fold_report
/// streams parse -> convert while the report's five sinks (DFG, case
/// table, variants, activity statistics, edge statistics) fold on the
/// same pool, then render_sharded_report renders the folded partial
/// (the optional timeline comes from the folded IoStatistics partial).
/// Compared to build_report over a log from a sink-less pipeline::run,
/// this removes the ingestion barrier plus every post-hoc walk, and
/// adds the variants section.
/// `extra_sinks` ride the same pass after the report's own sinks —
/// elog_tool import hangs its ElogV2WriterSink here, so one streamed
/// pass yields both the report and the container.
[[nodiscard]] StreamingReport streaming_report(const std::vector<std::string>& paths,
                                               const model::Mapping& f, ThreadPool& pool,
                                               const ReportOptions& opts = {},
                                               const pipeline::StreamOptions& stream_opts = {},
                                               std::span<pipeline::CaseSink* const> extra_sinks = {});

/// Renders the report from one fold of L_f(C): fold_report's partial
/// (streaming_report) or merged shard partials (pipeline::run_sharded,
/// or finalize_shards over decoded fold-shard blobs), statistics-
/// colored like the CLI report paths. assemble_report_data plus the
/// two ingestion sections: the variants, and the Data-health warning
/// classes tallied from `folded.warnings`. Because the shard merge is the
/// same monoid fold the streamed pass runs, the sharded HTML is
/// BYTE-identical to streaming_report over the same files with the
/// same options — `cmp` is the acceptance test. `f` must be the
/// mapping the partials were folded with (by short name).
[[nodiscard]] std::string render_sharded_report(const pipeline::ShardPartial& folded,
                                                const model::Mapping& f,
                                                const ReportOptions& opts = {});

}  // namespace st::report
