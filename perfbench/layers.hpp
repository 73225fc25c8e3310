// The offline reference path for served requests, and the traced
// per-layer probes every workload runs with --trace 1.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "elog/v2_select.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "parallel/thread_pool.hpp"

namespace iobench {

/// What the offline path answers a request from: the log of the import
/// pass (parsed from the trace files, independent of any container)
/// and the written v2 container, for the indexed selection.
struct OfflineCorpus {
  const st::model::EventLog* base = nullptr;
  st::model::Mapping mapping;
  std::shared_ptr<const st::model::EventLog> v2_base;
  std::vector<st::elog::IndexedSegment> segments;
};

[[nodiscard]] OfflineCorpus open_offline(const st::model::EventLog& base,
                                         const std::string& mapping,
                                         const std::string& elog_path);

/// Per-request facts the traced run reports.
struct OfflineReply {
  std::string payload;           ///< the bytes the server must send
  bool select_agrees = true;     ///< indexed selection == Query::apply
  std::size_t cases_selected = 0;  ///< cases with events left / cases scanned
  std::size_t cases_total = 0;
  std::size_t nodes = 0;         ///< DFG nodes/edges (report, decompose)
  std::size_t edges = 0;
  double layout_ms = -1;         ///< dfg.layout duration (report, decompose)
};

/// Answers `line` ("query Q" / "report Q" / "diff A :: B") through the
/// library's public functions, one span per call:
///   elog.select  model.query_apply  model.summaries  dfg.build  dfg.diff
/// A report's payload is build_report's, as the Catalog renders it.
/// With `decompose`, report requests also call build_report's steps one
/// by one, for their spans only: dfg.build, dfg.stats, model.summaries,
/// dfg.layout, dfg.render_svg and report.render (render_svg lays the
/// graph out again inside and render_report does both; their exclusive
/// times are derived by subtraction).
[[nodiscard]] OfflineReply offline_reply(const OfflineCorpus& c, const std::string& line,
                                         std::uint64_t rid, bool decompose);

/// The inputs of the per-layer probes.
struct ProbeInputs {
  const Corpus* corpus = nullptr;
  std::string mapping;
  std::string work_dir;
  std::string elog_tool;
  /// Requests replayed through a fresh Server (TCP) and in-process
  /// handle_request, for corpus.handle_ms / corpus.transport_ms.
  std::vector<std::string> replay;
  std::size_t cache_capacity = 64;
  /// Report corpus.hit_ratio/evictions from the replay's cache (for a
  /// workload that serves nothing else).
  bool replay_cache_stats = false;
};

/// corpus.hit_ratio and corpus.evictions from a Catalog's counters.
void add_cache_metrics(Metrics& m, const st::corpus::CacheStats& s);

/// Runs every layer probe (see README "Per-layer metrics") and adds its
/// per-layer metrics. Spans go to tracer(), which must be enabled. A
/// replayed reply that differs, or an unstable shard codec, fails an
/// operation of `out`.
void layer_probes(const ProbeInputs& in, st::ThreadPool& pool, Metrics& m, Outcome& out);

/// Adds the dfg.*/elog.select/model.summaries/report.render metrics from
/// the offline spans recorded so far, plus the per-layer self times,
/// the unattributed remainder of `wall_ms` and the tracing overhead.
void summarize_layers(Metrics& m, double wall_ms, double overhead_ms,
                      const std::vector<OfflineReply>& replies);

/// A corpus::Server on 127.0.0.1 (ephemeral port) accepting on its own
/// thread, its connections running on `pool`. Destruction stops it and
/// joins the thread, which waits for open connections to close.
class ServingThread {
 public:
  ServingThread(st::corpus::Catalog& catalog, st::ThreadPool& pool);
  ~ServingThread();
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  st::corpus::Server server_;
  std::thread thread_;
};

/// Sends `line` on an open ndjson connection and reads the framed
/// reply. Returns false on a transport error; `ok` is the header's
/// verdict.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool request(const std::string& line, bool& ok, std::string& payload);

 private:
  bool read_line(std::string& line);
  bool read_exact(std::size_t n, std::string& out);

  int fd_ = -1;
  std::string buf_;
};

}  // namespace iobench
