#include "layers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/builder.hpp"
#include "dfg/coloring.hpp"
#include "dfg/diff.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/layout.hpp"
#include "dfg/render_svg.hpp"
#include "dfg/stats.hpp"
#include "elog/store.hpp"
#include "elog/v2_store.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "model/query.hpp"
#include "pipeline/partial_codec.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "strace/filename.hpp"
#include "strace/reader.hpp"

namespace iobench {
namespace {

namespace fs = std::filesystem;
using st::model::EventLog;
using st::model::Query;

// -- the offline reference path ---------------------------------------------

/// The served diff payload. corpus/serve.cpp renders it in a private
/// helper, so this is a copy of that text format.
std::string flat(const st::model::Activity& a) {
  std::string out = a;
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

std::string render_diff(const st::dfg::GraphDiff& d) {
  std::ostringstream out;
  const auto nodes = [&](const char* label, const std::set<st::model::Activity>& set) {
    out << label << " nodes (" << set.size() << "):\n";
    for (const auto& a : set) out << "  " << flat(a) << "\n";
  };
  const auto edges = [&](const char* label, const std::set<st::dfg::GraphDiff::Edge>& set) {
    out << label << " edges (" << set.size() << "):\n";
    for (const auto& [from, to] : set) out << "  " << flat(from) << " -> " << flat(to) << "\n";
  };
  nodes("green", d.green_nodes());
  nodes("red", d.red_nodes());
  nodes("common", d.common_nodes());
  edges("green", d.green_edges());
  edges("red", d.red_edges());
  edges("common", d.common_edges());
  return std::move(out).str();
}

/// Selects through both evaluators: the indexed v2 path the server
/// uses (elog.select) and Query::apply over the import log, which is
/// the oracle the reply is built from.
EventLog select(const OfflineCorpus& c, const Query& q, std::uint64_t rid, OfflineReply& r) {
  auto& t = tracer();
  const EventLog indexed = t.span("elog.select", rid, [&] {
    return st::elog::apply_query_indexed(q, *c.v2_base, c.segments);
  });
  EventLog log = t.span("model.query_apply", rid, [&] { return q.apply(*c.base); });
  r.select_agrees = r.select_agrees && indexed.case_count() == log.case_count() &&
                   indexed.total_events() == log.total_events();
  r.cases_total += c.base->case_count();
  for (const auto& kase : log.cases()) r.cases_selected += kase.events().empty() ? 0 : 1;
  return log;
}

}  // namespace

OfflineCorpus open_offline(const EventLog& base, const std::string& mapping,
                           const std::string& elog_path) {
  OfflineCorpus c;
  c.base = &base;
  c.mapping = st::model::mapping_by_name(mapping);
  auto mapped = st::elog::open_v2(elog_path);
  c.v2_base = std::make_shared<const EventLog>(st::elog::read_event_log_v2(mapped));
  c.segments.push_back({0, mapped->case_count(), mapped});
  return c;
}

OfflineReply offline_reply(const OfflineCorpus& c, const std::string& line, std::uint64_t rid,
                           bool decompose) {
  auto& t = tracer();
  OfflineReply r;
  const auto space = line.find(' ');
  const std::string verb = line.substr(0, space);
  const std::string arg = space == std::string::npos ? "" : line.substr(space + 1);

  if (verb == "query") {
    const Query q = Query::parse(arg);
    const EventLog log = select(c, q, rid, r);
    r.payload = t.span("model.summaries", rid, [&] {
      return st::model::render_case_summaries(st::model::summarize_cases(log));
    });
  } else if (verb == "diff") {
    const auto sep = arg.find(" :: ");
    if (sep == std::string::npos) throw std::invalid_argument("bad diff request: " + line);
    const auto graph_of = [&](const std::string& text) {
      const EventLog log = select(c, Query::parse(text), rid, r);
      return t.span("dfg.build", rid, [&] { return st::dfg::build_serial(log, c.mapping); });
    };
    const auto ga = graph_of(arg.substr(0, sep));
    const auto gb = graph_of(arg.substr(sep + 4));
    r.payload = t.span("dfg.diff", rid,
                       [&] { return render_diff(st::dfg::GraphDiff(ga, gb)); });
  } else if (verb == "report") {
    const Query q = Query::parse(arg);
    const EventLog log = select(c, q, rid, r);
    const auto opts = st::corpus::query_report_options(q, c.mapping);
    // The reference payload: build_report, styled like the Catalog's.
    // Its call is a check, so it carries no span.
    {
      const auto stats = st::dfg::IoStatistics::compute(log, c.mapping);
      const st::dfg::StatisticsColoring styler(stats);
      r.payload = st::report::build_report(log, c.mapping, &styler, opts);
    }
    if (decompose) {
      // build_report's steps called one by one, for their timings only.
      st::report::ReportData data;
      data.graph =
          t.span("dfg.build", rid, [&] { return st::dfg::build_serial(log, c.mapping); });
      t.span("dfg.stats", rid, [&] {
        data.stats = st::dfg::IoStatistics::compute(log, c.mapping);
        data.edge_stats = st::dfg::EdgeStatistics::compute(log, c.mapping);
      });
      data.case_summaries =
          t.span("model.summaries", rid, [&] { return st::model::summarize_cases(log); });
      data.case_count = log.case_count();
      data.total_events = log.total_events();
      r.nodes = data.graph.nodes().size();
      r.edges = data.graph.edges().size();
      const st::dfg::StatisticsColoring styler(data.stats);
      const auto a = Clock::now();
      t.span("dfg.layout", rid, [&] {
        return st::dfg::layout_dfg(data.graph, &data.stats, st::dfg::LayoutOptions{});
      });
      r.layout_ms = ms_between(a, Clock::now());
      st::dfg::SvgOptions svg;
      svg.title = opts.title;
      t.span("dfg.render_svg", rid,
             [&] { return st::dfg::render_svg(data.graph, &data.stats, &styler, svg); });
      t.span("report.render", rid,
             [&] { return st::report::render_report(data, c.mapping, &styler, opts); });
    }
  } else {
    throw std::invalid_argument("unsupported request: " + line);
  }
  return r;
}

// -- the server and its client ----------------------------------------------------

ServingThread::ServingThread(st::corpus::Catalog& catalog, st::ThreadPool& pool)
    : server_(catalog, 0), thread_([this, &pool] { server_.serve_forever(pool); }) {}

ServingThread::~ServingThread() {
  server_.stop();
  thread_.join();
}

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd_);
    throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::read_line(std::string& line) {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const auto n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::read_exact(std::size_t n, std::string& out) {
  out.clear();
  const std::size_t have = std::min(n, buf_.size());
  out.append(buf_, 0, have);
  buf_.erase(0, have);
  out.resize(n);
  std::size_t off = have;
  while (off < n) {
    const auto got = ::read(fd_, out.data() + off, n - off);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    off += static_cast<std::size_t>(got);
  }
  return true;
}

bool Connection::request(const std::string& line, bool& ok, std::string& payload) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const auto n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  std::string header;
  if (!read_line(header)) return false;
  ok = header.starts_with("{\"ok\":true");
  payload.clear();
  if (!ok) return true;  // error replies carry no payload
  const auto at = header.rfind("\"bytes\":");
  if (at == std::string::npos) return false;
  return read_exact(std::stoull(header.substr(at + 8)), payload);
}

// -- per-layer probes -------------------------------------------------------------

namespace {

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

const std::span<st::pipeline::CaseSink* const> kNoSinks;

/// Times fn() `reps` times as span `name`; returns the median ms.
template <typename F>
double timed(const char* name, int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    tracer().span(name, 0, fn);
    ms.push_back(ms_between(a, Clock::now()));
  }
  return median(ms);
}

void probe_reader_and_convert(const ProbeInputs& in, st::ThreadPool& pool, int reps,
                              Metrics& m) {
  const Corpus& c = *in.corpus;
  st::strace::ParallelReadOptions popts;
  popts.pool = &pool;
  const double parse_ms = timed("strace.parse", reps, [&] {
    auto parse = st::strace::read_trace_files_streamed(
        c.files, popts, [](std::size_t, st::strace::ReadResult&&) {});
    parse.join();
    if (const auto e = parse.error()) std::rethrow_exception(e->error);
  });
  m.add("strace.parse_mb_per_s", mb(c.bytes) / (parse_ms / 1e3), "MB/s");

  // case_from_records alone, one file at a time on this thread.
  double convert_ms = 0;
  std::uint64_t events = 0;
  for (const auto& path : c.files) {
    const auto id = st::strace::parse_trace_filename(fs::path(path).filename().string());
    if (!id) throw std::runtime_error("bad trace file name: " + path);
    const auto rr = st::strace::read_trace_file(path);
    st::strace::StringArena arena;
    const auto a = Clock::now();
    const auto kase = tracer().span("model.convert", 0, [&] {
      return st::model::case_from_records(*id, rr.records, arena);
    });
    convert_ms += ms_between(a, Clock::now());
    events += kase.events().size();
  }
  m.add("model.convert_events_per_s", static_cast<double>(events) / (convert_ms / 1e3), "1/s");
}

void probe_sinks(const ProbeInputs& in, st::ThreadPool& pool, int reps, Metrics& m) {
  namespace pl = st::pipeline;
  const auto f = st::model::mapping_by_name(in.mapping);
  const auto& files = in.corpus->files;
  const double none = timed("pipeline.run", reps, [&] { (void)pl::run(files, pool, kNoSinks); });
  const auto with = [&](const char* metric, auto make_sink) {
    const double ms = timed("pipeline.run", reps, [&] {
      auto sink = make_sink();
      (void)pl::run(files, pool, {sink.get()});
    });
    m.add(metric, ms - none, "ms");
  };
  with("pipeline.sink_fold_ms.dfg", [&] { return std::make_unique<pl::DfgSink>(f); });
  with("pipeline.sink_fold_ms.case_stats", [&] { return std::make_unique<pl::CaseStatsSink>(); });
  with("pipeline.sink_fold_ms.variants", [&] { return std::make_unique<pl::VariantsSink>(f); });
  with("pipeline.sink_fold_ms.io_stats", [&] { return std::make_unique<pl::IoStatsSink>(f); });
  with("pipeline.sink_fold_ms.edge_stats", [&] { return std::make_unique<pl::EdgeStatsSink>(f); });
  const std::string path = in.work_dir + "/probe.elog";
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    fs::remove(path);  // a fresh file: rewriting one in place flushes it
    st::elog::ElogV2Writer writer(path);
    st::elog::ElogV2WriterSink sink(writer);
    const auto a = Clock::now();
    tracer().span("pipeline.run", 0, [&] { (void)pl::run(files, pool, {&sink}); });
    ms.push_back(ms_between(a, Clock::now()));
    writer.finalize();
  }
  m.add("pipeline.sink_fold_ms.elog_v2_writer", median(ms) - none, "ms");
}

void probe_parallel_and_shards(const ProbeInputs& in, st::ThreadPool& pool, int reps,
                               Metrics& m, Outcome& out) {
  namespace pl = st::pipeline;
  const auto f = st::model::mapping_by_name(in.mapping);
  const auto& files = in.corpus->files;
  // The ingest pass (report sinks + container sink) at nproc and at 1 worker.
  const auto pass = [&](st::ThreadPool& p) {
    fs::remove(in.work_dir + "/probe.elog");
    st::elog::ElogV2Writer writer(in.work_dir + "/probe.elog");
    st::elog::ElogV2WriterSink sink(writer);
    st::pipeline::CaseSink* extra[] = {&sink};
    (void)st::report::streaming_report(files, f, p, {}, {}, extra);
    writer.finalize();
  };
  const double wide = timed("report.streaming_report_nproc", reps, [&] { pass(pool); });
  st::ThreadPool one(1);
  const double narrow = timed("report.streaming_report_1w", reps, [&] { pass(one); });
  m.add("parallel.ingest_scaling_nproc_over_1w", narrow / wide, "ratio");

  pl::ShardOptions sopts;
  sopts.shards = nproc();
  sopts.worker_threads = 1;
  sopts.mapping = in.mapping;
  sopts.fold_shard_exe = in.elog_tool;
  const double spawned =
      timed("pipeline.run_sharded_spawned", reps, [&] { (void)pl::run_sharded(files, sopts); });
  sopts.fold_shard_exe.clear();
  const double local =
      timed("pipeline.run_sharded_in_process", reps, [&] { (void)pl::run_sharded(files, sopts); });
  m.add("pipeline.spawn_overhead_ratio", spawned / local, "ratio");

  // encode + decode of each shard's partial, as the coordinator and the
  // children do it.
  std::vector<double> codec;
  for (int r = 0; r < reps; ++r) {
    double total = 0;
    for (std::size_t s = 0; s < sopts.shards; ++s) {
      const std::vector<std::string> split(files.begin() + s * files.size() / sopts.shards,
                                           files.begin() + (s + 1) * files.size() / sopts.shards);
      const std::string blob = pl::fold_shard(split, sopts);
      const auto a = Clock::now();
      const auto part = tracer().span("pipeline.shard_decode", 0,
                                      [&] { return pl::decode_shard_partial(blob); });
      const auto again = tracer().span("pipeline.shard_encode", 0,
                                       [&] { return pl::encode_shard_partial(part); });
      total += ms_between(a, Clock::now());
      out.check(again == blob, "shard partial does not re-encode to the same bytes");
    }
    codec.push_back(total);
  }
  m.add("pipeline.shard_codec_ms", median(codec), "ms");
}

/// elog write throughput and Catalog::load, then the replay that splits
/// client latency into handle_request time and transport time.
void probe_elog_and_corpus(const ProbeInputs& in, st::ThreadPool& pool, int reps,
                           Metrics& m, Outcome& out) {
  const auto log = st::pipeline::run(in.corpus->files, pool, kNoSinks);
  const std::string path = in.work_dir + "/probe.elog";
  const double write_ms = timed("elog.write", reps, [&] {
    fs::remove(path);
    st::elog::write_event_log_v2_file(path, log);
  });
  m.add("elog.write_mb_per_s", mb(fs::file_size(path)) / (write_ms / 1e3), "MB/s");

  st::corpus::CatalogOptions copts;
  copts.mapping = in.mapping;
  copts.cache_capacity = in.cache_capacity;
  const auto load = [&] {
    auto cat = std::make_unique<st::corpus::Catalog>(copts);
    cat->load({path}, pool);
    return cat;
  };
  const double open_ms = timed("elog.open", reps, [&] { (void)load(); });
  m.add("elog.open_ms", open_ms, "ms");

  // Two catalogs see the same request sequence: one behind a Server
  // (client latency), one called in-process (handle_request time).
  auto served = load();
  auto local = load();
  st::ThreadPool server_pool(2);
  std::vector<double> handle, transport;
  {
    const ServingThread serving(*served, server_pool);
    Connection conn(serving.port());
    std::uint64_t rid = 1u << 20;
    for (int pass = 0; pass < 2; ++pass) {  // cold, then cached
      for (const auto& line : in.replay) {
        ++rid;
        bool ok = false;
        std::string payload;
        const auto a = Clock::now();
        const bool sent = conn.request(line, ok, payload);
        const auto b = Clock::now();
        tracer().record("client.replay", rid, a, b);
        const auto c = Clock::now();
        const auto reply = tracer().span("corpus.handle_request", rid, [&] {
          return st::corpus::handle_request(*local, line);
        });
        const double h = ms_between(c, Clock::now());
        out.check(sent && ok && reply.payload == payload, "replayed reply differs: " + line);
        handle.push_back(h);
        transport.push_back(ms_between(a, b) - h);
      }
    }
  }
  if (in.replay_cache_stats) add_cache_metrics(m, served->cache_stats());
  m.add("corpus.handle_ms", median(handle), "ms");
  m.add("corpus.transport_ms", median(transport), "ms");
}

}  // namespace

void add_cache_metrics(Metrics& m, const st::corpus::CacheStats& s) {
  const double lookups = static_cast<double>(s.hits + s.misses);
  m.add("corpus.hit_ratio", lookups > 0 ? static_cast<double>(s.hits) / lookups : 0, "ratio");
  m.add("corpus.evictions", static_cast<double>(s.evictions), "count");
}

void layer_probes(const ProbeInputs& in, st::ThreadPool& pool, Metrics& m, Outcome& out) {
  // Small corpora repeat each probe and keep the median.
  const int reps = in.corpus->bytes < (32u << 20) ? 3 : 1;
  probe_reader_and_convert(in, pool, reps, m);
  probe_sinks(in, pool, reps, m);
  probe_parallel_and_shards(in, pool, reps, m, out);
  probe_elog_and_corpus(in, pool, reps, m, out);
}

void summarize_layers(Metrics& m, double wall_ms, double overhead_ms,
                      const std::vector<OfflineReply>& replies) {
  std::size_t selected = 0, scanned = 0;
  for (const auto& r : replies) {
    selected += r.cases_selected;
    scanned += r.cases_total;
  }
  const double cases_selected_ratio =
      scanned ? static_cast<double>(selected) / static_cast<double>(scanned) : 0;
  const auto& t = tracer();
  const auto med = [&](const char* name) { return median(t.durations(name)); };
  m.add("elog.select_ms", med("elog.select"), "ms");
  m.add("elog.cases_selected_ratio", cases_selected_ratio, "ratio");
  m.add("model.summaries_ms", med("model.summaries"), "ms");
  m.add("dfg.build_ms", med("dfg.build"), "ms");
  m.add("dfg.stats_ms", med("dfg.stats"), "ms");
  m.add("dfg.diff_ms", med("dfg.diff"), "ms");

  // render_svg runs layout again inside, and render_report runs both:
  // exclusive times are the medians' differences.
  const double layout = med("dfg.layout");
  const double svg = med("dfg.render_svg");
  m.add("dfg.layout_ms", layout, "ms");
  m.add("dfg.render_svg_ms", svg - layout, "ms");
  m.add("report.render_ms", med("report.render") - svg, "ms");
  std::vector<double> nodes, edges;
  for (const auto& r : replies) {
    if (r.layout_ms < 0) continue;
    nodes.push_back(static_cast<double>(r.nodes));
    edges.push_back(static_cast<double>(r.edges));
  }
  m.add("dfg.nodes", median(nodes), "count");
  m.add("dfg.edges", median(edges), "count");

  double attributed = 0;
  for (const auto& [layer, ms] : t.layer_self_ms()) {
    m.add("self_ms." + layer, ms, "ms");
    attributed += ms;
  }
  m.add("self_ms.unattributed", wall_ms - attributed, "ms");
  m.add("tracing_overhead_ms", overhead_ms, "ms");
}

}  // namespace iobench
