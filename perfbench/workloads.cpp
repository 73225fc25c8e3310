// The three workloads: ingest, serve_mixed and serve_wide.
//
// Each measures its end-to-end metrics with tracing off (--trace 0), or
// the same run with spans on followed by the per-layer probes
// (--trace 1). Every output is checked; a failed check counts as a
// failed operation.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/builder.hpp"
#include "elog/v2_store.hpp"
#include "layers.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"

namespace iobench {
namespace {

using st::model::EventLog;

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform [0,1) from (seed, i, salt).
double unit(std::uint64_t seed, std::uint64_t i, std::uint64_t salt) {
  const std::uint64_t h = splitmix(splitmix(seed ^ (salt << 56)) ^ i);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(unit(seed, i, 7) * static_cast<double>(i));
    std::swap(v[i - 1], v[j]);
  }
}

/// Canonical query text from its clauses (fp, calls, t, cids order).
std::string query_text(std::initializer_list<std::string> clauses) {
  std::string out;
  for (const auto& c : clauses) {
    if (c.empty()) continue;
    if (!out.empty()) out += ' ';
    out += c;
  }
  return out.empty() ? "all" : out;
}

std::string verb_of(const std::string& line) { return line.substr(0, line.find(' ')); }

st::pipeline::ShardOptions shard_options(const Args& a, const std::string& mapping) {
  st::pipeline::ShardOptions s;
  s.shards = nproc();
  s.worker_threads = 1;
  s.mapping = mapping;
  s.fold_shard_exe = a.elog_tool;
  return s;
}

void print_shape(const Corpus& c, const EventLog& log, std::size_t distinct_requests) {
  Info("shape")
      .num("trace_files", static_cast<double>(c.files.size()))
      .num("trace_bytes", static_cast<double>(c.bytes))
      .num("cases", static_cast<double>(log.case_count()))
      .num("events", static_cast<double>(log.total_events()))
      .num("distinct_requests", static_cast<double>(distinct_requests))
      .print();
}

void print_tail(const char* metric, const Tail& t, std::size_t samples) {
  Info("tail").str("metric", metric).str("percentile", t.name)
      .num("samples", static_cast<double>(samples)).print();
}

/// Answers the sampled requests offline and compares each payload with
/// `served(line)`. With tracing on, an untimed warm-up pass comes
/// first, then two pairs of passes in alternating order (spans off/on,
/// then on/off); the tracing overhead is the median of the two pairs'
/// differences.
struct SampleRun {
  std::vector<OfflineReply> replies;
  double overhead_ms = 0;
};

SampleRun check_sample(const OfflineCorpus& oc, const std::vector<std::string>& sample,
                       bool traced, const std::function<const std::string*(std::size_t)>& served,
                       Outcome& out) {
  SampleRun run;
  const auto once = [&](bool spans) {
    tracer().enable(spans);
    run.replies.clear();
    const auto a = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      run.replies.push_back(offline_reply(oc, sample[i], i + 1, traced));
    }
    return ms_between(a, Clock::now());
  };
  if (traced) {
    once(false);
    std::vector<double> diffs;
    for (const bool on_first : {false, true}) {
      const double first = once(on_first);
      const double second = once(!on_first);
      diffs.push_back(on_first ? first - second : second - first);
    }
    run.overhead_ms = median(diffs);
  } else {
    once(false);
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto& r = run.replies[i];
    out.check(r.select_agrees, "indexed selection differs from Query::apply: " + sample[i]);
    if (const std::string* payload = served ? served(i) : nullptr) {
      out.check(*payload == r.payload, "served reply differs from the offline path: " + sample[i]);
    }
  }
  return run;
}

// -- ingest --------------------------------------------------------------------

/// Fixed requests answered over the ingest corpus in the traced run.
const std::vector<std::string> kIngestSample = {
    "query all",
    "query fp~/p/scratch cids{fpp}",
    "report cids{ssf}",
    "report all",
    "diff cids{ssf} :: cids{fpp}",
    "diff cids{po} :: cids{mpiio}",
};

}  // namespace

Metrics run_ingest(const Args& a, Outcome& out) {
  const auto t_start = Clock::now();
  auto& t = tracer();
  const Corpus corpus = load_corpus(a.data_dir);
  st::ThreadPool pool(nproc());
  const auto f = st::model::mapping_by_name("top2");
  const auto sopts = shard_options(a, "top2");
  // Every pass writes a container of its own, and the previous one is
  // deleted afterwards: truncating a file in place to rewrite it makes
  // the file system flush it, which would time the disk.
  std::string elog;
  EventLog last_log;
  std::vector<double> streamed_ms, sharded_ms, pair_ms;
  // One operation: the import --stream-report pass, then the sharded
  // report over spawned fold-shard children.
  const auto pass = [&](std::uint64_t rid) {
    t.span("bench.pass", rid, [&] {
      const std::string path = a.work_dir + "/ingest" + std::to_string(rid) + ".elog";
      st::report::StreamingReport res;
      const auto t0 = Clock::now();
      {
        st::elog::ElogV2Writer writer(path);
        st::elog::ElogV2WriterSink sink(writer);
        st::pipeline::CaseSink* extra[] = {&sink};
        res = t.span("report.streaming_report", rid, [&] {
          return st::report::streaming_report(corpus.files, f, pool, {}, {}, extra);
        });
        t.span("elog.finalize", rid, [&] { writer.finalize(); });
      }
      const auto t1 = Clock::now();
      const auto sharded = t.span("pipeline.run_sharded", rid, [&] {
        return st::pipeline::run_sharded(corpus.files, sopts);
      });
      const std::string html = t.span("report.render_sharded", rid, [&] {
        return st::report::render_sharded_report(sharded, f);
      });
      const auto t2 = Clock::now();
      streamed_ms.push_back(ms_between(t0, t1));
      sharded_ms.push_back(ms_between(t1, t2));
      pair_ms.push_back(ms_between(t0, t2));

      const auto mapped = st::elog::open_v2(path);
      out.check(mapped->case_count() == res.log.case_count() &&
                    mapped->total_events() == res.log.total_events(),
                "v2 container reopens with other counts (pass " + std::to_string(rid) + ")");
      out.check(html == res.html,
                "sharded HTML differs from streamed HTML (pass " + std::to_string(rid) + ")");
      last_log = std::move(res.log);
      if (!elog.empty()) std::filesystem::remove(elog);
      elog = path;
    });
  };

  // Set-up: untimed warm-up operations; set-up time is their median.
  std::vector<double> setup_ms;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto s = Clock::now();
    pass(i);
    setup_ms.push_back(ms_between(s, Clock::now()));
  }
  streamed_ms.clear();
  sharded_ms.clear();
  pair_ms.clear();
  print_shape(corpus, last_log, kIngestSample.size());

  t.enable(a.trace);
  const auto w0 = Clock::now();
  for (std::uint64_t i = 0; ms_between(w0, Clock::now()) < a.seconds * 1e3; ++i) pass(100 + i);
  const double window_ms = ms_between(w0, Clock::now());
  t.enable(false);

  Metrics m;
  if (!a.trace) {
    // About a dozen operations fit in the window, too few for a percentile
    // with ten samples beyond it: the tail is their maximum.
    const Tail tl{pair_ms.empty() ? 0 : *std::max_element(pair_ms.begin(), pair_ms.end()), "max"};
    print_tail("request_tail_ms", tl, pair_ms.size());
    m.add("setup_s", median(setup_ms) / 1e3, "s");
    m.add("ingest_mb_per_s", mb(corpus.bytes) / (median(streamed_ms) / 1e3), "MB/s");
    m.add("sharded_mb_per_s", mb(corpus.bytes) / (median(sharded_ms) / 1e3), "MB/s");
    m.add("requests_per_s", static_cast<double>(pair_ms.size()) / (window_ms / 1e3), "1/s");
    m.add("request_p50_ms", median(pair_ms), "ms");
    m.add("request_tail_ms", tl.value, "ms");
    m.add("report_p50_ms", median(streamed_ms), "ms");
    return m;
  }

  const OfflineCorpus oc = open_offline(last_log, "top2", elog);
  const SampleRun sample = check_sample(oc, kIngestSample, true, nullptr, out);
  ProbeInputs in;
  in.corpus = &corpus;
  in.mapping = "top2";
  in.work_dir = a.work_dir;
  in.elog_tool = a.elog_tool;
  in.replay = kIngestSample;
  in.replay_cache_stats = true;
  t.enable(true);
  layer_probes(in, pool, m, out);
  t.enable(false);
  summarize_layers(m, ms_between(t_start, Clock::now()), sample.overhead_ms, sample.replies);
  return m;
}

// -- serve -------------------------------------------------------------------------

namespace {

/// The serve_mixed request set: 200 query, 100 report, 100 diff
/// requests over cids subsets (the paper's ssf/fpp and po/mpiio
/// comparisons), fp~ prefixes, call families and time windows. The set
/// is fixed; the seed only drives which requests are drawn.
std::vector<std::string> mixed_requests(const EventLog& base) {
  st::Micros lo = std::numeric_limits<st::Micros>::max();
  st::Micros hi = std::numeric_limits<st::Micros>::min();
  for (const auto& c : base.cases()) {
    for (const auto& e : c.events()) {
      lo = std::min(lo, e.start);
      hi = std::max(hi, e.start);
    }
  }
  const auto span = hi - lo;
  const auto window = [](st::Micros from, st::Micros to) {
    return "t[" + std::to_string(from) + "," + std::to_string(to) + ")";
  };
  const std::vector<std::string> windows = {window(lo, lo + span / 2),
                                            window(lo + span / 4, lo + 3 * span / 4)};
  const std::vector<std::string> cids = {"",          "cids{ssf}",     "cids{fpp}",
                                         "cids{po}",  "cids{mpiio}",   "cids{fpp,ssf}",
                                         "cids{mpiio,po}"};
  const std::vector<std::string> fps = {"", "fp~/p/scratch", "fp~/dev/shm", "fp~/p/software"};
  const std::vector<std::string> calls = {"",           "calls{read}",       "calls{write}",
                                          "calls{openat}", "calls{read,write}", "calls{lseek}"};
  std::vector<std::string> plain, windowed;
  for (const auto& fp : fps) {
    for (const auto& call : calls) {
      for (const auto& cid : cids) plain.push_back(query_text({fp, call, cid}));
    }
  }
  for (const auto& w : windows) {
    for (const std::string fp : {"", "fp~/p/scratch"}) {
      for (const std::string call : {"", "calls{read,write}"}) {
        for (const auto& cid : cids) windowed.push_back(query_text({fp, call, w, cid}));
      }
    }
  }
  constexpr std::uint64_t kFixed = 0x5eed;  // fixed structure, not the run's seed
  shuffle(plain, kFixed);
  shuffle(windowed, kFixed + 1);

  std::vector<std::string> r;
  for (const auto& q : plain) r.push_back("query " + q);
  for (std::size_t i = 0; r.size() < 200; ++i) r.push_back("query " + windowed[i]);
  for (std::size_t i = 0; i < 100; ++i) {
    r.push_back("report " + plain[(i * 5) % plain.size()]);  // 5 is prime to 168
  }

  const std::pair<const char*, const char*> pairs[] = {
      {"cids{ssf}", "cids{fpp}"}, {"cids{po}", "cids{mpiio}"},
      {"cids{ssf}", "cids{po}"},  {"cids{fpp}", "cids{mpiio}"}};
  std::vector<std::string> diffs;
  for (const auto& [x, y] : pairs) {
    for (const auto& fp : fps) {
      for (const auto& call : calls) {
        diffs.push_back("diff " + query_text({fp, call, x}) + " :: " + query_text({fp, call, y}));
      }
    }
  }
  for (const auto& w : windows) {
    for (const auto& [x, y] : pairs) {
      diffs.push_back("diff " + query_text({w, x}) + " :: " + query_text({w, y}));
    }
  }
  shuffle(diffs, kFixed + 2);
  r.insert(r.end(), diffs.begin(), diffs.begin() + 100);
  return r;
}

/// The serve_wide request set: 25 report and 20 diff requests whose 65
/// queries are pairwise distinct, so no request shares a cached
/// artifact with another and, cycled against a 16-entry cache, every
/// request misses.
std::vector<std::string> wide_requests() {
  const std::vector<std::string> xs = {"", "fp~/p/", "fp~/p/scratch", "calls{openat,read,write}",
                                       "fp~/p/ calls{read,write}"};
  std::vector<std::string> reports, diffs;
  for (const std::string cid : {"cids{mpiio,ssf}", "cids{mpiio,po,ssf}", "cids{fpp,po}",
                                "cids{fpp,mpiio,po,ssf}", ""}) {
    for (const auto& x : xs) reports.push_back("report " + query_text({x, cid}));
  }
  const std::pair<const char*, const char*> pairs[] = {{"cids{ssf}", "cids{fpp}"},
                                                       {"cids{po}", "cids{mpiio}"},
                                                       {"cids{fpp,ssf}", "cids{mpiio,po}"},
                                                       {"cids{po,ssf}", "cids{fpp,mpiio}"}};
  for (const auto& [x, y] : pairs) {
    for (const auto& c : xs) {
      diffs.push_back("diff " + query_text({c, x}) + " :: " + query_text({c, y}));
    }
  }
  reports.insert(reports.end(), diffs.begin(), diffs.end());
  return reports;
}

/// Puts `order` (the previous round's order of the serve_wide set) in
/// a fresh order for `round`, seeded. None of the first kGap requests
/// is among the previous round's last kGap, so a request comes back
/// only after at least kGap others; each of those adds three or more
/// entries to the 16-entry cache, so the repeat still misses.
void reorder(std::vector<std::size_t>& order, std::uint64_t seed, std::uint64_t round) {
  constexpr std::size_t kGap = 8;
  const std::vector<std::size_t> prev = order;
  const auto in_tail = [&](std::size_t id) {
    return std::find(prev.end() - kGap, prev.end(), id) != prev.end();
  };
  for (std::uint64_t salt = 0;; ++salt) {
    shuffle(order, splitmix(seed ^ (round << 32) ^ salt));
    if (round == 0 || std::none_of(order.begin(), order.begin() + kGap, in_tail)) return;
  }
}

struct Sample {
  std::size_t round = 0;
  double ms = 0;
  std::size_t request = 0;  ///< index into the distinct request list
  bool ok = false;
};

/// A served corpus: the import log, its container, the Catalog and the
/// server in front of it (declared last, so it stops first).
struct Served {
  EventLog log;
  std::string elog;
  std::unique_ptr<st::corpus::Catalog> catalog;
  std::unique_ptr<ServingThread> server;
};

}  // namespace

Metrics run_serve(const Args& a, Outcome& out) {
  const auto t_start = Clock::now();
  auto& t = tracer();
  const bool wide = a.workload == "serve_wide";
  const std::string mapping = wide ? "last2" : "top2";
  const std::size_t capacity = wide ? 16 : 64;
  const Corpus corpus = load_corpus(a.data_dir);
  st::ThreadPool pool(nproc());
  st::ThreadPool server_pool(nproc());

  // One import to v2 (pipeline::run + ElogV2WriterSink), and one
  // sharded fold in one spawned fold-shard child. Both run on a single
  // thread: over a corpus this small, a pass at nproc workers lasts a
  // few tens of milliseconds and times little but how many CPUs the
  // host happens to grant. Besides each set-up they also run between
  // the serving rounds, so their samples spread over the whole run.
  st::ThreadPool import_pool(1);
  auto sopts = shard_options(a, mapping);
  sopts.shards = 1;
  std::vector<double> import_ms, sharded_ms;
  const auto import_once = [&](const std::string& path) {
    const auto t0 = Clock::now();
    EventLog log;
    {
      st::elog::ElogV2Writer writer(path);
      st::elog::ElogV2WriterSink sink(writer);
      log = st::pipeline::run(corpus.files, import_pool, {&sink});
      writer.finalize();
    }
    import_ms.push_back(ms_between(t0, Clock::now()));
    return log;
  };
  const auto shard_once = [&](const EventLog& log) {
    const auto t0 = Clock::now();
    const auto sharded = st::pipeline::run_sharded(corpus.files, sopts);
    sharded_ms.push_back(ms_between(t0, Clock::now()));
    out.check(sharded.case_count == log.case_count() &&
                  sharded.total_events == log.total_events(),
              "sharded fold counts differ from the import");
  };

  // Set-up, nine times: import, load the Catalog, bring the server up
  // (answering a ping). The last set-up serves.
  std::unique_ptr<Served> served;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < 9; ++rep) {
    served.reset();
    served = std::make_unique<Served>();
    Served& s = *served;
    s.elog = a.work_dir + "/serve" + std::to_string(rep) + ".elog";
    const auto t0 = Clock::now();
    s.log = import_once(s.elog);
    st::corpus::CatalogOptions copts;
    copts.mapping = mapping;
    copts.cache_capacity = capacity;
    s.catalog = std::make_unique<st::corpus::Catalog>(copts);
    s.catalog->load({s.elog}, pool);
    s.server = std::make_unique<ServingThread>(*s.catalog, server_pool);
    {
      Connection probe(s.server->port());
      bool ok = false;
      std::string payload;
      out.check(probe.request("ping", ok, payload) && ok && payload == "pong\n",
                "server did not answer ping");
    }
    setup_ms.push_back(ms_between(t0, Clock::now()));
    shard_once(s.log);
  }
  Served& s = *served;

  // The request set and, per index, which request is sent.
  std::vector<std::string> requests;
  std::function<std::size_t(std::uint64_t)> pick;
  std::uint64_t cycle = 1;
  std::vector<std::size_t> sample_ids;
  std::vector<std::size_t> order;  // serve_wide: this round's order
  if (wide) {
    requests = wide_requests();
    order.resize(requests.size());
    std::iota(order.begin(), order.end(), 0);
    cycle = requests.size();
    pick = [&order](std::uint64_t i) { return order[i % order.size()]; };
    sample_ids = {0, 7, 14, 21, 25, 35};  // four reports, two diffs
  } else {
    // Uniform draws over the set (half of it queries, a quarter each
    // reports and diffs): the working set is larger than the cache.
    requests = mixed_requests(s.log);
    pick = [n = requests.size(), seed = a.seed](std::uint64_t i) {
      return static_cast<std::size_t>(unit(seed, i, 1) * static_cast<double>(n));
    };
    for (std::size_t i = 0; i < requests.size(); i += 25) sample_ids.push_back(i);
  }
  print_shape(corpus, s.log, requests.size());
  if (wide) {
    // DFG nodes/edges of each request's graph(s), so a later run can
    // show its inputs did not change.
    const auto f = st::model::mapping_by_name(mapping);
    std::string sizes = "[";
    for (const auto& line : requests) {
      const std::string arg = line.substr(line.find(' ') + 1);
      const auto sep = arg.find(" :: ");
      const std::vector<std::string> qs = sep == std::string::npos
                                              ? std::vector<std::string>{arg}
                                              : std::vector<std::string>{arg.substr(0, sep),
                                                                         arg.substr(sep + 4)};
      if (sizes.size() > 1) sizes += ", ";
      sizes += "[";
      for (std::size_t k = 0; k < qs.size(); ++k) {
        const auto g = st::dfg::build_serial(st::model::Query::parse(qs[k]).apply(s.log), f);
        sizes += (k ? ", " : "") + std::to_string(g.nodes().size()) + ", " +
                 std::to_string(g.edges().size());
      }
      sizes += "]";
    }
    Info("request_dfg_sizes").raw("nodes_edges", sizes + "]").print();
  }

  // The timed window: two analysts in a closed loop, in rounds of 2 s
  // (serve_mixed) or of one whole cycle of the request set
  // (serve_wide), until the rounds add up to --seconds. Between rounds
  // the clients are idle while one import and one sharded fold run.
  const std::size_t clients = 2;
  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::unordered_map<std::size_t, std::size_t>> hashes(clients);
  std::vector<std::string> errors(clients);
  std::vector<double> round_ms;
  double served_ms = 0;
  t.enable(a.trace);
  while (served_ms < a.seconds * 1e3) {
    const std::size_t round = round_ms.size();
    if (round > 0) {
      const std::string path = a.work_dir + "/round" + std::to_string(round) + ".elog";
      shard_once(import_once(path));
      std::filesystem::remove(path);
    }
    if (wide) reorder(order, a.seed, round);
    const std::uint64_t limit =
        wide ? (round + 1) * cycle : std::numeric_limits<std::uint64_t>::max();
    const auto r0 = Clock::now();
    const auto deadline = wide ? Clock::time_point::max() : r0 + std::chrono::seconds(2);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          Connection conn(s.server->port());
          std::string payload;
          for (;;) {
            // Claim the next request index, never one past the round.
            std::uint64_t i = cursor.load();
            do {
              if (i >= limit || Clock::now() >= deadline) return;
            } while (!cursor.compare_exchange_weak(i, i + 1));
            const std::size_t id = pick(i);
            bool ok = false;
            const auto q0 = Clock::now();
            const bool sent = conn.request(requests[id], ok, payload);
            const auto q1 = Clock::now();
            t.record("client.request", i + 1, q0, q1);
            per_client[c].push_back({round, ms_between(q0, q1), id, sent && ok});
            if (!sent) throw std::runtime_error("connection lost at request " + std::to_string(i));
            const std::size_t h = std::hash<std::string>{}(payload);
            const auto [it, fresh] = hashes[c].emplace(id, h);
            if (!fresh && it->second != h) per_client[c].back().ok = false;
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (auto& th : threads) th.join();
    round_ms.push_back(ms_between(r0, Clock::now()));
    served_ms += round_ms.back();
    if (std::any_of(errors.begin(), errors.end(), [](const auto& e) { return !e.empty(); })) break;
  }
  t.enable(false);
  const st::corpus::CacheStats cache = s.catalog->cache_stats();
  for (const auto& e : errors) {
    if (!e.empty()) out.fail("client: " + e);
  }

  // Per-round figures; the run reports their medians.
  const std::size_t rounds = round_ms.size();
  std::vector<double> all, reports;
  std::vector<std::vector<double>> round_all(rounds), round_reports(rounds);
  std::unordered_map<std::size_t, std::size_t> first_hash;
  for (std::size_t c = 0; c < clients; ++c) {
    for (const auto& smp : per_client[c]) {
      out.check(smp.ok, "failed or inconsistent reply: " + requests[smp.request]);
      all.push_back(smp.ms);
      round_all[smp.round].push_back(smp.ms);
      if (verb_of(requests[smp.request]) == "report") {
        reports.push_back(smp.ms);
        round_reports[smp.round].push_back(smp.ms);
      }
    }
    for (const auto& [id, h] : hashes[c]) {
      const auto [it, fresh] = first_hash.emplace(id, h);
      out.check(fresh || it->second == h, "clients saw different replies: " + requests[id]);
    }
  }
  if (wide) {
    const double cycles = static_cast<double>(all.size()) / static_cast<double>(cycle);
    Info("cache")
        .num("requests", static_cast<double>(all.size()))
        .num("hits", static_cast<double>(cache.hits))
        .num("misses", static_cast<double>(cache.misses))
        .num("misses_per_cycle", static_cast<double>(cache.misses) / cycles)
        .print();
  }

  // Output check, outside the timed window: the sampled requests are
  // asked again and must equal the offline path byte for byte.
  std::vector<std::string> sample, replies(sample_ids.size());
  std::vector<bool> answered(sample_ids.size(), false);
  {
    Connection conn(s.server->port());
    for (std::size_t k = 0; k < sample_ids.size(); ++k) {
      sample.push_back(requests[sample_ids[k]]);
      bool ok = false;
      answered[k] = conn.request(sample.back(), ok, replies[k]) && ok;
      out.check(answered[k], "sampled request failed: " + sample.back());
      const auto it = first_hash.find(sample_ids[k]);
      if (answered[k] && it != first_hash.end()) {
        out.check(std::hash<std::string>{}(replies[k]) == it->second,
                  "reply changed after the window: " + sample.back());
      }
    }
  }
  const OfflineCorpus oc = open_offline(s.log, mapping, s.elog);
  const SampleRun checked = check_sample(
      oc, sample, a.trace,
      [&](std::size_t k) { return answered[k] ? &replies[k] : nullptr; }, out);

  Metrics m;
  if (!a.trace) {
    s.server.reset();
    const Tail tl = tail(all);
    print_tail("request_tail_ms", tl, all.size());
    m.add("setup_s", median(setup_ms) / 1e3, "s");
    m.add("ingest_mb_per_s", mb(corpus.bytes) / (median(import_ms) / 1e3), "MB/s");
    m.add("sharded_mb_per_s", mb(corpus.bytes) / (median(sharded_ms) / 1e3), "MB/s");
    std::vector<double> rate, p50, report_p50;
    for (std::size_t r = 0; r < rounds; ++r) {
      rate.push_back(static_cast<double>(round_all[r].size()) / (round_ms[r] / 1e3));
      p50.push_back(median(round_all[r]));
      report_p50.push_back(median(round_reports[r]));
    }
    m.add("requests_per_s", median(rate), "1/s");
    m.add("request_p50_ms", median(p50), "ms");
    m.add("request_tail_ms", tl.value, "ms");
    m.add("report_p50_ms", median(report_p50), "ms");
    return m;
  }

  for (std::size_t k = 0; k < sample.size(); ++k) {
    const auto& r = checked.replies[k];
    if (r.layout_ms < 0) continue;
    Info("layout").str("request", sample[k]).num("dfg.layout_ms", r.layout_ms)
        .num("dfg.nodes", static_cast<double>(r.nodes))
        .num("dfg.edges", static_cast<double>(r.edges)).print();
  }
  s.server.reset();
  add_cache_metrics(m, cache);
  ProbeInputs in;
  in.corpus = &corpus;
  in.mapping = mapping;
  in.work_dir = a.work_dir;
  in.elog_tool = a.elog_tool;
  in.replay = sample;
  in.cache_capacity = capacity;
  t.enable(true);
  layer_probes(in, pool, m, out);
  t.enable(false);
  summarize_layers(m, ms_between(t_start, Clock::now()), checked.overhead_ms, checked.replies);
  return m;
}

}  // namespace iobench
