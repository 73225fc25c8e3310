// corpus::Catalog (ISSUE 9): the resident corpus with memoized
// artifacts, and the serve request loop in front of it.
//
//   - loading mixes traces like the offline pipeline (byte-identical
//     base log), and a v1 container loads with the same events;
//   - hit/miss/evict semantics of the LRU memo table, including
//     single-flight deduplication under a stampede;
//   - cached artifacts are byte-identical to uncached recomputation
//     and to the offline CLI path (build_report with the shared
//     query_report_options);
//   - concurrent lookup/evict/insert is clean (this test is in the
//     TSan job's target list);
//   - handle_request/serve_lines: canonical echo, payload framing,
//     graceful error replies, shutdown;
//   - the served report equals build_report byte for byte under last2,
//     with the indexed query planner on and off;
//   - the TCP server outlives a client that resets mid-reply;
//   - an HTTP connection is answered while an ndjson session is held
//     open, and an HTTP request line inside that session is an
//     unknown verb there, not a protocol switch;
//   - hostile request lines (seeded bit flips, insertions, deletions
//     and truncations of ndjson requests and of HTTP GET lines fed
//     through request_from_http) always get an ok or a typed error
//     reply, and nothing throws.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/catalog.hpp"
#include "corpus/serve.hpp"
#include "dfg/coloring.hpp"
#include "elog/store.hpp"
#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "elog_v1_fixture.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st::corpus {
namespace {

using model::Query;

class CatalogTest : public st::testing::CorpusTest {
 protected:
  CatalogTest() : CorpusTest("catalog") {}

  Catalog make_catalog(std::size_t capacity = 64) {
    CatalogOptions opts;
    opts.cache_capacity = capacity;
    Catalog catalog(opts);
    ThreadPool pool(2);
    catalog.load(corpus_, pool);
    return catalog;
  }

  void SetUp() override {
    CorpusTest::SetUp();
    corpus_ = make_corpus();
  }

  std::vector<std::string> corpus_;
};

TEST_F(CatalogTest, LoadMatchesTheOfflinePipeline) {
  auto catalog = make_catalog();
  ThreadPool pool(2);
  const auto offline = pipeline::run(corpus_, pool, {});
  st::testing::expect_same_log(*catalog.base(), offline);
  // warnings live on load_warnings(), the base log itself keeps them too
  EXPECT_EQ(catalog.load_warnings(), offline.warnings());
}

TEST_F(CatalogTest, LoadsAV1ContainerWithTheSameEvents) {
  ThreadPool pool(2);
  const auto offline = pipeline::run(corpus_, pool, {});
  const std::string path = (dir_ / "corpus_v1.elog").string();
  st::testing::write_event_log_v1_file(path, offline);
  Catalog catalog(CatalogOptions{});
  catalog.load({path}, pool);
  const model::EventLog& base = *catalog.base();
  ASSERT_EQ(base.case_count(), offline.case_count());
  for (std::size_t c = 0; c < base.case_count(); ++c) {
    ASSERT_EQ(base.cases()[c].id(), offline.cases()[c].id());
    ASSERT_TRUE(std::ranges::equal(base.cases()[c].events(), offline.cases()[c].events()))
        << "case " << c;
  }
}

TEST_F(CatalogTest, HitMissEvictSemantics) {
  auto catalog = make_catalog(/*capacity=*/2);
  const auto q1 = Query().fp_contains("/p/data");
  const auto q2 = Query().fp_contains("/p/scratch");
  const auto q3 = Query().calls({"read"});

  (void)catalog.filtered(q1);  // miss
  (void)catalog.filtered(q1);  // hit
  auto s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);

  (void)catalog.filtered(q2);  // miss, fills capacity
  (void)catalog.filtered(q3);  // miss, evicts q1 (least recently used)
  s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  (void)catalog.filtered(q1);  // recompute after eviction: a miss again
  s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 1u);

  // q3 was touched more recently than q2 at the q1 insert, so q2 is
  // the victim: q3 must still be resident.
  (void)catalog.filtered(q3);  // hit
  EXPECT_EQ(catalog.cache_stats().hits, 2u);
}

TEST_F(CatalogTest, EvictedHandlesStayValid) {
  auto catalog = make_catalog(/*capacity=*/1);
  const auto q = Query().fp_contains("/p/data");
  const auto held = catalog.filtered(q);
  (void)catalog.filtered(Query().fp_contains("/p/scratch"));  // evicts q
  EXPECT_GE(catalog.cache_stats().evictions, 1u);
  // The shared_ptr keeps the artifact alive past eviction.
  EXPECT_GT(held->case_count(), 0u);
}

TEST_F(CatalogTest, CacheIdentityIsTheCanonicalDescribe) {
  auto catalog = make_catalog();
  // Two spellings, one canonical form -> the second request is a HIT
  // and returns the SAME artifact object.
  const auto a = catalog.filtered(Query().calls({"write", "read"}));
  const auto b = catalog.filtered(Query::parse("  calls{read , write} "));
  EXPECT_EQ(a.get(), b.get());
  const auto s = catalog.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST_F(CatalogTest, CachedArtifactsMatchUncachedRecomputation) {
  auto catalog = make_catalog();
  const auto q = Query().fp_contains("/p/scratch").calls({"read", "write", "openat"});
  const auto cached_first = catalog.report_html(q);
  const auto cached_again = catalog.report_html(q);
  EXPECT_EQ(cached_first.get(), cached_again.get());  // served from cache

  // A fresh catalog (nothing memoized) over the same inputs.
  auto cold = make_catalog();
  EXPECT_EQ(*cold.report_html(q), *cached_first);

  // And the offline path: the same build_report call trace_explorer
  // --render report makes.
  const auto view = q.apply(*cold.base());
  const auto stats = dfg::IoStatistics::compute(view, cold.mapping());
  const dfg::StatisticsColoring styler(stats);
  const auto offline =
      report::build_report(view, cold.mapping(), &styler, query_report_options(q, cold.mapping()));
  EXPECT_EQ(offline, *cached_first);
}

/// Restores the global index switch however a test exits.
struct ScopedIndexEnabled {
  explicit ScopedIndexEnabled(bool on) { elog::set_query_index_enabled(on); }
  ~ScopedIndexEnabled() { elog::set_query_index_enabled(true); }
};

TEST_F(CatalogTest, ServedReportEqualsBuildReportUnderLast2WithIndexOnAndOff) {
  // The corpus as an indexed v2 container, so the filtered views come
  // from the index planner when it is on and from Query::apply when off.
  ThreadPool pool(2);
  const std::string container = (dir_ / "corpus.elog").string();
  elog::write_event_log_v2_file(container, pipeline::run(corpus_, pool, {}));
  // A clean read hands the Catalog the mapped file, i.e. an indexed segment.
  ASSERT_NE(elog::read_event_log_file_indexed(container).mapped, nullptr);
  const std::vector<Query> queries = {
      Query(),
      Query().fp_contains("/p/scratch"),
      Query().calls({"read", "openat"}),
      Query().fp_contains("/p/data").calls({"read"}),
      Query().between(36000000000, 36000040000),
  };
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "index on" : "index off");
    const ScopedIndexEnabled index(indexed);
    CatalogOptions opts;
    opts.mapping = "last2";
    Catalog catalog(opts);
    catalog.load({container}, pool);
    for (const auto& q : queries) {
      SCOPED_TRACE(q.describe());
      // One report miss computes the report and the filtered view: two
      // entries, no more.
      const auto before = catalog.cache_stats();
      const auto served = catalog.report_html(q);
      const auto after = catalog.cache_stats();
      EXPECT_EQ(after.misses - before.misses, 2u);
      EXPECT_EQ(after.entries - before.entries, 2u);

      // The offline oracle filters and computes the statistics itself.
      // StatisticsColoring keeps a reference: the statistics stay named.
      const auto view = q.apply(*catalog.base());
      const auto stats = dfg::IoStatistics::compute(view, catalog.mapping());
      const dfg::StatisticsColoring styler(stats);
      EXPECT_EQ(*served, report::build_report(view, catalog.mapping(), &styler,
                                              query_report_options(q, catalog.mapping())));
    }
  }
}

TEST_F(CatalogTest, SingleFlightUnderStampede) {
  auto catalog = make_catalog();
  const auto q = Query().fp_contains("/p/data");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::string>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { results[i] = catalog.report_html(q); });
    }
    for (auto& t : threads) t.join();
  }
  // Everyone got the same object, and the report was computed ONCE.
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(results[0].get(), results[i].get());
  const auto s = catalog.cache_stats();
  // report -> filtered dependency: 2 distinct keys, each computed
  // exactly once regardless of the stampede. Hits: the other
  // kThreads-1 requesters.
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST_F(CatalogTest, ConcurrentMixedAccessStaysCoherent) {
  // Small capacity forces concurrent insert/evict/lookup interleaving
  // — the TSan job runs this against the catalog's locking.
  auto catalog = make_catalog(/*capacity=*/3);
  const std::vector<Query> queries = {
      Query(),
      Query().fp_contains("/p/data"),
      Query().fp_contains("/p/scratch"),
      Query().calls({"read"}),
      Query().calls({"write", "openat"}),
      Query().between(36000000000, 36000040000),
  };
  constexpr int kThreads = 6;
  constexpr int kRounds = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto& q = queries[static_cast<std::size_t>(t + r) % queries.size()];
        switch ((t + r) % 4) {
          case 0: EXPECT_NE(catalog.filtered(q), nullptr); break;
          case 1: EXPECT_NE(catalog.graph(q), nullptr); break;
          case 2: EXPECT_NE(catalog.summaries(q), nullptr); break;
          default: EXPECT_NE(catalog.report_html(q), nullptr); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Whatever the interleaving, capacity holds and each artifact equals
  // a cold recompute.
  const auto s = catalog.cache_stats();
  EXPECT_LE(s.entries, 3u);
  auto cold = make_catalog();
  for (const auto& q : queries) {
    st::testing::expect_same_log(*catalog.filtered(q), *cold.filtered(q));
  }
}

TEST_F(CatalogTest, FailuresAreNotCached) {
  CatalogOptions opts;
  Catalog catalog(opts);  // no load(): artifact computation must fail
  const auto q = Query().fp_contains("/p");
  EXPECT_THROW((void)catalog.filtered(q), LogicError);
  // The failed flight must not poison the key: after load, the same
  // query computes.
  ThreadPool pool(2);
  catalog.load(corpus_, pool);
  EXPECT_NE(catalog.filtered(q), nullptr);
}

// -- the serve loop over the catalog ---------------------------------

TEST_F(CatalogTest, HandleRequestEchoesCanonicalQueryAndFramesPayload) {
  auto catalog = make_catalog();
  const auto r = handle_request(catalog, "query   calls{write , read}  ");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.header.find("\"verb\":\"query\""), std::string::npos) << r.header;
  EXPECT_NE(r.header.find("\"query\":\"calls{read,write}\""), std::string::npos) << r.header;
  EXPECT_NE(r.header.find("\"bytes\":" + std::to_string(r.payload.size())), std::string::npos)
      << r.header;
  EXPECT_EQ(r.payload, model::render_case_summaries(
                           *catalog.summaries(Query().calls({"read", "write"}))));
}

TEST_F(CatalogTest, HandleRequestRepliesGracefullyToBadInput) {
  auto catalog = make_catalog();
  const auto parse_error = handle_request(catalog, "query calls{read");
  ASSERT_FALSE(parse_error.ok);
  EXPECT_NE(parse_error.header.find("\"ok\":false"), std::string::npos);
  // Offsets are relative to the query text (what the client sent
  // after the verb): "calls{read" fails at its own byte 10.
  EXPECT_NE(parse_error.header.find("\"position\":10"), std::string::npos) << parse_error.header;
  EXPECT_TRUE(parse_error.payload.empty());

  const auto bad_verb = handle_request(catalog, "frobnicate all");
  ASSERT_FALSE(bad_verb.ok);
  EXPECT_NE(bad_verb.header.find("unknown verb"), std::string::npos) << bad_verb.header;

  // A failed request must not kill subsequent ones.
  EXPECT_TRUE(handle_request(catalog, "ping").ok);
}

TEST_F(CatalogTest, RequestFromHttpMapsGetLinesToRequests) {
  EXPECT_EQ(request_from_http("GET /report?q=fp~%2Fp%2Fscratch HTTP/1.0"), "report fp~/p/scratch");
  EXPECT_EQ(request_from_http("GET /diff?x=1&q=calls%7Bread%7D+::+all HTTP/1.1"),
            "diff calls{read} :: all");
  EXPECT_EQ(request_from_http("GET / HTTP/1.0"), "stat");
  EXPECT_EQ(request_from_http("GET /ping"), "ping");
  EXPECT_EQ(request_from_http(""), "stat");  // total: no "GET " prefix needed
}

TEST_F(CatalogTest, MutatedRequestsGetOkOrTypedErrorReplies) {
  auto catalog = make_catalog(/*capacity=*/16);
  const std::vector<std::string> requests = {
      "ping",
      "describe fp~/p/scratch calls{read,write} t[10,200)",
      "query calls{read} hosts{nodeA}",
      "report fp~/p/scratch",
      "diff calls{read} :: cids{\"s1\",big}",
      "stat",
      "stat fp~\"/p/data\"",
  };
  const std::vector<std::string> get_lines = {
      "GET /report?q=fp~%2Fp%2Fscratch HTTP/1.0",
      "GET /query?q=calls%7Bread%2Cwrite%7D+t%5B10%2C200%29 HTTP/1.1",
      "GET /diff?q=calls%7Bread%7D+::+all HTTP/1.0",
      "GET /describe?x=1&q=hosts%7BnodeA%7D HTTP/1.0",
      "GET /stat HTTP/1.0",
  };
  std::size_t oks = 0;
  std::size_t errors = 0;
  const auto expect_ok_or_typed = [&](const std::string& line) {
    Response r;
    ASSERT_NO_THROW(r = handle_request(catalog, line)) << "[" << line << "]";
    ++(r.ok ? oks : errors);
    if (r.ok) {
      EXPECT_TRUE(r.header.starts_with("{\"ok\":true,")) << r.header;
      EXPECT_NE(r.header.find("\"bytes\":" + std::to_string(r.payload.size()) + "}"),
                std::string::npos)
          << r.header;
    } else {
      EXPECT_TRUE(r.header.starts_with("{\"ok\":false,\"error\":\"")) << r.header;
      // Request-shaped problems are typed errors; "internal error" is
      // the reply for an exception outside the st::Error hierarchy.
      EXPECT_EQ(r.header.find("internal error"), std::string::npos) << "[" << line << "]";
      EXPECT_TRUE(r.payload.empty()) << r.header;
    }
  };
  Xoshiro256 rng(20261018);
  for (const auto& request : requests) {
    for (int i = 0; i < 60; ++i) expect_ok_or_typed(testing::mutate_bytes(request, rng));
  }
  for (const auto& get : get_lines) {
    for (int i = 0; i < 60; ++i) {
      const std::string mutated = testing::mutate_bytes(get, rng);
      std::string line;
      ASSERT_NO_THROW(line = request_from_http(mutated)) << "[" << mutated << "]";
      expect_ok_or_typed(line);
    }
  }
  EXPECT_GT(oks, 0u);  // both outcomes exercised: the sweep is not vacuous
  EXPECT_GT(errors, 0u);
  // The sweep left the catalog serving.
  EXPECT_TRUE(handle_request(catalog, "ping").ok);
  EXPECT_TRUE(handle_request(catalog, "report fp~/p/scratch").ok);
}

TEST_F(CatalogTest, ServeLinesSpeaksTheFramedProtocol) {
  auto catalog = make_catalog();
  std::istringstream in("ping\nreport fp~/p/scratch\nshutdown\nquery all\n");
  std::ostringstream out;
  serve_lines(catalog, in, out);
  const std::string stream = out.str();

  // ping reply
  ASSERT_TRUE(stream.starts_with("{\"ok\":true,\"verb\":\"ping\",\"query\":\"\",\"bytes\":5}\n"));
  std::size_t pos = stream.find('\n') + 1;
  EXPECT_EQ(stream.substr(pos, 5), "pong\n");
  pos += 5;

  // report reply: header bytes N, then exactly N payload bytes that
  // equal the catalog's artifact.
  const auto expected = *catalog.report_html(Query::parse("fp~/p/scratch"));
  const std::size_t header_end = stream.find('\n', pos);
  const std::string header = stream.substr(pos, header_end - pos);
  EXPECT_NE(header.find("\"bytes\":" + std::to_string(expected.size())), std::string::npos)
      << header;
  EXPECT_EQ(stream.substr(header_end + 1, expected.size()), expected);

  // shutdown ends the session: the trailing "query all" is never
  // answered.
  EXPECT_TRUE(stream.ends_with("bye\n"));
  EXPECT_EQ(stream.find("\"verb\":\"query\""), std::string::npos);
}

/// A blocking localhost TCP client socket (10 s receive timeout, so a
/// broken server fails the test instead of hanging it).
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_text(int fd, const std::string& text) {
  ASSERT_EQ(::send(fd, text.data(), text.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(text.size()));
}

TEST_F(CatalogTest, ServerSurvivesAClientThatResetsBeforeReadingItsReply) {
  auto catalog = make_catalog();
  Server server(catalog, 0);
  ThreadPool pool(1);  // one handler at a time: the ping runs after the reset session
  std::thread loop([&] { server.serve_forever(pool); });

  // Several reports, then an RST (SO_LINGER 0) before reading a byte:
  // the server's writes hit a reset socket. Without MSG_NOSIGNAL the
  // second of them raises SIGPIPE and kills this process.
  const int rude = connect_to(server.port());
  send_text(rude, "report all\nreport fp~/p/scratch\nreport calls{read}\n");
  const linger reset{1, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(rude);

  const int polite = connect_to(server.port());
  send_text(polite, "ping\n");
  std::string reply;
  char buf[256];
  while (reply.find("pong\n") == std::string::npos) {
    const auto n = ::recv(polite, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_TRUE(reply.starts_with("{\"ok\":true,\"verb\":\"ping\"")) << reply;
  EXPECT_TRUE(reply.ends_with("pong\n")) << reply;
  ::close(polite);

  server.stop();
  loop.join();
}

/// Everything the server sends until it closes the connection.
std::string read_to_eof(int fd) {
  std::string reply;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

TEST_F(CatalogTest, ServerSurvivesAnOverlongLineAndAThousandIdleConnections) {
  auto catalog = make_catalog();
  Server server(catalog, 0);
  ThreadPool pool(2);
  std::thread loop([&] { server.serve_forever(pool); });

  // An unterminated line one byte past the 1 MiB cap — as an ndjson
  // request, and as an HTTP header line: a typed error reply, then the
  // server closes the connection.
  for (const std::string prefix : {"", "GET /ping HTTP/1.0\r\nX-Big: "}) {
    const int big = connect_to(server.port());
    const std::string line = prefix + std::string((std::size_t{1} << 20) + 1, 'x');
    std::size_t sent = 0;
    while (sent < line.size()) {
      const auto n = ::send(big, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(read_to_eof(big), "{\"ok\":false,\"error\":\"request line too long\"}\n")
        << prefix;
    ::close(big);
  }

  // 1,000 connections that send nothing and close.
  for (int i = 0; i < 1000; ++i) ::close(connect_to(server.port()));

  const int polite = connect_to(server.port());
  send_text(polite, "ping\nshutdown\n");
  const std::string reply = read_to_eof(polite);
  EXPECT_TRUE(reply.starts_with("{\"ok\":true,\"verb\":\"ping\"")) << reply;
  EXPECT_NE(reply.find("pong\n"), std::string::npos) << reply;
  EXPECT_TRUE(reply.ends_with("bye\n")) << reply;
  ::close(polite);
  loop.join();  // the shutdown request stopped the accept loop
}

TEST_F(CatalogTest, InterleavedHttpAndNdjsonConnections) {
  auto catalog = make_catalog();
  Server server(catalog, 0);
  ThreadPool pool(2);  // one worker holds the ndjson session, one answers HTTP
  std::thread loop([&] { server.serve_forever(pool); });

  // An ndjson session, held open after its first reply.
  const int session = connect_to(server.port());
  send_text(session, "ping\n");
  std::string reply;
  char buf[256];
  while (reply.find("pong\n") == std::string::npos) {
    const auto n = ::recv(session, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(reply, "{\"ok\":true,\"verb\":\"ping\",\"query\":\"\",\"bytes\":5}\npong\n");

  // Meanwhile an HTTP/1.0 GET on a second connection is answered.
  const int http = connect_to(server.port());
  send_text(http, "GET /ping HTTP/1.0\r\nHost: localhost\r\n\r\n");
  const std::string page = read_to_eof(http);
  EXPECT_TRUE(page.starts_with("HTTP/1.0 200 OK\r\n")) << page;
  EXPECT_TRUE(page.ends_with("\r\n\r\npong\n")) << page;
  ::close(http);

  // Inside the session an HTTP request line is just an unknown verb;
  // the session goes on answering.
  send_text(session, "GET /ping HTTP/1.0\ndescribe all\nshutdown\n");
  const std::string rest = read_to_eof(session);
  EXPECT_TRUE(rest.starts_with("{\"ok\":false,\"error\":\"unknown verb ")) << rest;
  EXPECT_NE(rest.find(": GET\""), std::string::npos) << rest;
  const auto describe = rest.find("{\"ok\":true,\"verb\":\"describe\"");
  ASSERT_NE(describe, std::string::npos) << rest;
  EXPECT_NE(rest.find("\nall\n", describe), std::string::npos) << rest;
  EXPECT_TRUE(rest.ends_with("bye\n")) << rest;
  ::close(session);
  loop.join();  // the shutdown request stopped the accept loop
}

TEST_F(CatalogTest, StatReportsCorpusAndCacheCounters) {
  auto catalog = make_catalog();
  (void)catalog.filtered(Query());  // one miss
  const auto r = handle_request(catalog, "stat");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.payload.find("\"cases\":" + std::to_string(catalog.base()->case_count())),
            std::string::npos)
      << r.payload;
  EXPECT_NE(r.payload.find("\"misses\":1"), std::string::npos) << r.payload;
}

}  // namespace
}  // namespace st::corpus
