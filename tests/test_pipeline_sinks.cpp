// Acceptance tests for the CaseSink substrate (pipeline/sink.hpp):
//   - every sink's output is byte-identical to its staged counterpart
//     at 1, 2 and 4 workers: the DFG (build_serial),
//     case summaries (summarize_cases, serial and pooled), the
//     variant multiset (ActivityLog::build().variants()) — all
//     produced by ONE streamed pass,
//   - queue capacity 1 (maximal backpressure) is still byte-identical,
//   - a sink whose fold throws mid-stream follows the
//     lowest-input-index-wins error contract — against other sink
//     failures AND against strict-mode parse errors — never merges a
//     partial into any sink, never leaks a queued continuation
//     (ASan-verified, extending the PR 4 pool-destruction regressions),
//     and leaves the pool usable.
#include "pipeline/sink.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/reader.hpp"
#include "support/errors.hpp"
#include "support/timeparse.hpp"

namespace st {
namespace {

namespace fs = std::filesystem;

std::string ts(Micros t) { return format_time_of_day(t); }

/// A trace body with reads, opens, cross-line resume pairs and — when
/// `with_noise` — lines that provoke reader warnings.
std::string make_trace(std::size_t lines, bool with_noise, std::uint64_t pid_base = 7) {
  std::string text;
  Micros t = 36000000000;  // 10:00:00
  for (std::size_t i = 0; i < lines; ++i) {
    t += 100;
    const std::string pid = std::to_string(pid_base + i % 2);
    switch (i % 5) {
      case 0:
        text += pid + "  " + ts(t) + " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
        break;
      case 1:
        text += pid + "  " + ts(t) +
                " openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 "
                "<0.000150>\n";
        break;
      case 2:
        text += pid + "  " + ts(t) +
                " pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = 1048576 "
                "<0.000294>\n";
        break;
      case 3:
        if (with_noise && i % 15 == 3) {
          text += pid + "  " + ts(t) + " not_a_call_line\n";
        } else {
          text += pid + "  " + ts(t) + " read(3</p/data/f>, <unfinished ...>\n";
        }
        break;
      default:
        text += pid + "  " + ts(t) + " <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
        break;
    }
  }
  return text;
}

/// A strict-clean trace (no warnings), so strict-mode error tests can
/// inject failures precisely where they want them.
std::string make_clean_trace(std::size_t lines, std::uint64_t pid) {
  std::string text;
  Micros t = 36000000000;
  const std::string p = std::to_string(pid);
  for (std::size_t i = 0; i < lines; ++i) {
    t += 100;
    switch (i % 5) {
      case 0:
        text += p + "  " + ts(t) + " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
        break;
      case 1:
        text += p + "  " + ts(t) +
                " openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 "
                "<0.000150>\n";
        break;
      case 2:
        text += p + "  " + ts(t) +
                " pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = 1048576 "
                "<0.000294>\n";
        break;
      case 3:
        text += p + "  " + ts(t) + " read(3</p/data/f>, <unfinished ...>\n";
        break;
      default:
        text += p + "  " + ts(t) + " <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
        break;
    }
  }
  return text;
}

class PipelineSinks : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_sinks_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  /// One big file, several small ones, with and without noise, multiple
  /// hosts, plus an empty file (empty case, empty variant).
  std::vector<std::string> make_corpus() {
    std::vector<std::string> paths;
    paths.push_back(write_file("big_nodeA_9001.st", make_trace(900, true)));
    for (int i = 0; i < 4; ++i) {
      paths.push_back(write_file(
          "s" + std::to_string(i) + "_node" + (i % 2 ? "B" : "C") + "_" +
              std::to_string(9100 + i) + ".st",
          make_trace(30 + static_cast<std::size_t>(i) * 7, i % 2 == 0,
                     static_cast<std::uint64_t>(100 + i))));
    }
    paths.push_back(write_file("empty_nodeA_9200.st", ""));
    return paths;
  }

  fs::path dir_;
};

void expect_same_log(const model::EventLog& a, const model::EventLog& b) {
  ASSERT_EQ(a.case_count(), b.case_count());
  for (std::size_t c = 0; c < a.case_count(); ++c) {
    const auto& ca = a.cases()[c];
    const auto& cb = b.cases()[c];
    ASSERT_EQ(ca.id(), cb.id()) << "case " << c;
    ASSERT_EQ(ca.size(), cb.size()) << "case " << c;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca.events()[i], cb.events()[i]) << "case " << c << " event " << i;
    }
  }
  EXPECT_EQ(a.warnings(), b.warnings());
}

// ---- byte-identity with the staged counterparts ------------------------

TEST_F(PipelineSinks, EverySinkMatchesItsStagedCounterpartAt124Workers) {
  const auto paths = make_corpus();
  const auto f = model::Mapping::call_top_dirs(2);

  // Staged references, all computed from a separately-ingested log.
  const auto reference = model::event_log_from_files(paths, 1);
  const auto ref_graph = dfg::build_serial(reference, f);
  const auto ref_summaries = model::summarize_cases(reference);
  const auto ref_activity = model::ActivityLog::build(reference, f);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 512;  // force many chunks per file

    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    pipeline::VariantsSink variants_sink(f);
    const auto log = pipeline::run(paths, pool, {&graph_sink, &stats_sink, &variants_sink}, opts);

    expect_same_log(reference, log);
    EXPECT_EQ(graph_sink.graph(), ref_graph) << workers;
    EXPECT_EQ(graph_sink.graph(), dfg::build_serial(log, f)) << workers;
    EXPECT_EQ(stats_sink.summaries(), ref_summaries) << workers;
    EXPECT_EQ(stats_sink.summaries(), model::summarize_cases(log, pool)) << workers;
    EXPECT_EQ(variants_sink.variants(), ref_activity.variants()) << workers;
  }
}

TEST_F(PipelineSinks, QueueCapacityOneIsStillByteIdentical) {
  // Maximal backpressure degeneration: a 1-slot StageQueue serializes
  // the parse -> convert hand-off completely; output may not change.
  const auto paths = make_corpus();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto reference = model::event_log_from_files(paths, 1);
  const auto ref_graph = dfg::build_serial(reference, f);
  const auto ref_summaries = model::summarize_cases(reference);

  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 512;
    opts.queue_capacity = 1;

    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    const auto log = pipeline::run(paths, pool, {&graph_sink, &stats_sink}, opts);
    expect_same_log(reference, log);
    EXPECT_EQ(graph_sink.graph(), ref_graph) << workers;
    EXPECT_EQ(stats_sink.summaries(), ref_summaries) << workers;

    // A sink-less run and a lone DfgSink honor the option too.
    expect_same_log(reference, pipeline::run(paths, pool, {}, opts));
    pipeline::DfgSink lone_graph(f);
    (void)pipeline::run(paths, pool, {&lone_graph}, opts);
    EXPECT_EQ(lone_graph.graph(), ref_graph) << workers;
  }
}

TEST_F(PipelineSinks, EmptyInputs) {
  ThreadPool pool(2);
  const auto f = model::Mapping::call_only();
  pipeline::DfgSink graph_sink(f);
  pipeline::CaseStatsSink stats_sink;
  pipeline::VariantsSink variants_sink(f);
  const auto log =
      pipeline::run({}, pool, {&graph_sink, &stats_sink, &variants_sink});
  EXPECT_EQ(log.case_count(), 0u);
  EXPECT_TRUE(graph_sink.graph().empty());
  EXPECT_TRUE(stats_sink.summaries().empty());
  EXPECT_TRUE(variants_sink.variants().empty());
}

// ---- error paths -------------------------------------------------------

/// Throws while folding the case whose cid matches; counts merges so
/// tests can assert that failing runs never merge anything.
class ThrowingSink final : public pipeline::CaseSink {
 public:
  explicit ThrowingSink(std::string poison_cid) : poison_cid_(std::move(poison_cid)) {}

  std::unique_ptr<pipeline::SinkPartial> make_partial() const override {
    return std::make_unique<pipeline::SinkPartial>();
  }

  void fold(pipeline::SinkPartial&, const pipeline::CaseContext& ctx) const override {
    if (ctx.c.id().cid == poison_cid_) {
      throw std::runtime_error("sink poisoned on " + poison_cid_);
    }
  }

  void merge(std::unique_ptr<pipeline::SinkPartial>) override { ++merges_; }

  [[nodiscard]] int merges() const { return merges_; }

 private:
  std::string poison_cid_;
  int merges_ = 0;
};

TEST_F(PipelineSinks, ThrowingFoldIsDeterministicAndMergesNothing) {
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(500, 40)));
  paths.push_back(write_file("b_nodeA_2.st", make_clean_trace(300, 50)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(400, 60)));
  paths.push_back(write_file("d_nodeA_4.st", make_clean_trace(200, 70)));

  const auto f = model::Mapping::call_only();
  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  opts.queue_capacity = 1;  // maximal backpressure while failing
  for (int round = 0; round < 10; ++round) {
    // Two sinks poisoned on different files: the error of the LOWER
    // input index ("b", index 1) must win every round, regardless of
    // scheduling — same contract as competing parse errors.
    ThrowingSink early("b");
    ThrowingSink late("d");
    pipeline::DfgSink graph_sink(f);
    try {
      (void)pipeline::run(paths, pool, {&graph_sink, &late, &early}, opts);
      FAIL() << "expected the poisoned fold to throw, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned on b"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    // No sink saw a merge — a failing run leaves every sink empty,
    // never half-merged.
    EXPECT_EQ(early.merges(), 0) << round;
    EXPECT_EQ(late.merges(), 0) << round;
    EXPECT_TRUE(graph_sink.graph().empty()) << round;
  }
  // The pool survives the failed runs and is still usable.
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST_F(PipelineSinks, SinkErrorCompetesWithParseErrorByInputIndex) {
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(400, 40)));
  paths.push_back(write_file("bad_nodeA_2.st", "8  10:00:00.000000 garbage line\n"));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(300, 50)));

  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.strict = true;
  opts.min_chunk_bytes = 256;
  for (int round = 0; round < 10; ++round) {
    {
      // Sink poisoned on index 0, parse error at index 1: sink wins.
      ThrowingSink sink("a");
      try {
        (void)pipeline::run(paths, pool, {&sink}, opts);
        FAIL() << "expected an error, round " << round;
      } catch (const std::runtime_error& e) {
        // A ParseError here would mean the later parse error outranked
        // the earlier sink error — its message would not match.
        EXPECT_NE(std::string(e.what()).find("poisoned on a"), std::string::npos)
            << "round " << round << ": " << e.what();
      }
    }
    {
      // Sink poisoned on index 2, parse error at index 1: parse wins.
      ThrowingSink sink("c");
      EXPECT_THROW((void)pipeline::run(paths, pool, {&sink}, opts), ParseError)
          << "round " << round;
    }
  }
}

TEST_F(PipelineSinks, PoolDestructionAfterThrowingRunLeaksNoContinuation) {
  // Extends the PR 4 pool-destruction regressions: the pool dies
  // IMMEDIATELY after a failing sink run. run() must have awaited every
  // task, so nothing may still reference the destroyed frame — under
  // ASan this test fails loudly if a queued continuation leaked.
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(600, 40)));
  paths.push_back(write_file("b_nodeA_2.st", make_clean_trace(400, 50)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(500, 60)));

  const auto f = model::Mapping::call_only();
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;
    opts.queue_capacity = 1;
    ThrowingSink sink("b");
    pipeline::DfgSink graph_sink(f);
    EXPECT_THROW((void)pipeline::run(paths, pool, {&graph_sink, &sink}, opts),
                 std::runtime_error)
        << round;
  }  // ~ThreadPool right after the throw, every round
}

}  // namespace
}  // namespace st
