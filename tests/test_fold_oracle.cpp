// The production per-case folds over model::MappedCase against the
// original per-event folds kept in fold_reference.hpp: the DFG
// (build_serial, add_case_trace), the I/O statistics (the Partial's
// per-case contributions, and every ActivityStat double compared
// bitwise after finalize), the edge statistics, the activity log and
// its variant multiset, the timeline, the report's one walk and one
// ReportData assembly (fold_log + assemble_report_data: graph, I/O and
// edge statistics, case summaries, counts and a timeline) and the
// pipeline sinks sharing one memoized walk through CaseContext — under
// all 7 registry mappings, a filtered_fp mapping and a custom mapping
// that leaves events unmapped, over randomized logs with hostile paths
// ('//' runs, trailing '/', relative and empty paths, more components
// asked for than a path has).
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dfg/builder.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "fold_reference.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "model/case_walk.hpp"
#include "model/mapping.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "support/rng.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

const std::vector<std::string>& hostile_paths() {
  static const std::vector<std::string> paths = {
      "/usr/lib/x86_64-linux-gnu/libc.so.6",
      "/usr/lib/locale/locale-archive",
      "//p//scratch///ssf/test.0",
      "/p/scratch/ssf/",
      "/p/scratch/fpp/test.00000017",
      "/p/scratch",
      "/p/home/user/.bashrc",
      "/p/software/stages/2024/x/y/z/w/v/u",
      "/dev/shm/f",
      "relative/path/x",
      "rel",
      "",
      "/",
      "///",
      "/etc/ld.so.cache",
      "/a_component_name_far_longer_than_any_small_string_buffer/b",
  };
  return paths;
}

/// A random log over hostile paths: empty, one-event and long cases,
/// overlapping events (negative gaps), zero durations (no rate) and
/// events with and without sizes.
model::EventLog random_log(std::uint64_t seed, std::size_t cases) {
  Xoshiro256 rng(seed);
  const std::vector<std::string> calls = {"read", "write", "openat", "lseek", "close",
                                          "a_syscall_name_longer_than_sso"};
  const auto& paths = hostile_paths();
  model::EventLog log;
  for (std::size_t c = 0; c < cases; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = c % 7 == 0 ? c % 2 : rng.below(120);
    Micros t = static_cast<Micros>(rng.below(1000));
    for (std::size_t i = 0; i < n; ++i) {
      const Micros dur = static_cast<Micros>(rng.below(4) == 0 ? 0 : 1 + rng.below(300));
      const std::int64_t size =
          rng.below(3) == 0 ? -1 : static_cast<std::int64_t>(rng.below(1 << 20));
      events.push_back(testing::ev(calls[rng.below(calls.size())], paths[rng.below(paths.size())],
                                   t, dur, size));
      // Steps shorter than a duration make negative directly-follows gaps.
      t += static_cast<Micros>(rng.below(200));
    }
    log.add_case(testing::make_case("c" + std::to_string(c % 3), c + 1, std::move(events),
                                    c % 2 == 0 ? "nodeA" : "nodeB"));
  }
  return log;
}

std::vector<std::pair<std::string, model::Mapping>> mappings() {
  std::vector<std::pair<std::string, model::Mapping>> out;
  for (const char* name : {"top1", "top2", "last1", "last2", "call", "site", "site1"}) {
    out.emplace_back(name, model::mapping_by_name(name));
  }
  out.emplace_back("last2|fp~/p/", model::mapping_by_name("last2").filtered_fp("/p/"));
  // Leaves lseek/close unmapped and maps the rest to call + raw path.
  out.emplace_back("custom", model::Mapping::custom(
                                 "custom", [](const model::Event& e) -> std::optional<model::Activity> {
                                   if (e.call == "lseek" || e.call == "close") return std::nullopt;
                                   return std::string(e.call) + "@" + std::string(e.fp);
                                 }));
  return out;
}

void expect_same_stats(const dfg::IoStatistics& want, const dfg::IoStatistics& got) {
  EXPECT_EQ(got.total_duration(), want.total_duration());
  ASSERT_EQ(got.per_activity().size(), want.per_activity().size());
  auto w = want.per_activity().begin();
  for (const auto& [activity, g] : got.per_activity()) {
    const dfg::ActivityStat& s = w->second;
    EXPECT_EQ(activity, w->first);
    EXPECT_EQ(g.total_dur, s.total_dur) << activity;
    EXPECT_EQ(bits(g.rel_dur), bits(s.rel_dur)) << activity;
    EXPECT_EQ(g.bytes, s.bytes) << activity;
    EXPECT_EQ(g.has_bytes, s.has_bytes) << activity;
    EXPECT_EQ(bits(g.mean_rate), bits(s.mean_rate)) << activity;
    EXPECT_EQ(g.rate_samples, s.rate_samples) << activity;
    EXPECT_EQ(g.max_concurrency, s.max_concurrency) << activity;
    EXPECT_EQ(g.rank_count, s.rank_count) << activity;
    EXPECT_EQ(g.event_count, s.event_count) << activity;
    ++w;
  }
}

void expect_same_partial(const dfg::IoStatistics::Partial& want,
                         const dfg::IoStatistics::Partial& got) {
  ASSERT_EQ(got.cases().size(), want.cases().size());
  for (std::size_t i = 0; i < want.cases().size(); ++i) {
    const auto& w = want.cases()[i];
    const auto& g = got.cases()[i];
    EXPECT_EQ(g.id, w.id);
    ASSERT_EQ(g.activities.size(), w.activities.size()) << w.id.to_string();
    auto wi = w.activities.begin();
    for (const auto& [activity, con] : g.activities) {
      EXPECT_EQ(activity, wi->first);
      EXPECT_EQ(bits(con.rate_sum), bits(wi->second.rate_sum)) << activity;
      EXPECT_EQ(con, wi->second) << activity;
      ++wi;
    }
  }
}

void expect_same_timeline(const std::vector<dfg::TimelineEntry>& want,
                          const std::vector<dfg::TimelineEntry>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].case_id, want[i].case_id) << i;
    EXPECT_EQ(got[i].interval, want[i].interval) << i;
  }
}

class FoldOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FoldOracle, EveryFoldMatchesThePerEventReference) {
  const auto log = random_log(GetParam(), 40);
  for (const auto& [name, f] : mappings()) {
    SCOPED_TRACE(name);
    const dfg::Dfg graph = reference::build_reference(log, f);
    EXPECT_EQ(dfg::build_serial(log, f), graph);

    const auto io_ref = reference::io_stats_partial_reference(log, f);
    dfg::IoStatistics::Partial io;
    for (const model::Case& c : log.cases()) io.add_case(model::MappedCase(c, f));
    expect_same_partial(io_ref, io);
    const dfg::IoStatistics stats_ref = io_ref.finalize();
    expect_same_stats(stats_ref, dfg::IoStatistics::compute(log, f));

    const auto edge_ref = reference::edge_partial_reference(log, f);
    EXPECT_EQ(dfg::EdgeStatistics::compute(log, f).per_edge(), edge_ref.stats());

    const auto activity_log = model::ActivityLog::build(log, f);
    EXPECT_EQ(activity_log.variants(), reference::variants_reference(log, f));
    for (const model::Case& c : log.cases()) {
      EXPECT_EQ(activity_log.per_case().at(c.id()), reference::activity_trace_reference(c, f));
    }

    // Timelines of a few activities, plus one no case maps to.
    std::vector<model::Activity> probes = {"read\nnothing-maps-here"};
    for (const auto& [activity, stat] : stats_ref.per_activity()) {
      if (probes.size() < 6) probes.push_back(activity);
    }
    for (const auto& a : probes) {
      expect_same_timeline(reference::timeline_reference(log, f, a),
                           dfg::IoStatistics::timeline(log, f, a));
      expect_same_timeline(reference::timeline_reference(log, f, a), io.timeline(a));
    }

    // The report's one walk plus its one assembly: every section equals
    // its reference, the doubles bitwise.
    report::ReportOptions opts;
    opts.timeline_activity = probes.back();
    const auto data = report::assemble_report_data(report::fold_log(log, f), opts);
    EXPECT_EQ(data.graph, graph);
    expect_same_stats(stats_ref, data.stats);
    EXPECT_EQ(data.edge_stats.per_edge(), edge_ref.stats());
    EXPECT_EQ(data.case_summaries, model::summarize_cases(log));
    EXPECT_EQ(data.case_count, log.case_count());
    EXPECT_EQ(data.total_events, log.total_events());
    expect_same_timeline(reference::timeline_reference(log, f, probes.back()), data.timeline);
    EXPECT_FALSE(data.variants);
    EXPECT_FALSE(data.health);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldOracle, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FoldOracle, SinksSharingOneMemoizedWalkMatchTheReference) {
  const auto log = random_log(11, 30);
  for (const auto& [name, f] : mappings()) {
    SCOPED_TRACE(name);
    pipeline::DfgSink graph_sink(f);
    pipeline::VariantsSink variants_sink(f);
    pipeline::IoStatsSink io_sink(f);
    pipeline::EdgeStatsSink edge_sink(f);
    const std::vector<pipeline::CaseSink*> sinks = {&graph_sink, &variants_sink, &io_sink,
                                                    &edge_sink};
    const std::shared_ptr<strace::StringArena> no_arena;
    const std::shared_ptr<strace::TraceBuffer> no_buffer;
    for (const model::Case& c : log.cases()) {
      const pipeline::CaseContext ctx(c, no_arena, no_buffer);
      // One walk per mapping object, handed to every sink.
      const model::MappedCase& walk = ctx.mapped(f);
      EXPECT_EQ(&ctx.mapped(f), &walk);
      for (pipeline::CaseSink* sink : sinks) {
        auto partial = sink->make_partial();
        sink->fold(*partial, ctx);
        sink->merge(std::move(partial));
      }
      EXPECT_EQ(&ctx.mapped(f), &walk);
    }
    EXPECT_EQ(graph_sink.graph(), reference::build_reference(log, f));
    EXPECT_EQ(variants_sink.variants(), reference::variants_reference(log, f));
    const auto io_ref = reference::io_stats_partial_reference(log, f);
    expect_same_partial(io_ref, io_sink.partial());
    expect_same_stats(io_ref.finalize(), io_sink.finalize());
    EXPECT_EQ(edge_sink.finalize().per_edge(), reference::edge_partial_reference(log, f).stats());
  }
}

TEST(FoldOracle, ContextKeepsOneWalkPerMapping) {
  const auto c = testing::make_case(
      "m", 1, {testing::ev("read", "/p/scratch/a/b", 0, 5, 10), testing::ev("lseek", "/x", 9, 1)});
  const auto top1 = model::mapping_by_name("top1");
  const auto call = model::mapping_by_name("call");
  const std::shared_ptr<strace::StringArena> no_arena;
  const std::shared_ptr<strace::TraceBuffer> no_buffer;
  const pipeline::CaseContext ctx(c, no_arena, no_buffer);
  const model::MappedCase& a = ctx.mapped(top1);
  const model::MappedCase& b = ctx.mapped(call);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&ctx.mapped(top1), &a);  // still valid after a second walk was added
  ASSERT_EQ(a.activities().size(), 2u);
  EXPECT_EQ(a.activities()[0], "read\n/p");
  EXPECT_EQ(b.activities()[1], "lseek");
}

TEST(MappedCase, DistinctActivitiesAndEdgesInFirstSeenOrder) {
  using testing::ev;
  // a b a a c b — with one unmapped event ("skip") in the middle.
  const auto c = testing::make_case("w", 1,
                                    {ev("a", "", 0, 1), ev("b", "", 1, 1), ev("skip", "", 2, 1),
                                     ev("a", "", 3, 1), ev("a", "", 4, 1), ev("c", "", 5, 1),
                                     ev("b", "", 6, 1)});
  const auto f = model::Mapping::call_only().filtered(
      "no-skip", [](const model::Event& e) { return e.call != "skip"; });
  model::MappedCase walk(c, f);
  ASSERT_EQ(walk.size(), 6u);
  EXPECT_EQ(std::vector<model::Activity>(walk.activities().begin(), walk.activities().end()),
            (std::vector<model::Activity>{"a", "b", "c"}));
  EXPECT_EQ(std::vector<std::uint32_t>(walk.ids().begin(), walk.ids().end()),
            (std::vector<std::uint32_t>{0, 1, 0, 0, 2, 1}));
  EXPECT_EQ(walk.event(2).start, 3);  // the skipped event is not a mapped event
  // Edges a>b, b>a, a>a, a>c, c>b — each seen once.
  ASSERT_EQ(walk.edges().size(), 5u);
  EXPECT_EQ(std::vector<std::uint32_t>(walk.edge_ids().begin(), walk.edge_ids().end()),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(walk.edges()[2].from, 0u);
  EXPECT_EQ(walk.edges()[2].to, 0u);
  EXPECT_EQ(walk.find("c"), std::optional<std::uint32_t>(2));
  EXPECT_EQ(walk.find("skip"), std::nullopt);

  // Reassigning reuses the object for an unrelated case.
  const auto empty = testing::make_case("w", 2, {});
  walk.assign(empty, f);
  EXPECT_EQ(walk.size(), 0u);
  EXPECT_TRUE(walk.activities().empty());
  EXPECT_TRUE(walk.edges().empty());
  EXPECT_EQ(walk.find("a"), std::nullopt);
}

}  // namespace
}  // namespace st
