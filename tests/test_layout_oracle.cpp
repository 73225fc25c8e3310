// The production DFG layout (dense indices, precomputed barycenter
// keys) against the original string-keyed implementation kept in
// layout_reference.hpp: every NodeBox and EdgeGeom field, and the
// render_svg bytes, must match on every graph shape the layout has a
// special case for — cyclic and acyclic random graphs, self loops,
// nodes without neighbours in other layers, edge endpoints missing
// from nodes(), the empty and the lone ● → ■ graph, a graph of more
// than 300 nodes — at every barycenter_sweeps value from 0 to 5.
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dfg/builder.hpp"
#include "dfg/coloring.hpp"
#include "dfg/layout.hpp"
#include "dfg/render_svg.hpp"
#include "dfg/stats.hpp"
#include "layout_reference.hpp"
#include "model/mapping.hpp"
#include "support/rng.hpp"
#include "testing_util.hpp"

namespace st::dfg {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_layout(const Layout& want, const Layout& got) {
  EXPECT_EQ(bits(got.width), bits(want.width));
  EXPECT_EQ(bits(got.height), bits(want.height));
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const NodeBox& w = want.nodes[i];
    const NodeBox& g = got.nodes[i];
    EXPECT_EQ(g.activity, w.activity) << "node " << i;
    EXPECT_EQ(g.label_lines, w.label_lines) << w.activity;
    EXPECT_EQ(bits(g.x), bits(w.x)) << w.activity;
    EXPECT_EQ(bits(g.y), bits(w.y)) << w.activity;
    EXPECT_EQ(bits(g.width), bits(w.width)) << w.activity;
    EXPECT_EQ(bits(g.height), bits(w.height)) << w.activity;
    EXPECT_EQ(g.layer, w.layer) << w.activity;
  }
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < want.edges.size(); ++i) {
    const EdgeGeom& w = want.edges[i];
    const EdgeGeom& g = got.edges[i];
    EXPECT_EQ(g.from, w.from) << "edge " << i;
    EXPECT_EQ(g.to, w.to) << "edge " << i;
    EXPECT_EQ(g.count, w.count) << w.from << " -> " << w.to;
    EXPECT_EQ(g.self_loop, w.self_loop) << w.from << " -> " << w.to;
    EXPECT_EQ(g.back_edge, w.back_edge) << w.from << " -> " << w.to;
    // The indices the renderer follows name the same boxes find() does.
    ASSERT_LT(g.from_index, got.nodes.size());
    ASSERT_LT(g.to_index, got.nodes.size());
    EXPECT_EQ(&got.nodes[g.from_index], got.find(w.from)) << w.from;
    EXPECT_EQ(&got.nodes[g.to_index], got.find(w.to)) << w.to;
  }
}

/// Layout fields at sweeps 0..5 (with and without stats lines), and the
/// SVG bytes with and without a styler.
void expect_matches_reference(const Dfg& g, const IoStatistics* stats = nullptr) {
  for (std::size_t sweeps = 0; sweeps <= 5; ++sweeps) {
    for (const bool show_stats : {true, false}) {
      SCOPED_TRACE("barycenter_sweeps=" + std::to_string(sweeps) +
                   " show_stats=" + std::to_string(show_stats));
      LayoutOptions opts;
      opts.barycenter_sweeps = sweeps;
      opts.show_stats = show_stats;
      expect_same_layout(layout_dfg_reference(g, stats, opts), layout_dfg(g, stats, opts));
      SvgOptions svg;
      svg.layout = opts;
      svg.title = "oracle <&>";
      EXPECT_EQ(render_svg(g, stats, nullptr, svg), render_svg_reference(g, stats, nullptr, svg));
      if (stats != nullptr) {
        const StatisticsColoring styler(*stats);
        EXPECT_EQ(render_svg(g, stats, &styler, svg),
                  render_svg_reference(g, stats, &styler, svg));
      }
    }
  }
}

std::string activity_name(std::size_t i) {
  // Multi-line and XML-special names exercise label splitting and
  // escaping along with the geometry.
  switch (i % 4) {
    case 0: return "a" + std::to_string(i);
    case 1: return "read\n/p/d" + std::to_string(i);
    case 2: return "w<" + std::to_string(i) + ">&";
    default: return "openat\n/p/s/" + std::to_string(i) + "\nx";
  }
}

/// `traces` random traces over `activities` names. Acyclic graphs only
/// ever step to a higher name index (so ● → ... → ■ is a DAG); cyclic
/// ones step anywhere, self loops included.
Dfg random_dfg(std::uint64_t seed, std::size_t activities, std::size_t traces, bool cyclic) {
  Xoshiro256 rng(seed);
  Dfg g;
  for (std::size_t t = 0; t < traces; ++t) {
    model::ActivityTrace trace;
    const std::size_t len = 1 + rng.below(12);
    std::size_t at = rng.below(activities);
    for (std::size_t k = 0; k < len; ++k) {
      trace.push_back(activity_name(at));
      if (cyclic) {
        at = rng.below(activities);
      } else {
        if (at + 1 >= activities) break;
        at += 1 + rng.below(std::min<std::size_t>(4, activities - at - 1));
      }
    }
    g.add_trace(trace, 1 + rng.below(3));
  }
  return g;
}

TEST(LayoutOracle, SeededRandomAcyclicGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(random_dfg(seed, 6 + seed * 3, 4 + seed * 2, /*cyclic=*/false));
  }
}

TEST(LayoutOracle, SeededRandomCyclicGraphs) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(random_dfg(seed, 4 + (seed % 9) * 3, 3 + seed % 11, /*cyclic=*/true));
  }
}

TEST(LayoutOracle, SelfLoopsAndSameLayerNeighbours) {
  Dfg g;
  g.add_trace({"a", "a", "a", "b"}, 3);  // self loop on a
  g.add_trace({"b", "b"});               // self loop on b, b -> ■ too
  g.add_trace({"c", "a", "d"});          // a and c share a layer: c -> a is same-layer
  g.add_trace({"d", "c"});               // back edge d -> c
  expect_matches_reference(g);
}

TEST(LayoutOracle, NodesWithoutNeighboursInOtherLayers) {
  // "iso" has no edges at all; "x" and "y" only reach each other and
  // sit on the same layer; "dangling" appears only as an edge endpoint
  // (a from_parts graph — the layout still boxes it).
  std::map<Activity, std::uint64_t> nodes = {
      {Dfg::start_node(), 2}, {Dfg::end_node(), 2}, {"a", 2}, {"iso", 1}, {"x", 1}, {"y", 1}};
  std::map<std::pair<Activity, Activity>, std::uint64_t> edges = {
      {{Dfg::start_node(), "a"}, 2}, {{"a", Dfg::end_node()}, 2}, {{"x", "y"}, 1},
      {{"y", "x"}, 1},               {{"a", "dangling"}, 1}};
  expect_matches_reference(Dfg::from_parts(nodes, edges, 2));
}

TEST(LayoutOracle, EmptyAndLoneStartEndGraphs) {
  expect_matches_reference(Dfg{});
  Dfg lone;
  lone.add_trace({});  // ● -> ■ only
  ASSERT_EQ(lone.nodes().size(), 2u);
  expect_matches_reference(lone);
}

TEST(LayoutOracle, GraphOfMoreThan300Nodes) {
  const Dfg g = random_dfg(7, 340, 260, /*cyclic=*/true);
  ASSERT_GT(g.nodes().size(), 300u);
  for (const std::size_t sweeps : {0u, 4u}) {
    LayoutOptions opts;
    opts.barycenter_sweeps = sweeps;
    expect_same_layout(layout_dfg_reference(g, nullptr, opts), layout_dfg(g, nullptr, opts));
  }
  EXPECT_EQ(render_svg(g, nullptr, nullptr), render_svg_reference(g, nullptr, nullptr));
}

TEST(LayoutOracle, StatisticsLabelledGraphFromALog) {
  // Load/DR label lines and statistics colouring on a log-built DFG.
  Xoshiro256 rng(42);
  const std::vector<std::string> calls = {"read", "write", "openat", "pread64", "close"};
  model::EventLog log;
  for (std::uint64_t c = 0; c < 12; ++c) {
    std::vector<model::Event> events;
    Micros t = 0;
    for (int k = 0; k < 30; ++k) {
      t += 1 + static_cast<Micros>(rng.below(50));
      const auto& call = calls[rng.below(calls.size())];
      const std::string fp =
          "/p/d" + std::to_string(rng.below(4)) + "/e" + std::to_string(rng.below(3)) + "/f";
      const bool sized = call == "read" || call == "write" || call == "pread64";
      events.push_back(testing::ev(call, fp, t, 1 + static_cast<Micros>(rng.below(400)),
                                   sized ? static_cast<std::int64_t>(rng.below(1 << 20)) : -1));
    }
    log.add_case(testing::make_case("c", c + 1, std::move(events)));
  }
  for (const auto& f : {model::Mapping::call_top_dirs(2), model::Mapping::call_last_components(2),
                        model::Mapping::call_only()}) {
    SCOPED_TRACE(f.name());
    const Dfg g = build_serial(log, f);
    const IoStatistics stats = IoStatistics::compute(log, f);
    expect_matches_reference(g, &stats);
  }
}

}  // namespace
}  // namespace st::dfg
