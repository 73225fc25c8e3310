// CPLX-REND — rendering is O(m^2) in the worst case (Sec. V step 5):
// a dense DFG has an edge between every pair of its m nodes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "support/rng.hpp"

namespace {

using namespace st;

/// Fully dense DFG over m activities (every pair directly follows).
dfg::Dfg dense_dfg(std::size_t m) {
  dfg::Dfg g;
  std::vector<model::Activity> names;
  names.reserve(m);
  for (std::size_t i = 0; i < m; ++i) names.push_back("act" + std::to_string(i));
  // One trace visiting every ordered pair produces the dense graph.
  model::ActivityTrace trace;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      trace.push_back(names[i]);
      trace.push_back(names[j]);
    }
  }
  g.add_trace(trace);
  return g;
}

void BM_RenderDot_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_dot(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderDot_Dense)->Range(4, 128)->Complexity(benchmark::oNSquared);

void BM_RenderAscii_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_ascii(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderAscii_Dense)->Range(4, 128)->Complexity(benchmark::oNSquared);

/// Sparse (chain) graphs render linearly — the practical regime the
/// paper's "keep m small" guidance targets.
void BM_RenderDot_Chain(benchmark::State& state) {
  dfg::Dfg g;
  model::ActivityTrace trace;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    trace.push_back("act" + std::to_string(i));
  }
  g.add_trace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_dot(g, nullptr, nullptr));
  }
}
BENCHMARK(BM_RenderDot_Chain)->Range(4, 1024);

void BM_RenderSvg_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_svg(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderSvg_Dense)->Range(4, 64)->Complexity(benchmark::oNSquared);

/// Layered DAG the shape of a served DFG: ● feeds the first of
/// n / 8 layers of 8 activities, every activity feeds two activities
/// of the next layer, the last layer feeds ■ — about 2n edges.
dfg::Dfg layered_dfg(std::size_t n) {
  constexpr std::size_t kWidth = 8;
  const std::size_t layers = std::max<std::size_t>(1, n / kWidth);
  const auto name = [](std::size_t l, std::size_t i) {
    return "act" + std::to_string(l) + "_" + std::to_string(i);
  };
  std::map<model::Activity, std::uint64_t> nodes = {{dfg::Dfg::start_node(), 1},
                                                    {dfg::Dfg::end_node(), 1}};
  std::map<std::pair<model::Activity, model::Activity>, std::uint64_t> edges;
  Xoshiro256 rng(7);
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      nodes[name(l, i)] = 1;
      if (l == 0) edges[{dfg::Dfg::start_node(), name(l, i)}] = 1;
      if (l + 1 == layers) {
        edges[{name(l, i), dfg::Dfg::end_node()}] = 1;
      } else {
        for (int k = 0; k < 2; ++k) edges[{name(l, i), name(l + 1, rng.below(kWidth))}] = 1;
      }
    }
  }
  return dfg::Dfg::from_parts(std::move(nodes), std::move(edges), 1);
}

/// Layout cost against node count on the layered shape: O(V + E) per
/// barycenter sweep plus the row sorts, so the fit should come out
/// near-linear.
void BM_LayoutDfg(benchmark::State& state) {
  const auto g = layered_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::layout_dfg(g, nullptr));
  }
  state.counters["edges"] = static_cast<double>(g.edges().size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LayoutDfg)->RangeMultiplier(2)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_LayoutOnly(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::layout_dfg(g, nullptr));
  }
}
BENCHMARK(BM_LayoutOnly)->Range(4, 64);

}  // namespace

BENCHMARK_MAIN();
