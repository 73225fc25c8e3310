#include "dfg/builder.hpp"

#include <cstdint>
#include <vector>

namespace st::dfg {

void add_case_trace(Dfg& g, const model::MappedCase& walk) {
  // Dfg::add_trace(σ_f(c), 1), with the per-event map updates replaced
  // by per-case tallies: weights are integers, so the graph is the same.
  const auto activities = walk.activities();
  const auto ids = walk.ids();
  ++g.trace_count_;
  ++g.nodes_[Dfg::start_node()];
  ++g.nodes_[Dfg::end_node()];
  if (ids.empty()) {
    ++g.edges_[{Dfg::start_node(), Dfg::end_node()}];
    return;
  }
  std::vector<std::uint64_t> node_counts(activities.size(), 0);
  for (const std::uint32_t id : ids) ++node_counts[id];
  for (std::size_t i = 0; i < activities.size(); ++i) g.nodes_[activities[i]] += node_counts[i];

  const auto edges = walk.edges();
  std::vector<std::uint64_t> edge_counts(edges.size(), 0);
  for (const std::uint32_t e : walk.edge_ids()) ++edge_counts[e];
  for (std::size_t i = 0; i < edges.size(); ++i) {
    g.edges_[{activities[edges[i].from], activities[edges[i].to]}] += edge_counts[i];
  }
  ++g.edges_[{Dfg::start_node(), activities[ids.front()]}];
  ++g.edges_[{activities[ids.back()], Dfg::end_node()}];
}

Dfg build_serial(const model::EventLog& log, const model::Mapping& f) {
  Dfg g;
  model::MappedCase walk;
  for (const model::Case& c : log.cases()) {
    walk.assign(c, f);
    add_case_trace(g, walk);
  }
  return g;
}

}  // namespace st::dfg
