#include "dfg/edge_stats.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace st::dfg {

namespace {

/// The EdgeStat monoid: counts and gaps add, max_gap maxes.
void add_into(EdgeStat& into, const EdgeStat& from) {
  into.count += from.count;
  into.total_gap += from.total_gap;
  into.max_gap = std::max(into.max_gap, from.max_gap);
  into.overlapped += from.overlapped;
}

}  // namespace

void EdgeStatistics::Partial::add_case(const model::MappedCase& walk) {
  // Gaps tallied per local edge id first (integers only), then folded
  // into the string-keyed map once per distinct edge of the case.
  const auto edges = walk.edges();
  std::vector<EdgeStat> local(edges.size());
  const auto edge_ids = walk.edge_ids();
  for (std::size_t k = 0; k < edge_ids.size(); ++k) {
    EdgeStat& stat = local[edge_ids[k]];
    ++stat.count;
    const Micros gap = walk.event(k + 1).start - walk.event(k).end();
    if (gap >= 0) {
      stat.total_gap += gap;
      stat.max_gap = std::max(stat.max_gap, gap);
    } else {
      ++stat.overlapped;
    }
  }
  const auto activities = walk.activities();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    add_into(stats_[{activities[edges[i].from], activities[edges[i].to]}], local[i]);
  }
}

void EdgeStatistics::Partial::merge(Partial&& other) {
  if (stats_.empty()) {
    stats_ = std::move(other.stats_);
    return;
  }
  while (!other.stats_.empty()) {
    auto node = other.stats_.extract(other.stats_.begin());
    const auto result = stats_.insert(std::move(node));
    if (!result.inserted) add_into(result.position->second, result.node.mapped());
  }
}

EdgeStatistics EdgeStatistics::Partial::finalize() const& {
  EdgeStatistics out;
  out.stats_ = stats_;
  return out;
}

EdgeStatistics EdgeStatistics::Partial::finalize() && {
  EdgeStatistics out;
  out.stats_ = std::move(stats_);
  return out;
}

EdgeStatistics::Partial EdgeStatistics::Partial::from_stats(std::map<Edge, EdgeStat> stats) {
  Partial p;
  p.stats_ = std::move(stats);
  return p;
}

EdgeStatistics EdgeStatistics::compute(const model::EventLog& log, const model::Mapping& f) {
  Partial partial;
  model::MappedCase walk;
  for (const model::Case& c : log.cases()) {
    walk.assign(c, f);
    partial.add_case(walk);
  }
  return std::move(partial).finalize();
}

const EdgeStat* EdgeStatistics::find(const model::Activity& from,
                                     const model::Activity& to) const {
  const auto it = stats_.find({from, to});
  return it == stats_.end() ? nullptr : &it->second;
}

const EdgeStatistics::Edge* EdgeStatistics::slowest_edge() const {
  // Strict > over the ordered map: equal means keep the first —
  // lexicographically smallest — edge. Pinned by test_stats_sinks.
  const Edge* best = nullptr;
  double best_gap = -1.0;
  for (const auto& [edge, stat] : stats_) {
    if (stat.mean_gap() > best_gap) {
      best_gap = stat.mean_gap();
      best = &edge;
    }
  }
  return best;
}

}  // namespace st::dfg
