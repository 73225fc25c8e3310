#include "dfg/layout.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "support/strings.hpp"

namespace st::dfg {

const NodeBox* Layout::find(const Activity& a) const {
  for (const auto& n : nodes) {
    if (n.activity == a) return &n;
  }
  return nullptr;
}

namespace {

/// The graph with nodes numbered once, in activity order, and edges as
/// index pairs in edge-map order — every later pass works on these
/// integers instead of string-keyed maps.
struct IndexedGraph {
  std::vector<std::string_view> names;  ///< views into the graph's keys
  std::vector<std::pair<std::size_t, std::size_t>> edges;  ///< parallel to g.edges()
  std::size_t end = 0;  ///< index of the end marker; names.size() if absent
};

IndexedGraph index_graph(const Dfg& g) {
  // Edge endpoints missing from nodes() (possible only through
  // Dfg::from_parts) are laid out like any other node.
  std::map<std::string_view, std::size_t> index;
  for (const auto& [node, count] : g.nodes()) index.emplace(node, 0);
  for (const auto& [edge, count] : g.edges()) {
    index.try_emplace(edge.first, 0);
    index.try_emplace(edge.second, 0);
  }
  IndexedGraph ig;
  ig.names.reserve(index.size());
  for (auto& [name, i] : index) {
    i = ig.names.size();
    ig.names.push_back(name);
  }
  ig.edges.reserve(g.edges().size());
  for (const auto& [edge, count] : g.edges()) {
    ig.edges.emplace_back(index.at(edge.first), index.at(edge.second));
  }
  const auto end = index.find(Dfg::end_node());
  ig.end = end == index.end() ? ig.names.size() : end->second;
  return ig;
}

/// Longest-path layering from the start node. Cycles (other than self
/// loops) are tolerated by bounding the relaxation rounds: after
/// `rounds` rounds the remaining back edges are frozen as drawn-back
/// edges. Edges relax in edge-map order, in place, so the layers
/// reached on a cyclic graph are a deterministic function of the graph.
std::vector<std::size_t> assign_layers(const IndexedGraph& ig, std::size_t rounds) {
  std::vector<std::size_t> layer(ig.names.size(), 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    bool changed = false;
    for (const auto& [from, to] : ig.edges) {
      if (from == to) continue;  // self loop
      if (layer[to] < layer[from] + 1) {
        layer[to] = layer[from] + 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  // The end marker goes below everything.
  if (ig.end < layer.size()) {
    std::size_t max_layer = 0;
    for (std::size_t i = 0; i < layer.size(); ++i) {
      if (i != ig.end) max_layer = std::max(max_layer, layer[i]);
    }
    layer[ig.end] = max_layer + 1;
  }
  return layer;
}

std::vector<std::string> label_lines_for(const Activity& a, const IoStatistics* stats,
                                         bool show_stats) {
  std::vector<std::string> lines;
  for (const auto part : split(a, '\n')) lines.emplace_back(part);
  if (show_stats && stats != nullptr) {
    if (const ActivityStat* s = stats->find(a)) {
      lines.push_back(s->load_label());
      if (const std::string dr = s->dr_label(); !dr.empty()) lines.push_back(dr);
    }
  }
  return lines;
}

}  // namespace

Layout layout_dfg(const Dfg& g, const IoStatistics* stats, const LayoutOptions& opts) {
  Layout out;
  if (g.nodes().empty()) return out;

  const IndexedGraph ig = index_graph(g);
  const std::size_t n = ig.names.size();
  const auto layers = assign_layers(ig, g.nodes().size() + 1);
  const std::size_t max_layer = *std::max_element(layers.begin(), layers.end());

  // Group nodes by layer (deterministic start order: activity order).
  std::vector<std::vector<std::size_t>> rows(max_layer + 1);
  for (std::size_t i = 0; i < n; ++i) rows[layers[i]].push_back(i);

  // Neighbours in other layers, listed in edge-map order so each
  // barycenter sums its positions in a fixed order.
  std::vector<std::vector<std::size_t>> preds(n);
  std::vector<std::vector<std::size_t>> succs(n);
  for (const auto& [from, to] : ig.edges) {
    if (layers[from] == layers[to]) continue;
    succs[from].push_back(to);
    preds[to].push_back(from);
  }

  // Barycenter sweeps: order each row by the mean position of its
  // neighbours (downward: predecessors, upward: successors). A row's
  // keys only read other rows' positions, so they are fixed for the
  // duration of its sort and computed once up front.
  std::vector<double> pos(n);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) pos[row[i]] = static_cast<double>(i);
  }
  std::vector<double> key(n);
  for (std::size_t sweep = 0; sweep < opts.barycenter_sweeps; ++sweep) {
    const auto& neighbours = sweep % 2 == 1 ? succs : preds;
    for (auto& row : rows) {
      for (const std::size_t node : row) {
        const auto& list = neighbours[node];
        double sum = 0;
        for (const std::size_t other : list) sum += pos[other];
        key[node] = list.empty() ? pos[node] : sum / static_cast<double>(list.size());
      }
      std::stable_sort(row.begin(), row.end(),
                       [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
      for (std::size_t i = 0; i < row.size(); ++i) pos[row[i]] = static_cast<double>(i);
    }
  }

  // Size the boxes, place rows centered on the widest row.
  std::vector<std::vector<NodeBox>> boxed(rows.size());
  double max_row_width = 0;
  for (std::size_t l = 0; l < rows.size(); ++l) {
    double row_width = 0;
    for (const std::size_t node : rows[l]) {
      NodeBox box;
      box.activity = Activity(ig.names[node]);
      box.label_lines = label_lines_for(box.activity, stats, opts.show_stats);
      std::size_t longest = 1;
      for (const auto& line : box.label_lines) longest = std::max(longest, line.size());
      box.width = static_cast<double>(longest) * opts.char_width + 2 * opts.node_padding;
      box.height = static_cast<double>(box.label_lines.size()) * opts.line_height +
                   2 * opts.node_padding;
      box.layer = l;
      row_width += box.width;
      boxed[l].push_back(std::move(box));
    }
    if (!rows[l].empty()) {
      row_width += static_cast<double>(rows[l].size() - 1) * opts.node_gap;
    }
    max_row_width = std::max(max_row_width, row_width);
  }

  // slot[i]: where graph node i lands in out.nodes.
  std::vector<std::size_t> slot(n);
  out.nodes.reserve(n);
  double y = opts.layer_gap / 2;
  for (std::size_t l = 0; l < boxed.size(); ++l) {
    auto& row = boxed[l];
    double row_width = 0;
    double row_height = 0;
    for (const auto& box : row) {
      row_width += box.width;
      row_height = std::max(row_height, box.height);
    }
    if (!row.empty()) row_width += static_cast<double>(row.size() - 1) * opts.node_gap;
    double x = (max_row_width - row_width) / 2 + opts.node_gap;
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i].x = x;
      row[i].y = y;
      x += row[i].width + opts.node_gap;
      slot[rows[l][i]] = out.nodes.size();
      out.nodes.push_back(std::move(row[i]));
    }
    y += row_height + opts.layer_gap;
  }
  out.width = max_row_width + 2 * opts.node_gap;
  out.height = y;

  out.edges.reserve(ig.edges.size());
  std::size_t e = 0;
  for (const auto& [edge, count] : g.edges()) {
    const auto [from, to] = ig.edges[e++];
    EdgeGeom geom;
    geom.from = edge.first;
    geom.to = edge.second;
    geom.count = count;
    geom.from_index = slot[from];
    geom.to_index = slot[to];
    geom.self_loop = from == to;
    geom.back_edge = !geom.self_loop && layers[to] <= layers[from];
    out.edges.push_back(std::move(geom));
  }
  return out;
}

}  // namespace st::dfg
