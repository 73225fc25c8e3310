// Reference DFG layout and SVG rendering — the original string-keyed
// implementation, kept verbatim as the test oracle of the production
// dense-index layout (dfg/layout.cpp) and renderer (dfg/render_svg.cpp),
// in the role the *_scalar loops play for the scan kernels. Costs
// O(sweeps · V log V · E) map lookups, so only tests call it.
//
// Differences from the original text: the functions are renamed
// (layout_dfg_reference, render_svg_reference), made inline, and the
// helpers live in a `reference` namespace.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "dfg/coloring.hpp"
#include "dfg/layout.hpp"
#include "dfg/render_svg.hpp"
#include "support/si.hpp"
#include "support/strings.hpp"

namespace st::dfg {

namespace reference {

/// Longest-path layering from the start node. Cycles (other than self
/// loops) are tolerated by bounding the relaxation rounds: after
/// |V| rounds the remaining back edges are frozen as drawn-back edges.
inline std::map<Activity, std::size_t> assign_layers(const Dfg& g) {
  std::map<Activity, std::size_t> layer;
  for (const auto& [node, count] : g.nodes()) layer[node] = 0;

  const std::size_t rounds = g.nodes().size() + 1;
  for (std::size_t r = 0; r < rounds; ++r) {
    bool changed = false;
    for (const auto& [edge, count] : g.edges()) {
      const auto& [from, to] = edge;
      if (from == to) continue;  // self loop
      if (layer[to] < layer[from] + 1) {
        layer[to] = layer[from] + 1;
        changed = true;
      }
    }
    if (!changed) break;
    if (r + 1 == rounds) {
      // A non-self cycle exists; the loop above would oscillate
      // forever. The layers reached so far are consistent enough to
      // draw (the residual edges render as back edges).
      break;
    }
  }
  // The end marker goes below everything.
  std::size_t max_layer = 0;
  for (const auto& [node, l] : layer) {
    if (node != Dfg::end_node()) max_layer = std::max(max_layer, l);
  }
  if (layer.contains(Dfg::end_node())) layer[Dfg::end_node()] = max_layer + 1;
  return layer;
}

inline std::vector<std::string> label_lines_for(const Activity& a, const IoStatistics* stats,
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

}  // namespace reference

inline Layout layout_dfg_reference(const Dfg& g, const IoStatistics* stats,
                                   const LayoutOptions& opts = {}) {
  Layout out;
  if (g.nodes().empty()) return out;

  const auto layers = reference::assign_layers(g);
  std::size_t max_layer = 0;
  for (const auto& [node, l] : layers) max_layer = std::max(max_layer, l);

  // Group nodes by layer (deterministic start order: map order).
  std::vector<std::vector<Activity>> rows(max_layer + 1);
  for (const auto& [node, l] : layers) rows[l].push_back(node);

  // Barycenter sweeps: order each row by the mean position of its
  // neighbours in the previous row (downward), then upward.
  std::map<Activity, double> pos;
  for (auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) pos[row[i]] = static_cast<double>(i);
  }
  const auto neighbors_mean = [&](const Activity& node, bool upward) {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& [edge, count] : g.edges()) {
      const auto& [from, to] = edge;
      if (upward ? from == node : to == node) {
        const Activity& other = upward ? to : from;
        if (layers.at(other) != layers.at(node)) {
          sum += pos[other];
          ++n;
        }
      }
    }
    return n == 0 ? pos[node] : sum / static_cast<double>(n);
  };
  for (std::size_t sweep = 0; sweep < opts.barycenter_sweeps; ++sweep) {
    const bool upward = sweep % 2 == 1;
    for (auto& row : rows) {
      std::stable_sort(row.begin(), row.end(), [&](const Activity& a, const Activity& b) {
        return neighbors_mean(a, upward) < neighbors_mean(b, upward);
      });
      for (std::size_t i = 0; i < row.size(); ++i) pos[row[i]] = static_cast<double>(i);
    }
  }

  // Size the boxes, place rows centered on the widest row.
  std::vector<std::vector<NodeBox>> boxed(rows.size());
  double max_row_width = 0;
  for (std::size_t l = 0; l < rows.size(); ++l) {
    double row_width = 0;
    for (const auto& node : rows[l]) {
      NodeBox box;
      box.activity = node;
      box.label_lines = reference::label_lines_for(node, stats, opts.show_stats);
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

  double y = opts.layer_gap / 2;
  for (auto& row : boxed) {
    double row_width = 0;
    double row_height = 0;
    for (const auto& box : row) {
      row_width += box.width;
      row_height = std::max(row_height, box.height);
    }
    if (!row.empty()) row_width += static_cast<double>(row.size() - 1) * opts.node_gap;
    double x = (max_row_width - row_width) / 2 + opts.node_gap;
    for (auto& box : row) {
      box.x = x;
      box.y = y;
      x += box.width + opts.node_gap;
      out.nodes.push_back(box);
    }
    y += row_height + opts.layer_gap;
  }
  out.width = max_row_width + 2 * opts.node_gap;
  out.height = y;

  for (const auto& [edge, count] : g.edges()) {
    EdgeGeom geom;
    geom.from = edge.first;
    geom.to = edge.second;
    geom.count = count;
    geom.self_loop = edge.first == edge.second;
    geom.back_edge = !geom.self_loop && layers.at(edge.second) <= layers.at(edge.first);
    out.edges.push_back(std::move(geom));
  }
  return out;
}

namespace reference {

inline std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

inline std::string num(double v) { return format_fixed(v, 1); }

inline void draw_node(std::string& svg, const NodeBox& box, const Styler* styler,
                      const LayoutOptions& layout) {
  std::string fill = "#FFFFFF";
  std::string fontcolor = "black";
  if (styler != nullptr) {
    const NodeStyle style = styler->node_style(box.activity);
    if (!style.fill.empty()) fill = style.fill;
    if (!style.fontcolor.empty()) fontcolor = style.fontcolor;
  }
  const bool marker = box.activity == Dfg::start_node() || box.activity == Dfg::end_node();
  if (marker) {
    if (box.activity == Dfg::start_node()) {
      svg += "<circle cx=\"" + num(box.cx()) + "\" cy=\"" + num(box.cy()) + "\" r=\"9\" fill=\"black\"/>\n";
    } else {
      svg += "<rect x=\"" + num(box.cx() - 8) + "\" y=\"" + num(box.cy() - 8) +
             "\" width=\"16\" height=\"16\" fill=\"black\"/>\n";
    }
    return;
  }
  svg += "<rect x=\"" + num(box.x) + "\" y=\"" + num(box.y) + "\" width=\"" + num(box.width) +
         "\" height=\"" + num(box.height) + "\" rx=\"6\" fill=\"" + fill +
         "\" stroke=\"#333333\"/>\n";
  double ty = box.y + layout.node_padding + layout.line_height * 0.75;
  for (const auto& line : box.label_lines) {
    svg += "<text x=\"" + num(box.cx()) + "\" y=\"" + num(ty) +
           "\" text-anchor=\"middle\" font-family=\"monospace\" font-size=\"11\" fill=\"" +
           fontcolor + "\">" + xml_escape(line) + "</text>\n";
    ty += layout.line_height;
  }
}

inline void draw_edge(std::string& svg, const Layout& layout, const EdgeGeom& edge,
                      const Styler* styler) {
  const NodeBox* from = layout.find(edge.from);
  const NodeBox* to = layout.find(edge.to);
  if (from == nullptr || to == nullptr) return;
  std::string color = "#555555";
  if (styler != nullptr) {
    if (const std::string c = styler->edge_color(edge.from, edge.to); !c.empty()) color = c;
  }
  const std::string label = std::to_string(edge.count);

  if (edge.self_loop) {
    // Side arc on the right edge of the box.
    const double x = from->x + from->width;
    const double y = from->cy();
    svg += "<path d=\"M " + num(x) + " " + num(y - 8) + " C " + num(x + 26) + " " + num(y - 14) +
           ", " + num(x + 26) + " " + num(y + 14) + ", " + num(x) + " " + num(y + 8) +
           "\" fill=\"none\" stroke=\"" + color + "\" marker-end=\"url(#arrow)\"/>\n";
    svg += "<text x=\"" + num(x + 30) + "\" y=\"" + num(y + 4) +
           "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
           "</text>\n";
    return;
  }

  const double x1 = from->cx();
  const double y1 = from->y + from->height;
  const double x2 = to->cx();
  const double y2 = to->y;
  if (edge.back_edge) {
    // Route around the left side.
    const double detour = std::min(from->x, to->x) - 24;
    svg += "<path d=\"M " + num(from->x) + " " + num(from->cy()) + " C " + num(detour) + " " +
           num(from->cy()) + ", " + num(detour) + " " + num(to->cy()) + ", " + num(to->x) + " " +
           num(to->cy()) + "\" fill=\"none\" stroke=\"" + color +
           "\" stroke-dasharray=\"4 2\" marker-end=\"url(#arrow)\"/>\n";
    svg += "<text x=\"" + num(detour + 4) + "\" y=\"" + num((from->cy() + to->cy()) / 2) +
           "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
           "</text>\n";
    return;
  }
  const double midy = (y1 + y2) / 2;
  svg += "<path d=\"M " + num(x1) + " " + num(y1) + " C " + num(x1) + " " + num(midy) + ", " +
         num(x2) + " " + num(midy) + ", " + num(x2) + " " + num(y2) +
         "\" fill=\"none\" stroke=\"" + color + "\" marker-end=\"url(#arrow)\"/>\n";
  svg += "<text x=\"" + num((x1 + x2) / 2 + 4) + "\" y=\"" + num(midy) +
         "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
         "</text>\n";
}

}  // namespace reference

inline std::string render_svg_reference(const Dfg& g, const IoStatistics* stats,
                                        const Styler* styler, const SvgOptions& opts = {}) {
  const Layout layout = layout_dfg_reference(g, stats, opts.layout);
  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    reference::num(layout.width) + "\" height=\"" +
                    reference::num(layout.height) + "\" viewBox=\"0 0 " +
                    reference::num(layout.width) + " " + reference::num(layout.height) + "\">\n";
  svg += "<title>" + reference::xml_escape(opts.title) + "</title>\n";
  svg +=
      "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
      "markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">"
      "<path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#555555\"/></marker></defs>\n";
  svg += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  // Edges below nodes.
  for (const auto& edge : layout.edges) reference::draw_edge(svg, layout, edge, styler);
  for (const auto& box : layout.nodes) reference::draw_node(svg, box, styler, opts.layout);
  svg += "</svg>\n";
  return svg;
}

}  // namespace st::dfg
