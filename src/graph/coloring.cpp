#include "msropm/graph/coloring.hpp"

#include <algorithm>
#include <stdexcept>

#include "msropm/obs/obs.hpp"

namespace msropm::graph {

std::size_t count_conflicts(const Graph& g, const Coloring& colors) {
  if (colors.size() != g.num_nodes()) {
    throw std::invalid_argument("count_conflicts: coloring size mismatch");
  }
  static const obs::MetricId verify_timer = obs::timer("graph.verify");
  obs::Span span("graph.verify", verify_timer);
  span.arg("edges", g.num_edges());
  std::size_t conflicts = 0;
  for (const Edge& e : g.edges()) {
    conflicts += (colors[e.u] == colors[e.v]) ? 1 : 0;
  }
  return conflicts;
}

std::size_t count_satisfied_edges(const Graph& g, const Coloring& colors) {
  return g.num_edges() - count_conflicts(g, colors);
}

double coloring_accuracy(const Graph& g, const Coloring& colors) {
  if (g.num_edges() == 0) return 1.0;
  return static_cast<double>(count_satisfied_edges(g, colors)) /
         static_cast<double>(g.num_edges());
}

bool is_proper_coloring(const Graph& g, const Coloring& colors,
                        std::size_t num_colors) {
  if (colors.size() != g.num_nodes()) return false;
  for (Color c : colors) {
    if (c >= num_colors) return false;
  }
  return count_conflicts(g, colors) == 0;
}

std::size_t colors_used(const Coloring& colors) {
  std::vector<std::uint8_t> seen(256, 0);
  std::size_t used = 0;
  for (Color c : colors) {
    if (!seen[c]) {
      seen[c] = 1;
      ++used;
    }
  }
  return used;
}

std::vector<EdgeId> conflicting_edges(const Graph& g, const Coloring& colors) {
  if (colors.size() != g.num_nodes()) {
    throw std::invalid_argument("conflicting_edges: coloring size mismatch");
  }
  std::vector<EdgeId> bad;
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (colors[edges[e].u] == colors[edges[e].v]) {
      bad.push_back(static_cast<EdgeId>(e));
    }
  }
  return bad;
}

Coloring kings_graph_pattern_coloring(std::size_t rows, std::size_t cols) {
  Coloring colors(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      colors[r * cols + c] = static_cast<Color>(2 * (r % 2) + (c % 2));
    }
  }
  return colors;
}

}  // namespace msropm::graph
