#include "msropm/solvers/sa_potts.hpp"

#include <cmath>
#include <stdexcept>

namespace msropm::solvers {

namespace {

constexpr double kStartTemperature = 2.0;  ///< conflict units
constexpr double kEndTemperature = 0.02;

/// Conflicts node u would have with color c.
std::size_t node_conflicts(const graph::Graph& g, const graph::Coloring& colors,
                           graph::NodeId u, graph::Color c) {
  std::size_t count = 0;
  for (graph::NodeId v : g.neighbors(u)) {
    if (colors[v] == c) ++count;
  }
  return count;
}

}  // namespace

SaPottsResult solve_sa_potts(const graph::Graph& g, const SaPottsOptions& options,
                             util::Rng& rng) {
  if (options.num_colors < 2) throw std::invalid_argument("sa_potts: K >= 2");

  const std::size_t n = g.num_nodes();
  graph::Coloring colors(n);
  for (auto& c : colors) {
    c = static_cast<graph::Color>(rng.uniform_index(options.num_colors));
  }

  SaPottsResult result;
  if (n == 0) return result;
  const double cooling =
      options.sweeps > 1
          ? std::pow(kEndTemperature / kStartTemperature,
                     1.0 / static_cast<double>(options.sweeps - 1))
          : 1.0;

  double temperature = kStartTemperature;
  for (std::size_t sweep = 0; sweep < options.sweeps && !result.cancelled;
       ++sweep) {
    for (std::size_t step = 0; step < n; ++step) {
      if ((step & 255) == 0 && options.stop.stop_requested()) {
        result.cancelled = true;
        break;
      }
      const auto u = static_cast<graph::NodeId>(rng.uniform_index(n));
      const auto old_color = colors[u];
      auto new_color = static_cast<graph::Color>(
          rng.uniform_index(options.num_colors - 1));
      if (new_color >= old_color) ++new_color;  // uniform among others
      const auto before = node_conflicts(g, colors, u, old_color);
      const auto after = node_conflicts(g, colors, u, new_color);
      const double delta =
          static_cast<double>(after) - static_cast<double>(before);
      ++result.proposed_moves;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
        colors[u] = new_color;
        ++result.accepted_moves;
      }
    }
    temperature *= cooling;
  }

  if (!result.cancelled) {
    // Zero-temperature polish: move each node to its least-conflicting color.
    bool improved = true;
    std::size_t rounds = 0;
    while (improved && rounds < 32) {
      improved = false;
      ++rounds;
      for (graph::NodeId u = 0; u < n; ++u) {
        const auto current = node_conflicts(g, colors, u, colors[u]);
        if (current == 0) continue;
        for (unsigned c = 0; c < options.num_colors; ++c) {
          if (c == colors[u]) continue;
          if (node_conflicts(g, colors, u, static_cast<graph::Color>(c)) <
              current) {
            colors[u] = static_cast<graph::Color>(c);
            improved = true;
            break;
          }
        }
      }
    }
  }

  result.conflicts = graph::count_conflicts(g, colors);
  result.colors = std::move(colors);
  return result;
}

MaxCutResult best_known_maxcut(const graph::Graph& g, std::size_t restarts,
                               util::Rng& rng) {
  SaPottsOptions options;
  options.num_colors = 2;
  MaxCutResult best;
  for (std::size_t r = 0; r < restarts; ++r) {
    SaPottsResult anneal = solve_sa_potts(g, options, rng);
    const std::size_t cut = g.num_edges() - anneal.conflicts;  // uncut = conflicts
    if (r == 0 || cut > best.cut) best = {std::move(anneal.colors), cut};
  }
  return best;
}

}  // namespace msropm::solvers
