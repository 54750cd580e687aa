#include "msropm/sat/coloring_encoder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace msropm::sat {

graph::Coloring ColoringEncoding::decode(
    const std::vector<std::uint8_t>& model) const {
  graph::Coloring colors(num_nodes, 0);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    bool found = false;
    for (unsigned c = 0; c < num_colors; ++c) {
      if (model.at(var_of(v, c))) {
        colors[v] = static_cast<graph::Color>(c);
        found = true;
        break;
      }
    }
    // Every model of the encoding satisfies the node's at-least-one clause,
    // so a node with no true color variable means the model is not a model
    // of this encoding (solver or plumbing bug). Assigning color 0 here, as
    // this used to do, would mask that as a plausible-looking coloring.
    if (!found) {
      throw std::logic_error(
          "ColoringEncoding::decode: no color variable true for node " +
          std::to_string(v) + " — model does not satisfy the encoding");
    }
  }
  return colors;
}

std::vector<graph::NodeId> greedy_clique(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return {};
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](graph::NodeId a, graph::NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  std::vector<graph::NodeId> clique;
  for (graph::NodeId v : order) {
    const bool compatible = std::all_of(
        clique.begin(), clique.end(),
        [&](graph::NodeId u) { return g.has_edge(u, v); });
    if (compatible) clique.push_back(v);
  }
  std::sort(clique.begin(), clique.end());
  return clique;
}

ColoringEncoding encode_coloring(const graph::Graph& g, unsigned num_colors,
                                 ColoringEncodeOptions options) {
  if (num_colors == 0 || num_colors > 255) {
    throw std::invalid_argument("encode_coloring: num_colors = " +
                                std::to_string(num_colors) +
                                " outside [1, 255]");
  }
  ColoringEncoding enc;
  enc.num_nodes = g.num_nodes();
  enc.num_colors = num_colors;
  enc.cnf = Cnf(g.num_nodes() * num_colors);

  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    Clause at_least_one;
    at_least_one.reserve(num_colors);
    for (unsigned c = 0; c < num_colors; ++c) {
      at_least_one.push_back(pos(enc.var_of(v, c)));
    }
    enc.cnf.add_clause(std::move(at_least_one));
  }
  for (const graph::Edge& e : g.edges()) {
    for (unsigned c = 0; c < num_colors; ++c) {
      enc.cnf.add_binary(neg(enc.var_of(e.u, c)), neg(enc.var_of(e.v, c)));
    }
  }
  if (options.symmetry_breaking) {
    const auto clique = greedy_clique(g);
    const auto fixable = std::min<std::size_t>(clique.size(), num_colors);
    for (std::size_t i = 0; i < fixable; ++i) {
      enc.cnf.add_unit(pos(enc.var_of(clique[i], static_cast<unsigned>(i))));
    }
  }
  return enc;
}

std::optional<graph::Coloring> solve_exact_coloring(
    const graph::Graph& g, unsigned num_colors,
    ColoringEncodeOptions encode_options, SolverOptions solver_options) {
  auto outcome = solve_exact_coloring_detailed(g, num_colors, encode_options,
                                               solver_options);
  return std::move(outcome.coloring);
}

ExactColoringOutcome solve_exact_coloring_detailed(
    const graph::Graph& g, unsigned num_colors,
    ColoringEncodeOptions encode_options, SolverOptions solver_options) {
  const ColoringEncoding enc = encode_coloring(g, num_colors, encode_options);
  Solver solver(enc.cnf, solver_options);
  ExactColoringOutcome outcome;
  outcome.result = solver.solve();
  outcome.solver_stats = solver.stats();
  if (outcome.result == SolveResult::kSat) {
    outcome.coloring = enc.decode(solver.model());
  }
  return outcome;
}

// chromatic_number lives in incremental_coloring.cpp: it is implemented on
// top of the incremental assumption-based sweep (see chromatic_search).

}  // namespace msropm::sat
