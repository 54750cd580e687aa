#include "msropm/sat/coloring_encoder.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "msropm/obs/obs.hpp"

namespace msropm::sat {

graph::Coloring ColoringEncoding::decode(
    const std::vector<std::uint8_t>& model) const {
  static const obs::MetricId decode_timer = obs::timer("sat.decode");
  obs::Span span("sat.decode", decode_timer);
  span.arg("nodes", num_nodes);
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

namespace {

/// Nodes by decreasing degree, ties by index: the greedy order of both
/// greedy_clique and greedy_coloring_bound.
std::vector<graph::NodeId> degree_order(const graph::Graph& g) {
  // Sort packed (max_degree - degree, id) keys, one integer compare a step.
  const std::uint64_t top = g.max_degree();
  std::vector<std::uint64_t> keys(g.num_nodes());
  for (graph::NodeId v = 0; v < keys.size(); ++v) {
    keys[v] = ((top - g.degree(v)) << 32) | v;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<graph::NodeId> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    order[i] = static_cast<graph::NodeId>(keys[i]);
  }
  return order;
}

/// Greedy coloring in degree order: a cheap, always-valid upper bound on the
/// chromatic number (never worse than max_degree + 1). chromatic_search uses
/// it to cap the sweep, so no K above a known coloring is ever queried.
unsigned greedy_coloring_bound(const graph::Graph& g) {
  constexpr std::uint32_t kUncolored = ~std::uint32_t{0};
  std::vector<std::uint32_t> color(g.num_nodes(), kUncolored);
  std::vector<std::uint8_t> used;
  unsigned bound = 0;
  for (const graph::NodeId v : degree_order(g)) {
    used.assign(bound + 2, 0);
    for (const graph::NodeId u : g.neighbors(v)) {
      if (color[u] != kUncolored) used[color[u]] = 1;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    color[v] = c;
    bound = std::max(bound, static_cast<unsigned>(c) + 1);
  }
  return bound;
}

void accumulate_stats(SolverStats& into, const SolverStats& from) {
  into.decisions += from.decisions;
  into.propagations += from.propagations;
  into.conflicts += from.conflicts;
  into.restarts += from.restarts;
  into.learnt_clauses += from.learnt_clauses;
  into.removed_learnts += from.removed_learnts;
  into.blocker_skips += from.blocker_skips;
  into.binary_propagations += from.binary_propagations;
  into.heap_decisions += from.heap_decisions;
  into.gc_runs += from.gc_runs;
  into.gc_freed_words += from.gc_freed_words;
  into.arena_alloc_words += from.arena_alloc_words;
  into.arena_peak_words = std::max(into.arena_peak_words, from.arena_peak_words);
  if (from.limit_reason != util::LimitReason::kNone) {
    into.limit_reason = from.limit_reason;
  }
}

}  // namespace

std::vector<graph::NodeId> greedy_clique(const graph::Graph& g) {
  std::vector<graph::NodeId> clique;
  for (graph::NodeId v : degree_order(g)) {
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
  static const obs::MetricId encode_timer = obs::timer("sat.encode");
  obs::Span span("sat.encode", encode_timer);
  span.arg("nodes", g.num_nodes());
  span.arg("colors", num_colors);
  ColoringEncoding enc;
  enc.num_nodes = g.num_nodes();
  enc.num_colors = num_colors;
  enc.cnf = Cnf(g.num_nodes() * num_colors);
  // One at-least-one clause per node and one binary per edge and color, plus
  // at most num_colors symmetry-breaking units: the pool is sized once.
  const std::size_t edge_clauses = g.num_edges() * num_colors;
  enc.cnf.reserve(g.num_nodes() + edge_clauses + num_colors,
                  g.num_nodes() * num_colors + 2 * edge_clauses + num_colors);

  std::array<Lit, 255> at_least_one;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (unsigned c = 0; c < num_colors; ++c) {
      at_least_one[c] = pos(enc.var_of(v, c));
    }
    enc.cnf.add_clause(std::span<const Lit>(at_least_one.data(), num_colors));
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

ChromaticSearchOutcome chromatic_search(const graph::Graph& g, unsigned max_k,
                                        ChromaticSearchOptions options) {
  ChromaticSearchOutcome out;
  if (g.num_nodes() == 0) {
    out.chromatic = 0;  // the empty graph is 0-colorable under any bound
    return out;
  }
  if (g.num_edges() == 0) {
    out.lower_bound = 1;
    out.upper_bound = 1;
    // Edgeless needs exactly one color — which still has to fit the bound
    // (max_k == 0 means "no colors allowed" and must stay nullopt).
    if (max_k >= 1) {
      out.chromatic = 1;
      out.coloring.assign(g.num_nodes(), 0);
    }
    return out;
  }
  const auto clique = greedy_clique(g);
  const unsigned lb =
      std::max<unsigned>(2, static_cast<unsigned>(clique.size()));
  out.lower_bound = lb;
  // The clique members are pairwise adjacent, so chromatic >= lb is a
  // certificate: every K below the seed would be a wasted UNSAT solve (on
  // King's graphs, omega = 4 kills the K in {2, 3} rounds outright).
  if (lb > max_k) return out;
  if (lb > 255) {
    // graph::Color is uint8_t, so the palette cannot even be represented.
    // This is a search limitation, NOT a proof that chromatic > max_k.
    out.incomplete = true;
    return out;
  }
  const unsigned uncapped_ub = std::min(max_k, greedy_coloring_bound(g));
  const unsigned ub = std::min(uncapped_ub, 255u);
  out.upper_bound = ub;

  SolverOptions profile;
  profile.budget = options.budget;
  profile.stop = options.stop;
  ColoringEncodeOptions encode_options;
  encode_options.symmetry_breaking = options.symmetry_breaking;
  for (unsigned k = lb; k <= ub; ++k) {
    auto outcome = solve_exact_coloring_detailed(g, k, encode_options, profile);
    ++out.solve_calls;
    accumulate_stats(out.stats, outcome.solver_stats);
    if (outcome.result == SolveResult::kSat) {
      out.chromatic = k;
      out.coloring = std::move(*outcome.coloring);
      break;
    }
    if (outcome.result == SolveResult::kUnknown) {
      // kUnknown is either the stop token or the per-K conflict budget.
      out.incomplete = true;
      out.cancelled = options.stop.stop_requested();
      out.limit = outcome.solver_stats.limit_reason;
      break;
    }
  }
  // When the uint8_t representability cap (not max_k or the greedy bound)
  // truncated the sweep, an exhausted search proves nothing about max_k.
  if (!out.chromatic && ub < uncapped_ub) out.incomplete = true;
  return out;
}

std::optional<unsigned> chromatic_number(const graph::Graph& g,
                                         unsigned max_k) {
  return chromatic_search(g, max_k).chromatic;
}

}  // namespace msropm::sat
