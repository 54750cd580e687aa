#pragma once
// K-coloring -> CNF encoding and the exact-coloring baseline used by the
// paper's accuracy metric ("Exact solutions of the problems are computed
// using a generic SAT solver, which serves as the baseline", Sec. 4).
//
// Encoding (direct encoding, one boolean x_{v,c} per node/color):
//   - at-least-one color per node:      (x_v0 | x_v1 | ... | x_v,K-1)
//   - edge constraint per edge/color:   (~x_uc | ~x_vc)
// plus optional symmetry breaking that pins the colors of one maximal clique.
// There are no at-most-one clauses: a model may give a node several colors,
// and decode() keeps the first. The edge clauses forbid two neighbours from
// sharing ANY color, so the first color of each node is a proper coloring
// too, and the formula is K-satisfiable exactly when g is K-colorable.

#include <optional>
#include <vector>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/sat/cnf.hpp"
#include "msropm/sat/solver.hpp"

namespace msropm::sat {

struct ColoringEncoding {
  Cnf cnf;
  std::size_t num_nodes = 0;
  unsigned num_colors = 0;

  /// Variable for "node v has color c".
  [[nodiscard]] Var var_of(graph::NodeId v, unsigned c) const {
    return static_cast<Var>(v * num_colors + c);
  }

  /// Decode a SAT model into a coloring. A node may have several true color
  /// variables; the first one wins, which is proper because the edge clauses
  /// forbid neighbours from sharing any true color. Throws std::logic_error
  /// when some node has NO true color variable — such a model violates the
  /// at-least-one clauses, i.e. it is not a model of this encoding, and
  /// silently assigning color 0 would mask the solver bug as a
  /// plausible-looking (but invalid) coloring.
  [[nodiscard]] graph::Coloring decode(const std::vector<std::uint8_t>& model) const;
};

struct ColoringEncodeOptions {
  /// Greedily find a clique and pre-assign its colors (prunes the color
  /// permutation symmetry; sound because clique nodes must all differ).
  bool symmetry_breaking = true;
};

/// Build the CNF for "g is K-colorable". Throws std::invalid_argument for a
/// num_colors outside [1, 255]: graph::Color is uint8_t, so a larger palette
/// could not be decoded.
[[nodiscard]] ColoringEncoding encode_coloring(const graph::Graph& g,
                                               unsigned num_colors,
                                               ColoringEncodeOptions options = {});

/// Returns SolverOptions{}. Kept only because the frozen perfbench/ calls it
/// (ROADMAP "Benchmark hygiene").
[[nodiscard]] inline SolverOptions exact_coloring_solver_options() {
  return {};
}

/// Solve for an exact proper K-coloring. nullopt when the graph is not
/// K-colorable (or the conflict limit was hit).
[[nodiscard]] std::optional<graph::Coloring> solve_exact_coloring(
    const graph::Graph& g, unsigned num_colors,
    ColoringEncodeOptions encode_options = {},
    SolverOptions solver_options = {});

/// Full outcome of an exact-coloring query, including the search statistics
/// (for benches and the dimacs_solver CLI).
struct ExactColoringOutcome {
  SolveResult result = SolveResult::kUnknown;
  std::optional<graph::Coloring> coloring;  ///< set when result == kSat
  SolverStats solver_stats;
};

[[nodiscard]] ExactColoringOutcome solve_exact_coloring_detailed(
    const graph::Graph& g, unsigned num_colors,
    ColoringEncodeOptions encode_options = {},
    SolverOptions solver_options = {});

/// Chromatic number, nullopt when it exceeds max_k (every early return
/// respects the bound: an edgeless graph with max_k == 0 is nullopt). The
/// search is seeded at the greedy-clique lower bound, capped at a greedy
/// upper bound, and runs incrementally — one solver, one encoding, colors
/// switched off per K via assumptions (see incremental_coloring.hpp, where
/// chromatic_search exposes the knobs and statistics).
[[nodiscard]] std::optional<unsigned> chromatic_number(const graph::Graph& g,
                                                       unsigned max_k = 8);

/// Greedy maximal clique (by degree order); used for symmetry breaking and
/// as a chromatic-number lower bound.
[[nodiscard]] std::vector<graph::NodeId> greedy_clique(const graph::Graph& g);

}  // namespace msropm::sat
