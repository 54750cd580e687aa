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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/sat/cnf.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/resource_budget.hpp"
#include "msropm/util/stop_token.hpp"

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
  /// plausible-looking (but invalid) coloring. Publishes the gated obs
  /// timer `sat.decode`.
  [[nodiscard]] graph::Coloring decode(const std::vector<std::uint8_t>& model) const;
};

struct ColoringEncodeOptions {
  /// Greedily find a clique and pre-assign its colors (prunes the color
  /// permutation symmetry; sound because clique nodes must all differ).
  bool symmetry_breaking = true;
};

/// Build the CNF for "g is K-colorable". Throws std::invalid_argument for a
/// num_colors outside [1, 255]: graph::Color is uint8_t, so a larger palette
/// could not be decoded. The clauses are appended to one pre-sized literal
/// pool (no allocation per clause). Publishes the gated obs timer
/// `sat.encode`.
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

/// Knobs for chromatic_search (chromatic_number uses the defaults).
struct ChromaticSearchOptions {
  bool symmetry_breaking = true;
  /// Per-solve resource budget, forwarded to every solver the sweep builds
  /// (budget.max_conflicts is the per-K conflict cap). A breach ends the
  /// search incomplete with `limit` set in the outcome.
  util::ResourceBudget budget = {};
  /// Cooperative cancellation, polled inside every solve.
  util::StopToken stop = {};
};

struct ChromaticSearchOutcome {
  /// The chromatic number; nullopt when it exceeds max_k or the search was
  /// cancelled (check `cancelled` to tell the two apart).
  std::optional<unsigned> chromatic;
  /// Proper witness coloring with *chromatic colors; empty otherwise.
  graph::Coloring coloring;
  /// Greedy-clique lower bound the sweep started at (0 for trivial graphs).
  unsigned lower_bound = 0;
  /// Greedy-coloring upper bound capping the sweep.
  unsigned upper_bound = 0;
  /// SAT queries actually issued (0 when the bounds decided alone).
  std::size_t solve_calls = 0;
  /// True when some solve returned kUnknown (stop token or conflict budget):
  /// `chromatic == nullopt && !incomplete` is then a PROOF that the
  /// chromatic number exceeds max_k; with incomplete set it proves nothing.
  bool incomplete = false;
  /// True when specifically the stop token ended the search.
  bool cancelled = false;
  /// Why the search went incomplete (kNone when it completed or only the
  /// representability cap applied): mirrors the interrupted solver's
  /// SolverStats::limit_reason.
  util::LimitReason limit = util::LimitReason::kNone;
  /// Solver statistics summed over the per-K solvers the sweep built
  /// (arena_peak_words is the max, not the sum).
  SolverStats stats;
};

/// Chromatic number by SAT sweep: seeded at the greedy-clique lower bound,
/// capped at a greedy-coloring upper bound, and one fresh
/// solve_exact_coloring_detailed per K in between, smallest first.
[[nodiscard]] ChromaticSearchOutcome chromatic_search(
    const graph::Graph& g, unsigned max_k, ChromaticSearchOptions options = {});

/// Chromatic number, nullopt when it exceeds max_k (every early return
/// respects the bound: an edgeless graph with max_k == 0 is nullopt). This is
/// chromatic_search with the default options.
[[nodiscard]] std::optional<unsigned> chromatic_number(const graph::Graph& g,
                                                       unsigned max_k = 8);

/// Greedy maximal clique (by degree order); used for symmetry breaking and
/// as a chromatic-number lower bound.
[[nodiscard]] std::vector<graph::NodeId> greedy_clique(const graph::Graph& g);

}  // namespace msropm::sat
