#pragma once
// Incremental assumption-based chromatic search.
//
// The chromatic-number sweep is the headline SAT workload of the paper's
// baseline: decide K-colorability for K = lb, lb+1, ... until SAT. The old
// implementation re-encoded and re-solved from scratch at every K, throwing
// away every learnt clause. IncrementalColoringSolver instead encodes ONE
// formula with the largest palette and switches colors off per query through
// per-color activation literals:
//
//   - the direct encoding (coloring_encoder.hpp) is built once for
//     max_colors colors;
//   - every color c in [min_colors, max_colors) gets a selector variable
//     s_c ("color c is enabled") and one activation clause per node,
//     (~x_{v,c} | s_c), i.e. x_{v,c} -> s_c;
//   - "is the graph k-colorable?" is then one incremental solver call under
//     the assumptions { s_c : c < k } ∪ { ~s_c : c >= k }: assuming ~s_c
//     unit-propagates every x_{v,c} to false, which disables color c without
//     touching the clause database.
//
// Because the formula never changes, the solver keeps its learnt clauses,
// variable activities and saved phases across the whole sweep (the
// multi-shot Solver contract) — the UNSAT rounds below the chromatic number
// prime the SAT round instead of being discarded.
//
// Colors below min_colors can never be switched off and get neither a
// selector nor activation clauses: a caller that knows a clique lower bound
// (chromatic_search seeds at the greedy-clique size) pays zero activation
// overhead for the colors every query keeps enabled.

#include <cstddef>
#include <optional>
#include <vector>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::sat {

struct IncrementalColoringOptions {
  /// Colors below this bound are always enabled (no selector variable, no
  /// activation clauses). solve_k(k) requires min_colors <= k <= max_colors.
  unsigned min_colors = 1;
  /// Pin a greedy clique's colors (same knob as ColoringEncodeOptions).
  bool symmetry_breaking = true;
  /// Solver profile for the whole sweep.
  SolverOptions solver = {};
};

/// One encoding, one solver, many K queries. The graph must outlive this
/// object (it is consulted to verify decoded colorings).
class IncrementalColoringSolver {
 public:
  IncrementalColoringSolver(const graph::Graph& g, unsigned max_colors,
                            IncrementalColoringOptions options = {});

  /// Decide k-colorability (min_colors <= k <= max_colors) as one
  /// incremental solve under color-activation assumptions. kSat fills
  /// coloring() with a verified proper coloring using colors < k; kUnknown
  /// means the stop token fired or the per-call conflict limit was hit (the
  /// solver stays usable — call again). Throws std::invalid_argument for a
  /// k outside [min_colors, max_colors].
  [[nodiscard]] SolveResult solve_k(unsigned k);

  /// Proper coloring found by the last kSat solve_k call.
  [[nodiscard]] const graph::Coloring& coloring() const noexcept {
    return coloring_;
  }

  /// Cumulative solver statistics across every solve_k call — conflicts,
  /// learnt clauses (which persist between calls), propagations, ...
  [[nodiscard]] const SolverStats& stats() const noexcept;
  /// True when the last solve_k was interrupted by the stop token.
  [[nodiscard]] bool cancelled() const noexcept;
  /// True once the base formula (full palette) is refuted: every further
  /// solve_k is kUnsat, i.e. the graph is not even max_colors-colorable.
  [[nodiscard]] bool formula_unsat() const noexcept;
  /// Failed-assumption core of the last kUnsat solve_k (selector literals).
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const noexcept;

  [[nodiscard]] unsigned max_colors() const noexcept { return max_colors_; }
  [[nodiscard]] unsigned min_colors() const noexcept { return min_colors_; }
  [[nodiscard]] std::size_t solve_calls() const noexcept { return solve_calls_; }

 private:
  const graph::Graph* g_;
  unsigned max_colors_;
  unsigned min_colors_;
  ColoringEncoding enc_;
  std::vector<Var> selectors_;  // s_c for c in [min_colors_, max_colors_)
  std::vector<Lit> assumptions_;  // per-call scratch
  graph::Coloring coloring_;
  std::size_t solve_calls_ = 0;
  // optional<> only for deferred construction (the CNF must be built first);
  // engaged for the object's whole life after the constructor.
  std::optional<Solver> solver_;
};

/// Knobs for chromatic_search (chromatic_number uses the defaults).
struct ChromaticSearchOptions {
  /// false: fresh encoding + solver per K (the from-scratch baseline the
  /// equivalence tests and bench_chromatic compare against).
  bool incremental = true;
  bool symmetry_breaking = true;
  /// Per-K conflict budget (0 = unlimited); kUnknown aborts the search.
  std::uint64_t conflict_limit = 0;
  /// Per-solve resource budget, forwarded to every solver the sweep builds.
  /// A breach ends the search incomplete with `limit` set in the outcome.
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
  /// Greedy-coloring upper bound capping the sweep (and the encoded palette).
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
  /// legacy conflict_limit/representability caps applied): mirrors the
  /// interrupted solver's SolverStats::limit_reason.
  util::LimitReason limit = util::LimitReason::kNone;
  /// Solver statistics, summed over every solver the search constructed:
  /// the minimal-palette probe plus one multi-shot solver per 2-color chunk
  /// in incremental mode, or the per-K fresh solvers in from-scratch mode
  /// (arena_peak_words is the max, not the sum).
  SolverStats stats;
};

/// Chromatic number by SAT sweep, seeded at the greedy-clique lower bound
/// and capped at a greedy-coloring upper bound. Incremental by default.
[[nodiscard]] ChromaticSearchOutcome chromatic_search(
    const graph::Graph& g, unsigned max_k, ChromaticSearchOptions options = {});

}  // namespace msropm::sat
