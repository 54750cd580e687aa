#pragma once
// Exact max-cut by branch and bound.
//
// The Fig. 5(b) stage-1 accuracy metric needs a max-cut reference. The
// paper normalizes against heuristics for large instances; for small and
// mid-size instances this solver produces the *provable* optimum, which
// upgrades the reference from "best SA run" to ground truth (and bounds the
// SA error itself in tests).
//
// Algorithm: depth-first branch and bound over side assignments in a fixed
// high-degree-first vertex order. The admissible bound for a partial
// assignment counts (a) the cut edges already decided, (b) every edge
// between two unassigned vertices (each could still be cut), and (c) for
// each unassigned vertex the larger of its edge counts into the two
// assigned sides (the best side choice it could still make). The first
// vertex is pinned to side 0 (cut symmetry).
//
// Practical reach: dense ~30 nodes, sparse lattices ~60+ nodes in well
// under a second; beyond that use best_known_maxcut (sa_potts.hpp).

#include <cstdint>
#include <vector>

#include "msropm/graph/graph.hpp"
#include "msropm/model/maxcut.hpp"

namespace msropm::solvers {

struct MaxCutBbOptions {
  /// Abort knob: stop after this many search nodes (0 = unlimited). When
  /// the limit is hit the result is the best cut found but is no longer
  /// certified optimal.
  std::uint64_t node_limit = 0;
};

struct MaxCutBbResult {
  model::CutAssignment sides;
  std::size_t cut = 0;
  bool optimal = false;          ///< search ran to completion
  std::uint64_t nodes_explored = 0;
};

/// Exact max-cut (subject to options.node_limit).
[[nodiscard]] MaxCutBbResult solve_maxcut_bb(const graph::Graph& g,
                                             MaxCutBbOptions options = {});

}  // namespace msropm::solvers
