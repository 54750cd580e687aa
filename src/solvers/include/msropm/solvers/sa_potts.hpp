#pragma once
// Simulated-annealing Potts (K-coloring) solver, and the max-cut annealer.
//
// Classic single-spin-flip Metropolis annealing over the Potts Hamiltonian
// (conflict count): a geometric schedule from T = 2.0 to 0.02 conflict units,
// then a zero-temperature polish. Serves as the software baseline the
// hardware Ising/Potts machine literature compares against (Table 2 cites SA
// as the baseline of the RTWOIM row).
//
// At K = 2 a coloring is a bipartition and its conflicts are exactly the
// uncut edges (cut = m - conflicts), so the same loop is the repo's one
// max-cut annealer: best_known_maxcut() below generates the reference cuts
// that normalize the Fig. 5(b) and Table 2 K = 2 accuracies on instances too
// large for exact search, the digital divide-and-conquer baseline solves
// each stage with it, and maxcut_bb takes its incumbent from it.

#include <cstdint>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::solvers {

struct SaPottsOptions {
  unsigned num_colors = 4;
  std::size_t sweeps = 400;    ///< full-lattice sweeps
  /// Cooperative cancellation, polled every 256 proposed moves; when it
  /// fires the anneal stops (the greedy polish is skipped) and the current
  /// assignment is returned with cancelled set.
  util::StopToken stop = {};
};

struct SaPottsResult {
  graph::Coloring colors;
  std::size_t conflicts = 0;
  std::size_t accepted_moves = 0;
  std::size_t proposed_moves = 0;
  bool cancelled = false;  ///< options.stop interrupted the anneal
};

/// Anneal from a random assignment.
[[nodiscard]] SaPottsResult solve_sa_potts(const graph::Graph& g,
                                           const SaPottsOptions& options,
                                           util::Rng& rng);

struct MaxCutResult {
  model::CutAssignment sides;
  std::size_t cut = 0;
};

/// Best cut over `restarts` independent K = 2 anneals with the default
/// schedule (the reference generator).
[[nodiscard]] MaxCutResult best_known_maxcut(const graph::Graph& g,
                                             std::size_t restarts,
                                             util::Rng& rng);

}  // namespace msropm::solvers
