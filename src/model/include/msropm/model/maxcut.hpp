#pragma once
// Max-cut objective. Stage 1 of the MSROPM *is* a max-cut solve on the full
// graph (paper Sec. 3.1), and stage 2 is a pair of max-cut solves on the
// induced partitions, so cut bookkeeping is central to the reproduction.

#include <cstdint>
#include <vector>

#include "msropm/graph/graph.hpp"
#include "msropm/model/ising.hpp"

namespace msropm::model {

/// Side assignment for a cut: 0 or 1 per node.
using CutAssignment = std::vector<std::uint8_t>;

/// Number of edges whose endpoints carry different labels. Counts a 2-way
/// cut and a K-way cut (KCutAssignment) alike; for a K-way partition it
/// equals the number of *satisfied* edges of the same assignment read as a
/// K-coloring, which is why the MSROPM solves both problems with one flow.
[[nodiscard]] std::size_t cut_value(const graph::Graph& g, const CutAssignment& sides);

/// Exact maximum cut by exhaustive search. Only feasible for
/// g.num_nodes() <= ~24; throws std::invalid_argument beyond 26 nodes.
[[nodiscard]] std::pair<std::size_t, CutAssignment> max_cut_bruteforce(
    const graph::Graph& g);

/// Spins of a cut (side 0 -> +1, side 1 -> -1). Under the uniform
/// anti-ferromagnetic Ising model (J = -1) their energy is m - 2*cut: each
/// cut edge contributes -1, each uncut edge +1.
[[nodiscard]] std::vector<Spin> spins_from_cut(const CutAssignment& sides);

// --- max-K-cut (the Potts-native COP the paper names alongside coloring) --

/// K-way partition labels: one value in [0, K) per node. Max-K-cut
/// maximizes cut_value() over these.
using KCutAssignment = std::vector<std::uint8_t>;

/// Exact maximum K-cut by exhaustive search (K^n states); only feasible for
/// tiny graphs. Throws std::invalid_argument beyond 16 nodes or K > 8.
[[nodiscard]] std::pair<std::size_t, KCutAssignment> max_kcut_bruteforce(
    const graph::Graph& g, unsigned k);

/// Upper bound m*(1 - 1/K) ... the expected cut of a uniform random
/// K-partition is exactly this, so it also lower-bounds the optimum.
[[nodiscard]] double kcut_random_expectation(const graph::Graph& g, unsigned k);

}  // namespace msropm::model
