#pragma once
// DSATUR greedy coloring (Brelaz 1979): color nodes in order of saturation
// degree. Deterministic, fast; used as the quick software reference and to
// sanity-check instance colorability in examples.
//
// Order: each round colors the uncolored node with the most distinct colors
// among its neighbors (saturation); ties go to the larger degree, then to the
// smaller node id. It gets the smallest color no neighbor uses.
//
// Cost: O((n + m) log n) time and O(n + m) memory for n nodes and m edges.
// Uncolored nodes wait in a max-heap keyed on (saturation, degree, -id); the
// degree and id enter as one 32-bit rank, so every NodeId fits. Each node
// keeps its saturation as a 256-bit color mask plus a count. A bounded
// palette adds O(degree + K) for every node that gets no free color.
//
// Palette limit: colors are stored as 8-bit graph::Color, and at most 255
// of them (0..254) are used. A coloring that needs more throws std::runtime_error("dsatur: more than 255
// colors needed"), in both variants unless a bounded palette of at most 255
// caps the colors first. Both publish the gated obs timer `solvers.dsatur`.

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"

namespace msropm::solvers {

struct DsaturResult {
  graph::Coloring colors;
  unsigned colors_used = 0;
};

/// Unbounded palette: always returns a proper coloring.
[[nodiscard]] DsaturResult solve_dsatur(const graph::Graph& g);

/// Bounded palette: colors capped at num_colors; nodes that cannot be
/// properly colored get the least-conflicting color (quality measured by
/// the usual accuracy metric).
[[nodiscard]] DsaturResult solve_dsatur_bounded(const graph::Graph& g,
                                                unsigned num_colors);

}  // namespace msropm::solvers
