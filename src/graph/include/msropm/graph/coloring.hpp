#pragma once
// Coloring assignments and the paper's quality metric.
//
// "The quality of results is assessed by counting the number of edges in the
//  graph that adhere to the coloring rule ... The normalized number of
//  correctly colored neighbors indicates how closely the generated solution
//  approximates the actual solution." (paper Sec. 4)

#include <cstdint>
#include <vector>

#include "msropm/graph/graph.hpp"

namespace msropm::graph {

using Color = std::uint8_t;
using Coloring = std::vector<Color>;

/// Number of edges whose endpoints share a color (violations). This is the
/// one verification pass every check below runs; it publishes the gated obs
/// timer `graph.verify`.
[[nodiscard]] std::size_t count_conflicts(const Graph& g, const Coloring& colors);

/// Number of properly colored edges.
[[nodiscard]] std::size_t count_satisfied_edges(const Graph& g, const Coloring& colors);

/// The paper's accuracy metric: satisfied edges / total edges. Defined as
/// 1.0 for an edgeless graph.
[[nodiscard]] double coloring_accuracy(const Graph& g, const Coloring& colors);

/// True when no edge is monochromatic and every color is < num_colors.
[[nodiscard]] bool is_proper_coloring(const Graph& g, const Coloring& colors,
                                      std::size_t num_colors);

/// Number of distinct colors actually used.
[[nodiscard]] std::size_t colors_used(const Coloring& colors);

/// List of conflicting edge ids (for diagnostics / repair heuristics).
[[nodiscard]] std::vector<EdgeId> conflicting_edges(const Graph& g,
                                                    const Coloring& colors);

/// Reference proper 4-coloring of a rows x cols King's graph via the 2x2
/// block pattern color(r,c) = 2*(r%2) + (c%2). Used as a known-optimum
/// fixture in tests and to bound max-cut references.
[[nodiscard]] Coloring kings_graph_pattern_coloring(std::size_t rows, std::size_t cols);

}  // namespace msropm::graph
