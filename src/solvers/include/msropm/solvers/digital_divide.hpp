#pragma once
// Digital divide-and-conquer coloring baseline (CPM-style, paper ref. [13]).
//
// Runs the same divide-and-color algorithm as the MSROPM but the way a
// conventional system must: each stage is solved by a software max-cut
// kernel (a K = 2 solve_sa_potts anneal with its default schedule, one per
// sub-problem), and between stages the full system state is explicitly
// saved to and reloaded from "memory", with the graph remapped onto the next
// stage's sub-problems. The tracked transfer/remap volume quantifies the von
// Neumann bottleneck the MSROPM's compute-in-memory operation avoids
// (paper Sec. 3.2).

#include <cstdint>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::solvers {

struct DigitalDivideOptions {
  unsigned num_colors = 4;  ///< power of two
};

struct DigitalDivideResult {
  graph::Coloring colors;
  std::size_t stages = 0;
  /// Bytes moved between solver and memory across stage boundaries
  /// (state save + reload; what SHIL latching eliminates).
  std::size_t bytes_transferred = 0;
  /// Sub-problems re-encoded and re-mapped onto the solver.
  std::size_t remap_operations = 0;
};

[[nodiscard]] DigitalDivideResult solve_digital_divide(
    const graph::Graph& g, const DigitalDivideOptions& options, util::Rng& rng);

}  // namespace msropm::solvers
