#pragma once
// Graph partitioning support for the divide-and-color flow.
//
// After the stage-1 max-cut readout, the MSROPM disables couplings whose
// endpoints locked to different phases (the P_EN mechanism, paper Sec. 3.3).
// Architecturally the fabric then behaves as the disjoint union of the
// induced subgraphs. These helpers express that partition as explicit
// induced subgraphs with id maps and lift per-subgraph labels back; the
// machine builds its coupling mask itself, and model::cut_value counts the
// cut.

#include <cstdint>
#include <vector>

#include "msropm/graph/graph.hpp"

namespace msropm::graph {

/// An induced subgraph plus the mapping back to original node ids.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_original;  // local id -> original id
};

/// Induced subgraphs, one per distinct label value 0..max_label.
[[nodiscard]] std::vector<InducedSubgraph> split_by_labels(
    const Graph& g, const std::vector<std::uint8_t>& labels,
    std::size_t num_labels);

/// Lift a per-subgraph assignment back to original node ids.
/// `local_values[p][i]` is the value of subgraph p's local node i.
[[nodiscard]] std::vector<std::uint8_t> merge_labels(
    std::size_t num_nodes, const std::vector<InducedSubgraph>& parts,
    const std::vector<std::vector<std::uint8_t>>& local_values);

}  // namespace msropm::graph
