#pragma once
// Graph partitioning support for the divide-and-color flow.
//
// After the stage-1 max-cut readout, the MSROPM disables couplings whose
// endpoints locked to different phases (the P_EN mechanism, paper Sec. 3.3).
// Architecturally the fabric then behaves as the disjoint union of the
// induced subgraphs. split_by_labels expresses that partition as explicit
// induced subgraphs, each with the map from its local ids back to original
// ids (the digital divide-and-conquer baseline re-solves each one). The
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

}  // namespace msropm::graph
