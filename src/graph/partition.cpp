#include "msropm/graph/partition.hpp"

#include <stdexcept>

namespace msropm::graph {

std::vector<InducedSubgraph> split_by_labels(const Graph& g,
                                             const std::vector<std::uint8_t>& labels,
                                             std::size_t num_labels) {
  if (labels.size() != g.num_nodes()) {
    throw std::invalid_argument("split_by_labels: label size mismatch");
  }
  constexpr NodeId kAbsent = ~NodeId{0};
  std::vector<InducedSubgraph> parts(num_labels);
  std::vector<NodeId> local_id(g.num_nodes(), kAbsent);
  std::vector<std::size_t> sizes(num_labels, 0);
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    const std::uint8_t lab = labels[u];
    if (lab >= num_labels) throw std::invalid_argument("split_by_labels: label out of range");
    local_id[u] = static_cast<NodeId>(sizes[lab]++);
  }
  std::vector<GraphBuilder> builders;
  builders.reserve(num_labels);
  for (std::size_t p = 0; p < num_labels; ++p) {
    builders.emplace_back(sizes[p]);
    parts[p].to_original.resize(sizes[p]);
  }
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    parts[labels[u]].to_original[local_id[u]] = static_cast<NodeId>(u);
  }
  for (const Edge& e : g.edges()) {
    if (labels[e.u] == labels[e.v]) {
      builders[labels[e.u]].add_edge(local_id[e.u], local_id[e.v]);
    }
  }
  for (std::size_t p = 0; p < num_labels; ++p) {
    parts[p].graph = builders[p].build();
  }
  return parts;
}

}  // namespace msropm::graph
