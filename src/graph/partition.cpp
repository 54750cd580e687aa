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

std::vector<std::uint8_t> merge_labels(
    std::size_t num_nodes, const std::vector<InducedSubgraph>& parts,
    const std::vector<std::vector<std::uint8_t>>& local_values) {
  if (parts.size() != local_values.size()) {
    throw std::invalid_argument("merge_labels: parts/values size mismatch");
  }
  std::vector<std::uint8_t> merged(num_nodes, 0);
  std::vector<std::uint8_t> seen(num_nodes, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const auto& map = parts[p].to_original;
    const auto& vals = local_values[p];
    if (map.size() != vals.size()) {
      throw std::invalid_argument("merge_labels: local value size mismatch");
    }
    for (std::size_t i = 0; i < map.size(); ++i) {
      if (map[i] >= num_nodes) throw std::invalid_argument("merge_labels: bad id map");
      merged[map[i]] = vals[i];
      seen[map[i]] = 1;
    }
  }
  for (std::size_t u = 0; u < num_nodes; ++u) {
    if (!seen[u]) throw std::invalid_argument("merge_labels: node not covered");
  }
  return merged;
}

}  // namespace msropm::graph
