// Tests for partition support (induced subgraphs and their id maps).
#include "msropm/graph/partition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"

namespace {

using namespace msropm::graph;

TEST(SplitByLabels, ProducesInducedSubgraphs) {
  const Graph g = cycle_graph(6);
  const std::vector<std::uint8_t> labels{0, 0, 0, 1, 1, 1};
  const auto parts = split_by_labels(g, labels, 2);
  ASSERT_EQ(parts.size(), 2u);
  // Each side keeps its 2 internal path edges; 2 edges crossed.
  EXPECT_EQ(parts[0].graph.num_nodes(), 3u);
  EXPECT_EQ(parts[0].graph.num_edges(), 2u);
  EXPECT_EQ(parts[1].graph.num_edges(), 2u);
  EXPECT_EQ(parts[0].to_original.size(), 3u);
  EXPECT_EQ(parts[0].to_original[0], 0u);
  EXPECT_EQ(parts[1].to_original[0], 3u);
}

TEST(SplitByLabels, EmptyPartitionAllowed) {
  const Graph g = path_graph(3);
  const auto parts = split_by_labels(g, {0, 0, 0}, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].graph.num_nodes(), 3u);
  EXPECT_EQ(parts[1].graph.num_nodes(), 0u);
}

TEST(SplitByLabels, LabelOutOfRangeThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW(split_by_labels(g, {0, 2, 0}, 2), std::invalid_argument);
}

TEST(Partition, IdMapsLiftPartValuesBack) {
  const Graph g = kings_graph(4, 4);
  // Split by column parity.
  std::vector<std::uint8_t> labels(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) labels[r * 4 + c] = c % 2;
  }
  const auto parts = split_by_labels(g, labels, 2);
  // Give each part a constant value and lift it through the id maps: every
  // original node is covered exactly once, by the part of its own label.
  const std::uint8_t part_value[2] = {7, 9};
  std::vector<std::uint8_t> lifted(16, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    ASSERT_EQ(parts[p].to_original.size(), parts[p].graph.num_nodes());
    for (NodeId original : parts[p].to_original) {
      EXPECT_EQ(lifted[original], 0) << "node " << original << " lifted twice";
      lifted[original] = part_value[p];
    }
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(lifted[i], labels[i] == 0 ? 7 : 9);
  }
}

TEST(Partition, SplitKeepsExactlyTheIntraPartitionEdges) {
  // Edges whose endpoints share a label survive in the induced subgraphs;
  // edges across the cut vanish.
  const Graph g = kings_graph(3, 3);
  const std::vector<std::uint8_t> labels{0, 1, 0, 1, 0, 1, 0, 1, 0};
  std::size_t kept = 0;
  for (const Edge& e : g.edges()) kept += labels[e.u] == labels[e.v] ? 1 : 0;
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, g.num_edges());
  const auto parts = split_by_labels(g, labels, 2);
  EXPECT_EQ(parts[0].graph.num_edges() + parts[1].graph.num_edges(), kept);
}

}  // namespace
