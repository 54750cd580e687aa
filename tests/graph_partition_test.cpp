// Tests for partition support (induced subgraphs, merging).
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

TEST(SplitMergeRoundTrip, RecoversAssignment) {
  const Graph g = kings_graph(4, 4);
  // Split by column parity.
  std::vector<std::uint8_t> labels(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) labels[r * 4 + c] = c % 2;
  }
  const auto parts = split_by_labels(g, labels, 2);
  // Assign each part a constant value and merge.
  std::vector<std::vector<std::uint8_t>> vals(2);
  vals[0].assign(parts[0].graph.num_nodes(), 7);
  vals[1].assign(parts[1].graph.num_nodes(), 9);
  const auto merged = merge_labels(16, parts, vals);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(merged[i], labels[i] == 0 ? 7 : 9);
  }
}

TEST(MergeLabels, DetectsUncoveredNodes) {
  const Graph g = path_graph(4);
  auto parts = split_by_labels(g, {0, 0, 1, 1}, 2);
  parts[1].to_original.pop_back();  // corrupt coverage
  std::vector<std::vector<std::uint8_t>> vals{{1, 1}, {2}};
  EXPECT_THROW(merge_labels(4, parts, vals), std::invalid_argument);
}

TEST(MergeLabels, SizeMismatchThrows) {
  const Graph g = path_graph(2);
  const auto parts = split_by_labels(g, {0, 1}, 2);
  std::vector<std::vector<std::uint8_t>> vals{{1}, {2, 3}};
  EXPECT_THROW(merge_labels(2, parts, vals), std::invalid_argument);
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
