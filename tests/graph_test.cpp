// Tests for the CSR graph core.
#include "msropm/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using msropm::graph::Edge;
using msropm::graph::Graph;
using msropm::graph::GraphBuilder;
using msropm::graph::NodeId;

// ---------------------------------------------------------------------------
// The builder that kept one neighbour vector per node (linear-find duplicate
// check, comparison sort of the edges, a sort per adjacency list), frozen as
// the reference the hash-set / counting-sort builder must reproduce.
// ---------------------------------------------------------------------------

class ReferenceBuilder {
 public:
  explicit ReferenceBuilder(std::size_t n) : n_(n), adj_(n) {}

  bool add_edge(NodeId u, NodeId v) {
    if (u >= n_ || v >= n_) throw std::invalid_argument("GraphBuilder: node id out of range");
    if (u == v) throw std::invalid_argument("GraphBuilder: self-loop rejected");
    if (u > v) std::swap(u, v);
    auto& nbrs = adj_[u];
    if (std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end()) return false;
    nbrs.push_back(v);
    adj_[v].push_back(u);
    edges_.push_back(Edge{u, v});
    return true;
  }

  /// The built graph's edge list: lexicographic.
  [[nodiscard]] std::vector<Edge> edges() const {
    std::vector<Edge> sorted = edges_;
    std::sort(sorted.begin(), sorted.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    return sorted;
  }

  /// The built graph's adjacency lists: ascending.
  [[nodiscard]] std::vector<std::vector<NodeId>> neighbors() const {
    auto lists = adj_;
    for (auto& list : lists) std::sort(list.begin(), list.end());
    return lists;
  }

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
  std::vector<std::vector<NodeId>> adj_;
};

// Message of the std::invalid_argument `add` throws, or "" if it returns.
template <typename Add>
std::string invalid_argument_of(Add add) {
  try {
    add();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Seeded add sequences, duplicates and reversed pairs included: the builder
// answers every add_edge like the reference and builds the same graph.
TEST(GraphBuilderReference, SeededAddSequencesMatch) {
  msropm::util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(trial < 100 ? 12 : 300);
    const std::size_t adds = rng.uniform_index(4 * n * n / 3 + 2);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n));
    ReferenceBuilder reference(n);
    GraphBuilder builder(n);
    for (std::size_t k = 0; k < adds; ++k) {
      const auto u = static_cast<NodeId>(rng.uniform_index(n));
      const auto v = static_cast<NodeId>(rng.uniform_index(n));
      if (u == v) continue;
      ASSERT_EQ(builder.add_edge(u, v), reference.add_edge(u, v));
    }
    const Graph g = builder.build();
    const auto edges = reference.edges();
    ASSERT_EQ(g.num_nodes(), n);
    ASSERT_TRUE(std::ranges::equal(g.edges(), edges));
    const auto lists = reference.neighbors();
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_TRUE(std::ranges::equal(g.neighbors(u), lists[u])) << "node " << u;
    }
  }
}

// Dense and edgeless extremes, and an add order that is already sorted.
TEST(GraphBuilderReference, CompleteEmptyAndSortedInputsMatch) {
  for (const std::size_t n : {0u, 1u, 2u, 5u, 64u}) {
    ReferenceBuilder reference(n);
    GraphBuilder builder(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        ASSERT_EQ(builder.add_edge(v, u), reference.add_edge(v, u));
        ASSERT_EQ(builder.add_edge(u, v), reference.add_edge(u, v));
      }
    }
    const Graph g = builder.build();
    EXPECT_TRUE(std::ranges::equal(g.edges(), reference.edges()));
    const auto lists = reference.neighbors();
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_TRUE(std::ranges::equal(g.neighbors(u), lists[u]));
    }
    EXPECT_EQ(GraphBuilder(n).build(), Graph(n));
  }
}

TEST(GraphBuilderReference, SameErrorsAsReference) {
  const std::size_t n = 5;
  const std::pair<NodeId, NodeId> bad[] = {{2, 2}, {0, 0}, {0, 5}, {5, 0}, {7, 7},
                                           {4, 4000000000u}};
  for (const auto& [u, v] : bad) {
    ReferenceBuilder reference(n);
    GraphBuilder builder(n);
    const std::string expected = invalid_argument_of([&] { reference.add_edge(u, v); });
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(invalid_argument_of([&] { builder.add_edge(u, v); }), expected)
        << u << "-" << v;
    // A rejected add leaves the builder unchanged.
    EXPECT_EQ(builder.num_edges(), 0u);
    EXPECT_TRUE(builder.add_edge(0, 1));
  }
}

TEST(GraphBuilder, RejectsSelfLoops) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(5, 0), std::invalid_argument);
}

TEST(GraphBuilder, IgnoresDuplicates) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // same undirected edge
  EXPECT_EQ(b.num_edges(), 1u);
}

TEST(Graph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, IsolatedNodes) {
  const Graph g = GraphBuilder(5).build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(Graph, AdjacencyIsSortedAndSymmetric) {
  GraphBuilder b(4);
  b.add_edge(2, 0);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
  for (NodeId v : {1u, 2u, 3u}) {
    ASSERT_EQ(g.neighbors(v).size(), 1u);
    EXPECT_EQ(g.neighbors(v)[0], 0u);
  }
}

TEST(Graph, EdgeListCanonical) {
  GraphBuilder b(4);
  b.add_edge(3, 1);
  b.add_edge(2, 0);
  const Graph g = b.build();
  for (const auto& e : g.edges()) {
    EXPECT_LT(e.u, e.v);
  }
  // Lexicographic order.
  EXPECT_EQ(g.edges()[0].u, 0u);
  EXPECT_EQ(g.edges()[1].u, 1u);
}

TEST(Graph, HasEdge) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(Graph, DegreesAndAverages) {
  const Graph g = msropm::graph::star_graph(5);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4.0 / 5.0);
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  const Graph g = GraphBuilder(2).build();
  EXPECT_THROW((void)g.neighbors(2), std::out_of_range);
  EXPECT_THROW((void)g.degree(7), std::out_of_range);
}

TEST(Graph, EqualityComparesStructure) {
  GraphBuilder b1(3);
  b1.add_edge(0, 1);
  GraphBuilder b2(3);
  b2.add_edge(1, 0);
  EXPECT_EQ(b1.build(), b2.build());
  GraphBuilder b3(3);
  b3.add_edge(0, 2);
  EXPECT_FALSE(b1.build() == b3.build());
}

}  // namespace
