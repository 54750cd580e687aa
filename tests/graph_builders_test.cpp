// Tests for graph generators, with the King's-graph structure (the paper's
// benchmark topology) checked in detail.
#include "msropm/graph/builders.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/solvers/dsatur.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm::graph;

// King's graph edge count: horizontal r*(c-1) + vertical (r-1)*c
// + diagonals 2*(r-1)*(c-1).
std::size_t kings_edges(std::size_t r, std::size_t c) {
  return r * (c - 1) + (r - 1) * c + 2 * (r - 1) * (c - 1);
}

// DSATUR is exact on bipartite graphs: it never needs a third color there.
bool two_colorable(const Graph& g) {
  return msropm::solvers::solve_dsatur(g).colors_used <= 2;
}

class KingsGraphSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KingsGraphSweep, NodeAndEdgeCounts) {
  const auto [r, c] = GetParam();
  const Graph g = kings_graph(r, c);
  EXPECT_EQ(g.num_nodes(), r * c);
  EXPECT_EQ(g.num_edges(), kings_edges(r, c));
}

TEST_P(KingsGraphSweep, InteriorNodesHaveDegree8) {
  const auto [r, c] = GetParam();
  if (r < 3 || c < 3) GTEST_SKIP();
  const Graph g = kings_graph(r, c);
  for (std::size_t i = 1; i + 1 < r; ++i) {
    for (std::size_t j = 1; j + 1 < c; ++j) {
      EXPECT_EQ(g.degree(static_cast<NodeId>(i * c + j)), 8u);
    }
  }
  // Corners have degree 3.
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(static_cast<NodeId>(c - 1)), 3u);
  EXPECT_EQ(g.degree(static_cast<NodeId>(r * c - 1)), 3u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KingsGraphSweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{3, 3},
                                           std::pair<std::size_t, std::size_t>{3, 5},
                                           std::pair<std::size_t, std::size_t>{7, 7},
                                           std::pair<std::size_t, std::size_t>{20, 20},
                                           std::pair<std::size_t, std::size_t>{5, 2}));

TEST(KingsGraph, PaperInstanceSizes) {
  // The four Table-1 instances: "all edges active (8 edges per node)".
  EXPECT_EQ(kings_graph_square(7).num_nodes(), 49u);
  EXPECT_EQ(kings_graph_square(7).num_edges(), 156u);
  EXPECT_EQ(kings_graph_square(20).num_nodes(), 400u);
  EXPECT_EQ(kings_graph_square(20).num_edges(), 1482u);
  EXPECT_EQ(kings_graph_square(32).num_nodes(), 1024u);
  EXPECT_EQ(kings_graph_square(32).num_edges(), 3906u);
  EXPECT_EQ(kings_graph_square(46).num_nodes(), 2116u);
  EXPECT_EQ(kings_graph_square(46).num_edges(), 8190u);
}

TEST(KingsGraph, TwoByTwoIsK4) {
  EXPECT_EQ(kings_graph(2, 2), complete_graph(4));
}

TEST(KingsGraph, RejectsEmpty) {
  EXPECT_THROW(kings_graph(0, 4), std::invalid_argument);
  EXPECT_THROW(kings_graph(4, 0), std::invalid_argument);
}

TEST(GridGraph, CountsAndBipartite) {
  const Graph g = grid_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3u + 2u * 4u);  // 17
  EXPECT_TRUE(two_colorable(g));
}

TEST(CycleGraph, Structure) {
  const Graph g = cycle_graph(5);
  EXPECT_EQ(g.num_edges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_THROW(cycle_graph(2), std::invalid_argument);
}

TEST(PathGraph, Structure) {
  const Graph g = path_graph(4);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(path_graph(1).num_edges(), 0u);
  EXPECT_THROW(path_graph(0), std::invalid_argument);
}

TEST(CompleteGraph, Counts) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_EQ(complete_graph(0).num_nodes(), 0u);
  EXPECT_EQ(complete_graph(1).num_edges(), 0u);
}

TEST(CompleteBipartite, Counts) {
  const Graph g = complete_bipartite_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_TRUE(two_colorable(g));
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(ErdosRenyi, DeterministicForSeed) {
  msropm::util::Rng r1(5);
  msropm::util::Rng r2(5);
  EXPECT_EQ(erdos_renyi(30, 0.2, r1), erdos_renyi(30, 0.2, r2));
}

TEST(ErdosRenyi, EdgeDensityNearP) {
  msropm::util::Rng rng(11);
  const std::size_t n = 120;
  const Graph g = erdos_renyi(n, 0.25, rng);
  const double max_edges = static_cast<double>(n * (n - 1)) / 2.0;
  const double density = static_cast<double>(g.num_edges()) / max_edges;
  EXPECT_NEAR(density, 0.25, 0.03);
}

TEST(ErdosRenyi, DegenerateP) {
  msropm::util::Rng rng(1);
  EXPECT_EQ(erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(10, 1.0, rng).num_edges(), 45u);
  EXPECT_THROW(erdos_renyi(10, 1.5, rng), std::invalid_argument);
}

TEST(TriangulatedGrid, EdgeCountIsGridPlusDiagonals) {
  msropm::util::Rng rng(3);
  const std::size_t r = 5;
  const std::size_t c = 6;
  const Graph g = triangulated_grid(r, c, rng);
  // grid edges + one diagonal per unit square.
  const std::size_t expected =
      r * (c - 1) + (r - 1) * c + (r - 1) * (c - 1);
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_THROW(triangulated_grid(1, 5, rng), std::invalid_argument);
}

TEST(TriangulatedGrid, MaxDegreeBoundedByPlanarity) {
  msropm::util::Rng rng(9);
  const Graph g = triangulated_grid(8, 8, rng);
  // Grid + diagonals: max degree 8 (4 grid + up to 4 diagonal).
  EXPECT_LE(g.max_degree(), 8u);
}

TEST(StarGraph, Structure) {
  const Graph g = star_graph(6);
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(two_colorable(g));
}

TEST(WheelGraph, Structure) {
  const Graph g = wheel_graph(6);  // hub + C5
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(g.degree(0), 5u);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_THROW(wheel_graph(3), std::invalid_argument);
}


TEST(HexLattice, DegreeAtMostThree) {
  const auto g = hex_lattice(6, 8);
  EXPECT_EQ(g.num_nodes(), 48u);
  for (NodeId v = 0; v < 48; ++v) EXPECT_LE(g.degree(v), 3u);
}

TEST(HexLattice, IsBipartiteLikeHoneycomb) {
  // The honeycomb lattice is bipartite (all cycles have length 6).
  EXPECT_TRUE(two_colorable(hex_lattice(5, 7)));
  EXPECT_TRUE(two_colorable(hex_lattice(8, 8)));
}

TEST(HexLattice, EdgeCountFormula) {
  // Horizontal: rows*(cols-1). Vertical: pairs (r, c) with r+1 < rows and
  // (r+c) even.
  const std::size_t rows = 4, cols = 5;
  const auto g = hex_lattice(rows, cols);
  std::size_t expect = rows * (cols - 1);
  for (std::size_t r = 0; r + 1 < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if ((r + c) % 2 == 0) ++expect;
    }
  }
  EXPECT_EQ(g.num_edges(), expect);
}

TEST(HexLattice, RejectsEmpty) {
  EXPECT_THROW((void)hex_lattice(0, 5), std::invalid_argument);
  EXPECT_THROW((void)hex_lattice(5, 0), std::invalid_argument);
}

}  // namespace
