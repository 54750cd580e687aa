// Tests for max-cut bookkeeping and the Ising correspondence.
#include "msropm/model/maxcut.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using model::CutAssignment;

TEST(CutValue, Basics) {
  const auto g = graph::cycle_graph(4);
  EXPECT_EQ(model::cut_value(g, {0, 1, 0, 1}), 4u);
  EXPECT_EQ(model::cut_value(g, {0, 0, 0, 0}), 0u);
  EXPECT_EQ(model::cut_value(g, {0, 0, 1, 1}), 2u);
  EXPECT_EQ(model::cut_value(g, {0, 1, 2, 2}), 3u);  // K-way labels count alike
  EXPECT_THROW((void)model::cut_value(g, {0, 1}), std::invalid_argument);
}

struct BruteForceCase {
  const char* name;
  graph::Graph graph;
  std::size_t expected_cut;
};

class BruteForceSweep : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(BruteForceSweep, FindsKnownOptimum) {
  const auto& param = GetParam();
  const auto [cut, sides] = model::max_cut_bruteforce(param.graph);
  EXPECT_EQ(cut, param.expected_cut) << param.name;
  EXPECT_EQ(model::cut_value(param.graph, sides), cut);
}

INSTANTIATE_TEST_SUITE_P(
    KnownGraphs, BruteForceSweep,
    ::testing::Values(
        // Bipartite graphs: max cut = all edges.
        BruteForceCase{"C4", graph::cycle_graph(4), 4},
        BruteForceCase{"P5", graph::path_graph(5), 4},
        BruteForceCase{"K33", graph::complete_bipartite_graph(3, 3), 9},
        BruteForceCase{"grid23", graph::grid_graph(2, 3), 7},
        // Odd cycle: n - 1.
        BruteForceCase{"C5", graph::cycle_graph(5), 4},
        BruteForceCase{"C7", graph::cycle_graph(7), 6},
        // Complete graphs: floor(n^2/4).
        BruteForceCase{"K4", graph::complete_graph(4), 4},
        BruteForceCase{"K5", graph::complete_graph(5), 6},
        BruteForceCase{"K6", graph::complete_graph(6), 9},
        // 3x3 King's graph: row-alternating split cuts vertical+diagonals.
        BruteForceCase{"kings33", graph::kings_graph(3, 3), 14}),
    [](const auto& info) { return info.param.name; });

TEST(BruteForce, RejectsLargeGraphs) {
  EXPECT_THROW(model::max_cut_bruteforce(graph::path_graph(27)),
               std::invalid_argument);
}

TEST(BruteForce, EmptyAndTrivial) {
  const auto [cut0, sides0] = model::max_cut_bruteforce(graph::Graph(0));
  EXPECT_EQ(cut0, 0u);
  EXPECT_TRUE(sides0.empty());
  const auto [cut1, sides1] = model::max_cut_bruteforce(graph::path_graph(1));
  EXPECT_EQ(cut1, 0u);
  EXPECT_EQ(sides1.size(), 1u);
}

TEST(SpinCutConversion, SidesMapToSpins) {
  const auto spins = model::spins_from_cut({0, 1, 1, 0});
  EXPECT_EQ(spins, (std::vector<model::Spin>{1, -1, -1, 1}));
}

TEST(IsingCutIdentity, EnergyMatchesCut) {
  // Uniform J = -1: E = m - 2*cut.
  const auto g = graph::kings_graph(3, 4);
  const model::IsingModel m(g, -1.0);
  CutAssignment sides(g.num_nodes());
  for (std::size_t i = 0; i < sides.size(); ++i) sides[i] = (i * 7 % 3) & 1;
  const std::size_t cut = model::cut_value(g, sides);
  EXPECT_DOUBLE_EQ(m.energy(model::spins_from_cut(sides)),
                   static_cast<double>(g.num_edges()) - 2.0 * static_cast<double>(cut));
}


// --- max-K-cut ------------------------------------------------------------

TEST(KCut, BruteforceK4OnK4CutsEverything) {
  const auto g = graph::complete_graph(4);
  const auto [cut, parts] = model::max_kcut_bruteforce(g, 4);
  EXPECT_EQ(cut, 6u);  // all-distinct labels cut every edge
  EXPECT_EQ(model::cut_value(g, parts), cut);
}

TEST(KCut, BruteforceK2MatchesMaxCut) {
  util::Rng rng(5);
  const auto g = graph::erdos_renyi(10, 0.4, rng);
  const auto [cut2, parts2] = model::max_kcut_bruteforce(g, 2);
  const auto [cut, sides] = model::max_cut_bruteforce(g);
  EXPECT_EQ(cut2, cut);
  (void)parts2;
  (void)sides;
}

TEST(KCut, RandomExpectationBoundsHold) {
  const auto g = graph::kings_graph_square(3);
  const double expectation = model::kcut_random_expectation(g, 4);
  EXPECT_DOUBLE_EQ(expectation, g.num_edges() * 0.75);
  const auto [best, parts] = model::max_kcut_bruteforce(g, 4);
  (void)parts;
  EXPECT_GE(static_cast<double>(best), expectation);
}

TEST(KCut, BruteforceRejectsLargeInstances) {
  const auto g = graph::kings_graph_square(5);
  EXPECT_THROW((void)model::max_kcut_bruteforce(g, 4), std::invalid_argument);
  EXPECT_THROW((void)model::max_kcut_bruteforce(graph::path_graph(3), 9),
               std::invalid_argument);
}

}  // namespace
