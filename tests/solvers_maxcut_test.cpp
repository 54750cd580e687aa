// Tests for max-cut as the K = 2 case of the SA-Potts annealer, and for the
// best-known reference cuts it generates.
#include "msropm/solvers/sa_potts.hpp"

#include <gtest/gtest.h>

#include "msropm/graph/builders.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using solvers::best_known_maxcut;

struct OptimumCase {
  const char* name;
  graph::Graph graph;
};

class SaReachesOptimum : public ::testing::TestWithParam<OptimumCase> {};

TEST_P(SaReachesOptimum, MatchesBruteForce) {
  const auto& g = GetParam().graph;
  const auto [optimal, _] = model::max_cut_bruteforce(g);
  util::Rng rng(7);
  const auto result = best_known_maxcut(g, 5, rng);
  EXPECT_EQ(result.cut, optimal) << GetParam().name;
  EXPECT_EQ(model::cut_value(g, result.sides), result.cut);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, SaReachesOptimum,
    ::testing::Values(OptimumCase{"C4", graph::cycle_graph(4)},
                      OptimumCase{"C5", graph::cycle_graph(5)},
                      OptimumCase{"K5", graph::complete_graph(5)},
                      OptimumCase{"K33", graph::complete_bipartite_graph(3, 3)},
                      OptimumCase{"kings33", graph::kings_graph(3, 3)},
                      OptimumCase{"grid34", graph::grid_graph(3, 4)},
                      OptimumCase{"petersenish", graph::wheel_graph(8)}),
    [](const auto& info) { return info.param.name; });

TEST(MaxCutSa, BipartiteGraphsFullyCut) {
  const auto g = graph::grid_graph(5, 5);
  util::Rng rng(3);
  const auto result = best_known_maxcut(g, 1, rng);
  EXPECT_EQ(result.cut, g.num_edges());
}

TEST(MaxCutSa, CutIsEdgesMinusTwoColorConflicts) {
  // A K = 2 anneal is a max-cut anneal: the uncut edges of its bipartition
  // are exactly the conflicts of the same assignment read as a 2-coloring.
  const auto g = graph::kings_graph(6, 7);
  solvers::SaPottsOptions opts;
  opts.num_colors = 2;
  opts.sweeps = 20;  // under-annealed, so some edges stay uncut
  util::Rng rng(4);
  const auto anneal = solvers::solve_sa_potts(g, opts, rng);
  EXPECT_GT(anneal.conflicts, 0u);
  EXPECT_EQ(model::cut_value(g, anneal.colors), g.num_edges() - anneal.conflicts);
  for (auto side : anneal.colors) EXPECT_LT(side, 2);
}

TEST(MaxCutSa, MoreRestartsNeverWorse) {
  const auto g = graph::kings_graph(6, 6);
  util::Rng rng1(5);
  util::Rng rng2(5);
  const auto one = best_known_maxcut(g, 1, rng1);
  const auto many = best_known_maxcut(g, 8, rng2);
  EXPECT_GE(many.cut, one.cut);
}

TEST(MaxCutSa, EmptyGraph) {
  const graph::Graph g(0);
  util::Rng rng(1);
  const auto result = best_known_maxcut(g, 1, rng);
  EXPECT_EQ(result.cut, 0u);
  EXPECT_TRUE(result.sides.empty());
}

TEST(MaxCutSa, SingleNode) {
  const auto g = graph::path_graph(1);
  util::Rng rng(1);
  const auto result = best_known_maxcut(g, 1, rng);
  EXPECT_EQ(result.cut, 0u);
  EXPECT_EQ(result.sides.size(), 1u);
}

// The reference cuts that Fig. 5(b) and the Table 2 K = 2 row normalize by,
// at the seeds the benches and integration_test use. On an r x c King's
// graph the row-alternating bipartition cuts every vertical and diagonal
// edge, (r-1)*c + 2*(r-1)*(c-1) of them; best-of-10 must reach exactly that.
struct ReferenceCase {
  const char* name;
  std::size_t rows;
  std::size_t cols;
  std::uint64_t seed;
};

class MaxCutSaReference : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(MaxCutSaReference, KingsGraphReferenceCutValue) {
  const auto& c = GetParam();
  const auto g = graph::kings_graph(c.rows, c.cols);
  util::Rng rng(c.seed);
  const auto result = best_known_maxcut(g, 10, rng);
  const std::size_t row_alternating =
      (c.rows - 1) * c.cols + 2 * (c.rows - 1) * (c.cols - 1);
  EXPECT_EQ(result.cut, row_alternating) << c.name;
  EXPECT_EQ(model::cut_value(g, result.sides), result.cut);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGraphs, MaxCutSaReference,
    ::testing::Values(ReferenceCase{"kings7_seed11", 7, 7, 11},     // 114
                      ReferenceCase{"kings7_seed99", 7, 7, 99},     // 114
                      ReferenceCase{"kings20_seed99", 20, 20, 99},  // 1102
                      ReferenceCase{"kings32_seed99", 32, 32, 99},  // 2914
                      ReferenceCase{"kings48x41_seed91", 48, 41, 91}),  // 5687
    [](const auto& info) { return info.param.name; });

}  // namespace
