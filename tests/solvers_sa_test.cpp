// Tests for the simulated-annealing Potts solver.
#include "msropm/solvers/sa_potts.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using solvers::SaPottsOptions;
using solvers::solve_sa_potts;

TEST(SaPotts, SolvesSmallKingsGraphExactly) {
  const auto g = graph::kings_graph_square(5);
  SaPottsOptions opts;
  opts.num_colors = 4;
  util::Rng rng(1);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_EQ(result.conflicts, 0u);
  EXPECT_TRUE(graph::is_proper_coloring(g, result.colors, 4));
}

TEST(SaPotts, SolvesBipartiteWithTwoColors) {
  const auto g = graph::complete_bipartite_graph(5, 5);
  SaPottsOptions opts;
  opts.num_colors = 2;
  util::Rng rng(2);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_EQ(result.conflicts, 0u);
}

TEST(SaPotts, ReportedConflictsMatchRecount) {
  const auto g = graph::kings_graph(6, 6);
  SaPottsOptions opts;
  opts.sweeps = 10;  // deliberately under-annealed
  util::Rng rng(3);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_EQ(result.conflicts, graph::count_conflicts(g, result.colors));
}

TEST(SaPotts, InfeasiblePaletteLeavesConflicts) {
  const auto g = graph::complete_graph(6);  // needs 6 colors
  SaPottsOptions opts;
  opts.num_colors = 4;
  util::Rng rng(4);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_GE(result.conflicts, 1u);
}

TEST(SaPotts, MoveCountersPopulated) {
  const auto g = graph::kings_graph(4, 4);
  SaPottsOptions opts;
  opts.sweeps = 20;
  util::Rng rng(5);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_EQ(result.proposed_moves, 20u * g.num_nodes());
  EXPECT_GT(result.accepted_moves, 0u);
  EXPECT_LE(result.accepted_moves, result.proposed_moves);
}

TEST(SaPotts, Validation) {
  const auto g = graph::path_graph(3);
  util::Rng rng(7);
  SaPottsOptions bad;
  bad.num_colors = 1;
  EXPECT_THROW(solve_sa_potts(g, bad, rng), std::invalid_argument);
}

TEST(SaPotts, EmptyGraph) {
  const graph::Graph g(0);
  util::Rng rng(8);
  const auto result = solve_sa_potts(g, SaPottsOptions{}, rng);
  EXPECT_TRUE(result.colors.empty());
  EXPECT_EQ(result.conflicts, 0u);
}

TEST(SaPotts, PreStoppedTokenReturnsImmediately) {
  const auto g = graph::kings_graph_square(8);
  SaPottsOptions opts;
  opts.num_colors = 4;
  opts.sweeps = 100000;
  util::StopSource source;
  source.request_stop();
  opts.stop = source.token();
  util::Rng rng(6);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.proposed_moves, 0u);
  EXPECT_EQ(result.colors.size(), g.num_nodes());
}

TEST(SaPotts, DeadlineTokenStopsLongAnneal) {
  const auto g = graph::kings_graph_square(20);
  SaPottsOptions opts;
  opts.num_colors = 4;
  opts.sweeps = 100000000;  // would run for hours without the deadline
  opts.stop = util::StopToken::at_deadline(
      util::StopToken::Clock::now() + std::chrono::milliseconds(5));
  util::Rng rng(7);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(result.proposed_moves, opts.sweeps * g.num_nodes());
}

TEST(SaPotts, InertTokenLeavesAnnealUntouched) {
  const auto g = graph::kings_graph_square(5);
  SaPottsOptions opts;
  opts.num_colors = 4;
  util::Rng rng(1);
  const auto result = solve_sa_potts(g, opts, rng);
  EXPECT_FALSE(result.cancelled);
}

TEST(SaPotts, DeterministicForSeed) {
  const auto g = graph::kings_graph(5, 5);
  SaPottsOptions opts;
  util::Rng rng1(99);
  util::Rng rng2(99);
  EXPECT_EQ(solve_sa_potts(g, opts, rng1).colors,
            solve_sa_potts(g, opts, rng2).colors);
}

}  // namespace
