// Tests for the shared experiment fixtures.
#include "msropm/analysis/experiments.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "msropm/core/shil_plan.hpp"
#include "msropm/sat/coloring_encoder.hpp"

namespace {

using namespace msropm;

TEST(PaperProblems, FourInstancesWithTable1Sizes) {
  const auto problems = analysis::paper_problems();
  ASSERT_EQ(problems.size(), 4u);
  EXPECT_EQ(problems[0].nodes, 49u);
  EXPECT_EQ(problems[1].nodes, 400u);
  EXPECT_EQ(problems[2].nodes, 1024u);
  EXPECT_EQ(problems[3].nodes, 2116u);
  for (const auto& p : problems) {
    EXPECT_EQ(p.side * p.side, p.nodes);
    const auto g = analysis::build_paper_graph(p);
    EXPECT_EQ(g.num_nodes(), p.nodes);
    EXPECT_EQ(g.max_degree(), 8u) << "all edges active, 8 edges per node";
  }
}

TEST(DefaultConfig, MatchesPaperDesignPoint) {
  const auto cfg = analysis::default_machine_config();
  EXPECT_EQ(cfg.num_colors, 4u);
  EXPECT_EQ(cfg.num_stages(), 2u);
  EXPECT_EQ(cfg.network.shil_order, 2u);
  EXPECT_NEAR(cfg.total_time_s(), 60e-9, 1e-15);
}

TEST(DefaultConfig, PhysicallySensibleGains) {
  const auto cfg = analysis::default_machine_config();
  // SHIL must dominate coupling for clean discretization, and the anneal
  // window must cover several coupling time constants.
  EXPECT_GT(cfg.network.shil_gain, cfg.network.coupling_gain);
  EXPECT_GT(cfg.schedule.anneal_s * cfg.network.coupling_gain, 5.0);
  // Integration step resolves the fastest dynamics.
  EXPECT_LT(cfg.network.dt * cfg.network.shil_gain, 0.1);
}

TEST(DefaultConfig, WindowsAreWholeSteps) {
  // PhaseBatch::run rounds a window up to whole steps (with a 1e-9 guard),
  // so a window that is not a multiple of dt would be silently stretched.
  const auto cfg = analysis::default_machine_config();
  const auto& s = cfg.schedule;
  for (const double window :
       {s.init_s, s.anneal_s, s.discretize_s, s.reinit_s}) {
    const double steps = window / cfg.network.dt;
    EXPECT_NEAR(steps, std::round(steps), 1e-9) << "window " << window << " s";
  }
}

TEST(ConfigForColors, GeneralizesStages) {
  EXPECT_EQ(analysis::machine_config_for_colors(8).num_stages(), 3u);
  EXPECT_EQ(analysis::machine_config_for_colors(2).num_stages(), 1u);
  EXPECT_THROW((void)analysis::machine_config_for_colors(5), std::invalid_argument);
}

TEST(MaxcutAccuracy, Normalization) {
  EXPECT_DOUBLE_EQ(analysis::maxcut_accuracy(90, 100), 0.9);
  EXPECT_DOUBLE_EQ(analysis::maxcut_accuracy(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(analysis::maxcut_accuracy(5, 0), 1.0);
}


TEST(PaperProblems, GraphsMatchTable1Exactly) {
  // Node counts, edge counts and the 8-edges-per-interior-node property of
  // "King's graph topology graphs ... with all edges active" (Sec. 4.1).
  for (const auto& p : analysis::paper_problems()) {
    const auto g = analysis::build_paper_graph(p);
    EXPECT_EQ(g.num_nodes(), p.nodes);
    EXPECT_EQ(g.num_nodes(), p.side * p.side);
    const std::size_t s = p.side;
    EXPECT_EQ(g.num_edges(), s * (s - 1) + (s - 1) * s + 2 * (s - 1) * (s - 1));
    EXPECT_EQ(g.max_degree(), 8u);
  }
}

TEST(PaperProblems, SmallestInstanceIsFourChromatic) {
  // The accuracy denominator assumes a perfect 4-coloring exists (it does:
  // King's graphs are 4-chromatic) and that 3 colors do NOT suffice.
  const auto g = analysis::build_paper_graph(analysis::paper_problems()[0]);
  EXPECT_TRUE(sat::solve_exact_coloring(g, 4).has_value());
  EXPECT_FALSE(sat::solve_exact_coloring(g, 3).has_value());
}

TEST(ConfigForColors, TotalTimeFollowsScheduleFormula) {
  // init + m*(anneal + lock) + (m-1)*reinit; 60 ns for K = 4 and 90 ns for
  // K = 8 at the paper's windows (5/20/5/5 ns).
  for (const unsigned k : {2u, 4u, 8u, 16u}) {
    const auto c = analysis::machine_config_for_colors(k);
    const unsigned m = c.num_stages();
    const auto& s = c.schedule;
    EXPECT_DOUBLE_EQ(c.total_time_s(),
                     s.init_s + m * (s.anneal_s + s.discretize_s) +
                         (m - 1) * s.reinit_s);
  }
  EXPECT_NEAR(analysis::machine_config_for_colors(4).total_time_s(), 60e-9,
              1e-12);
  EXPECT_NEAR(analysis::machine_config_for_colors(8).total_time_s(), 90e-9,
              1e-12);
}

TEST(MaxcutAccuracy, EdgeCases) {
  EXPECT_DOUBLE_EQ(analysis::maxcut_accuracy(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(analysis::maxcut_accuracy(100, 100), 1.0);
  // Heuristic references can be beaten; accuracy may exceed 1.
  EXPECT_GT(analysis::maxcut_accuracy(110, 100), 1.0);
}

}  // namespace
