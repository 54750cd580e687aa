// End-to-end tests of the phase-domain MSROPM.
#include "msropm/core/machine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "msropm/analysis/experiments.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using core::MsropmConfig;
using core::MsropmResult;
using core::MultiStagePottsMachine;

MsropmConfig fast_config(unsigned colors = 4) {
  auto cfg = analysis::machine_config_for_colors(colors);
  return cfg;
}

TEST(Machine, RejectsInvalidConfig) {
  const auto g = graph::path_graph(2);
  MsropmConfig bad = fast_config();
  bad.num_colors = 3;
  EXPECT_THROW(MultiStagePottsMachine(g, bad), std::invalid_argument);
  bad = fast_config();
  bad.schedule.anneal_s = 0.0;
  EXPECT_THROW(MultiStagePottsMachine(g, bad), std::invalid_argument);
}

TEST(Machine, RejectsGraphsOverTheNodeBound) {
  // The constructor allocates nothing, so the bound is checked before any
  // per-node state exists; a graph at the bound is accepted.
  const graph::Graph at_bound(core::kMaxMachineNodes);
  EXPECT_NO_THROW(MultiStagePottsMachine(at_bound, fast_config()));
  const graph::Graph over(core::kMaxMachineNodes + 1);
  EXPECT_THROW(MultiStagePottsMachine(over, fast_config()),
               std::invalid_argument);
}

TEST(Machine, ResultShape) {
  const auto g = graph::kings_graph(3, 3);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(1);
  const MsropmResult r = machine.solve(rng);
  EXPECT_EQ(r.colors.size(), 9u);
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].bits.size(), 9u);
  EXPECT_EQ(r.stages[0].active_edges, g.num_edges());
  EXPECT_NEAR(machine.config().total_time_s(), 60e-9, 1e-15);
  for (auto c : r.colors) EXPECT_LT(c, 4);
}

TEST(Machine, Stage2OnlySeesUncutEdges) {
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(2);
  const auto r = machine.solve(rng);
  EXPECT_EQ(r.stages[1].active_edges,
            r.stages[0].active_edges - r.stages[0].cut_edges);
}

TEST(Machine, AccuracyEqualsEdgesCutInSomeStage) {
  // An edge is properly colored iff some stage cut it: final conflicts are
  // exactly the edges never cut. This ties the divide-and-color algebra to
  // the coloring metric.
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(3);
  const auto r = machine.solve(rng);
  const std::size_t cut_total = r.stages[0].cut_edges + r.stages[1].cut_edges;
  EXPECT_EQ(graph::count_satisfied_edges(g, r.colors), cut_total);
}

TEST(Machine, BitsDetermineColors) {
  const auto g = graph::kings_graph(3, 3);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(4);
  const auto r = machine.solve(rng);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(r.colors[i],
              core::final_color(r.stages[0].bits[i], r.stages[1].bits[i], 2));
  }
}

TEST(Machine, LockResidualSmallAfterDiscretization) {
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(5);
  const auto r = machine.solve(rng);
  for (const auto& stage : r.stages) {
    EXPECT_LT(stage.max_lock_residual, 0.5)
        << "SHIL must binarize phases by readout time";
  }
}

TEST(Machine, DeterministicForSeed) {
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng1(42);
  util::Rng rng2(42);
  const auto r1 = machine.solve(rng1);
  const auto r2 = machine.solve(rng2);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.stages[0].cut_edges, r2.stages[0].cut_edges);
}

TEST(Machine, DifferentSeedsExploreDifferentSolutions) {
  // The probabilistic-computation property (paper Sec. 4): iterations from
  // different initial conditions land on different solutions.
  const auto g = graph::kings_graph(5, 5);
  MultiStagePottsMachine machine(g, fast_config());
  std::set<graph::Coloring> distinct;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng rng(seed);
    distinct.insert(machine.solve(rng).colors);
  }
  EXPECT_GE(distinct.size(), 3u);
}

TEST(Machine, SolvesBipartiteGraphPerfectly) {
  // A bipartite graph is 2-colorable; a 4-color MSROPM should satisfy every
  // edge in nearly every run (stage 1 alone can cut everything).
  const auto g = graph::complete_bipartite_graph(6, 6);
  MultiStagePottsMachine machine(g, fast_config());
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  EXPECT_DOUBLE_EQ(best, 1.0);
}

TEST(Machine, TwoColorModeIsMaxCut) {
  // K = 2 runs a single stage: a pure oscillator Ising machine.
  const auto g = graph::cycle_graph(8);
  MultiStagePottsMachine machine(g, fast_config(2));
  util::Rng rng(7);
  const auto r = machine.solve(rng);
  EXPECT_EQ(r.stages.size(), 1u);
  EXPECT_NEAR(machine.config().total_time_s(), 30e-9, 1e-15);
  // Even cycle: the machine should find the perfect alternating cut often.
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng r2(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(r2).colors));
  }
  EXPECT_DOUBLE_EQ(best, 1.0);
}

TEST(Machine, EightColorExtension) {
  // The paper's extension path: K = 8 via 3 stages (Sec. 3.1/5).
  const auto g = graph::complete_graph(8);  // needs exactly 8 colors
  MultiStagePottsMachine machine(g, fast_config(8));
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(seed);
    const auto r = machine.solve(rng);
    EXPECT_EQ(r.stages.size(), 3u);
    best = std::max(best, graph::coloring_accuracy(g, r.colors));
  }
  EXPECT_GE(best, 0.9) << "8 oscillators should spread over 8 phases";
}

TEST(Machine, StageObserverSequence) {
  const auto g = graph::kings_graph(3, 3);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(9);
  std::vector<std::string> events;
  (void)machine.solve(rng, [&events](unsigned stage, const char* label,
                                     const phase::PhaseBatch&) {
    events.push_back(std::to_string(stage) + ":" + label);
  });
  const std::vector<std::string> expected{
      "0:init",   "1:anneal", "1:lock", "1:reinit",
      "2:anneal", "2:lock"};
  EXPECT_EQ(events, expected);
}

TEST(Machine, Stage1CutAccessor) {
  const auto g = graph::kings_graph(3, 3);
  MultiStagePottsMachine machine(g, fast_config());
  util::Rng rng(10);
  const auto r = machine.solve(rng);
  const auto cut = r.stage1_cut();
  ASSERT_EQ(cut.size(), 9u);
  EXPECT_EQ(model::cut_value(g, cut), r.stages[0].cut_edges);
}

TEST(Machine, HighAccuracyOnSmallPaperInstance) {
  const auto g = graph::kings_graph_square(7);
  MultiStagePottsMachine machine(g, fast_config());
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  EXPECT_GE(best, 0.95) << "49-node instance must reach near-exact accuracy";
}

}  // namespace
