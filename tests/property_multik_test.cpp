// Parameterized property suites across color counts, random instances and
// engines: the structural invariants of the multi-stage plan must hold for
// every K = 2^m, every seed, and both physics backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/circuit_machine.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/shil_plan.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/solvers/dsatur.hpp"
#include "msropm/solvers/tabucol.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;

// ---------------------------------------------------------------------------
// Invariants across color counts K = 2^m.
// ---------------------------------------------------------------------------

class ColorCountSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ColorCountSweep, MachineInvariantsHoldForEveryK) {
  const unsigned k = GetParam();
  const auto g = graph::kings_graph_square(5);
  core::MsropmConfig config = analysis::default_machine_config();
  config.num_colors = k;
  const core::MultiStagePottsMachine machine(g, config);
  util::Rng rng(1000 + k);
  const auto r = machine.solve(rng);

  // Stage count follows the plan.
  const unsigned m = core::stages_for_colors(k);
  ASSERT_EQ(r.stages.size(), m);

  // Every color is in range; the color of node i is exactly the composition
  // of its per-stage readout bits: the SHIL_SEL register of the first m-1
  // bits, MSB first, with the last bit on top.
  ASSERT_EQ(r.colors.size(), g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_LT(r.colors[i], k);
    std::uint8_t sel = 0;
    for (unsigned s = 0; s + 1 < m; ++s) {
      sel = static_cast<std::uint8_t>(2 * sel + r.stages[s].bits[i]);
    }
    EXPECT_EQ(r.colors[i], core::final_color(sel, r.stages[m - 1].bits[i], m))
        << "node " << i;
  }

  // Monotone partition refinement: once an edge is cut at stage s, its
  // endpoints' colors differ (disjoint color subtrees).
  for (std::size_t s = 0; s < r.stages.size(); ++s) {
    for (const auto& e : g.edges()) {
      bool cut_before_or_at_s = false;
      for (std::size_t t = 0; t <= s; ++t) {
        if (r.stages[t].bits[e.u] != r.stages[t].bits[e.v]) {
          cut_before_or_at_s = true;
          break;
        }
      }
      if (cut_before_or_at_s) {
        EXPECT_NE(r.colors[e.u], r.colors[e.v]);
      }
    }
  }
}

TEST_P(ColorCountSweep, ActiveEdgeCountsShrinkMonotonically) {
  const unsigned k = GetParam();
  const auto g = graph::kings_graph_square(5);
  core::MsropmConfig config = analysis::default_machine_config();
  config.num_colors = k;
  const core::MultiStagePottsMachine machine(g, config);
  util::Rng rng(2000 + k);
  const auto r = machine.solve(rng);
  std::size_t prev_active = g.num_edges();
  for (const auto& st : r.stages) {
    EXPECT_LE(st.active_edges, prev_active);
    EXPECT_LE(st.cut_edges, st.active_edges);
    prev_active = st.active_edges - st.cut_edges;
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ColorCountSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------------
// Planted-instance fuzzing: generated 4-colorable graphs must be solved
// exactly by the SAT baseline and properly by the heuristic baselines.
// ---------------------------------------------------------------------------

graph::Graph planted_four_colorable(std::size_t n, double p, util::Rng& rng) {
  // Random 4-partition; keep only cross-partition edges of an ER draw.
  std::vector<unsigned> part(n);
  for (auto& x : part) x = static_cast<unsigned>(rng.uniform_index(4));
  graph::GraphBuilder builder(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (part[u] != part[v] && rng.uniform(0.0, 1.0) < p) {
        builder.add_edge(static_cast<graph::NodeId>(u),
                         static_cast<graph::NodeId>(v));
      }
    }
  }
  return builder.build();
}

class PlantedInstanceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlantedInstanceSweep, SatSolvesPlantedInstancesExactly) {
  util::Rng rng(GetParam());
  const auto g = planted_four_colorable(40, 0.3, rng);
  const auto coloring = sat::solve_exact_coloring(g, 4);
  ASSERT_TRUE(coloring.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *coloring, 4));
}

TEST_P(PlantedInstanceSweep, TabucolReachesProperColoring) {
  util::Rng rng(GetParam() + 17);
  const auto g = planted_four_colorable(40, 0.25, rng);
  solvers::TabucolOptions opts;
  const auto r = solvers::solve_tabucol(g, opts, rng);
  EXPECT_TRUE(graph::is_proper_coloring(g, r.colors, 4));
}

TEST_P(PlantedInstanceSweep, DsaturUsesBoundedColors) {
  util::Rng rng(GetParam() + 31);
  const auto g = planted_four_colorable(50, 0.2, rng);
  const auto r = solvers::solve_dsatur(g);
  EXPECT_TRUE(graph::is_proper_coloring(g, r.colors, r.colors_used));
  // Greedy bound: at most max_degree + 1 colors.
  EXPECT_LE(r.colors_used, g.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedInstanceSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Cross-engine agreement: phase-domain and circuit-level machines satisfy
// the same structural invariants on the same instance.
// ---------------------------------------------------------------------------

class CrossEngineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossEngineSweep, CircuitMachineMatchesPlanInvariants) {
  const auto g = graph::kings_graph(2, 3);
  core::CircuitMsropmConfig config;
  config.schedule.init_s = 3e-9;
  config.schedule.anneal_s = 8e-9;
  config.schedule.discretize_s = 4e-9;
  config.schedule.reinit_s = 3e-9;
  const core::CircuitMsropm machine(g, config);
  util::Rng rng(GetParam());
  const auto r = machine.solve(rng);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    ASSERT_LT(r.colors[i], 4);
    // Group A (bit 0) must use colors {0, 2}; group B colors {1, 3}.
    EXPECT_EQ(r.colors[i] % 2, r.stage1_bits[i]) << "node " << i;
  }
  for (const auto& e : g.edges()) {
    if (r.stage1_bits[e.u] != r.stage1_bits[e.v]) {
      EXPECT_NE(r.colors[e.u], r.colors[e.v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineSweep,
                         ::testing::Values(3u, 9u, 27u, 81u));

// ---------------------------------------------------------------------------
// Process variation: moderate frequency mismatch must not break the plan
// invariants (colors still compose from bits), only degrade accuracy.
// ---------------------------------------------------------------------------

class MismatchSweep : public ::testing::TestWithParam<double> {};

TEST_P(MismatchSweep, InvariantsSurviveFrequencyMismatch) {
  const double sigma_hz = GetParam();
  const auto g = graph::kings_graph_square(5);
  core::MsropmConfig config = analysis::default_machine_config();
  config.network.frequency_mismatch_stddev_hz = sigma_hz;
  const core::MultiStagePottsMachine machine(g, config);
  util::Rng rng(77);
  const auto r = machine.solve(rng);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    ASSERT_LT(r.colors[i], 4);
    EXPECT_EQ(r.colors[i],
              core::final_color(r.stages[0].bits[i], r.stages[1].bits[i], 2));
  }
  // Within-lock-range mismatch keeps quality near nominal.
  if (sigma_hz <= 10e6) {
    EXPECT_GE(graph::coloring_accuracy(g, r.colors), 0.85);
  }
}

INSTANTIATE_TEST_SUITE_P(SigmaHz, MismatchSweep,
                         ::testing::Values(0.0, 1e6, 10e6, 100e6));

}  // namespace
