// Tests for the circuit-backend MSROPM (waveform-level validation).
#include "msropm/core/circuit_machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using core::CircuitMsropm;
using core::CircuitMsropmConfig;

CircuitMsropmConfig quick_config() {
  CircuitMsropmConfig cfg;
  // Shorter-than-paper windows keep the RK4 transient affordable in tests;
  // the bench uses the full 60 ns schedule.
  cfg.schedule.init_s = 3e-9;
  cfg.schedule.anneal_s = 8e-9;
  cfg.schedule.discretize_s = 4e-9;
  cfg.schedule.reinit_s = 3e-9;
  return cfg;
}

TEST(CircuitMachine, RejectsInvalidSchedule) {
  const auto g = graph::path_graph(2);
  CircuitMsropmConfig bad = quick_config();
  bad.schedule.init_s = 0.0;
  EXPECT_THROW(CircuitMsropm(g, bad), std::invalid_argument);
}

TEST(CircuitMachine, ProducesFourColorAssignment) {
  const auto g = graph::kings_graph(2, 2);  // K4
  CircuitMsropm machine(g, quick_config());
  util::Rng rng(3);
  const auto r = machine.solve(rng);
  EXPECT_EQ(r.colors.size(), 4u);
  for (auto c : r.colors) EXPECT_LT(c, 4);
  EXPECT_EQ(r.stage1_bits.size(), 4u);
  EXPECT_EQ(r.final_phases.size(), 4u);
}

TEST(CircuitMachine, Stage1CutMatchesBits) {
  const auto g = graph::kings_graph(2, 3);
  CircuitMsropm machine(g, quick_config());
  util::Rng rng(5);
  const auto r = machine.solve(rng);
  std::size_t cut = 0;
  for (const auto& e : g.edges()) {
    if (r.stage1_bits[e.u] != r.stage1_bits[e.v]) ++cut;
  }
  EXPECT_EQ(cut, r.stage1_cut);
}

TEST(CircuitMachine, ColorsConsistentWithStage1Partition) {
  // Group-A oscillators (SHIL 1) must land on colors {0, 2}; group B
  // (SHIL 2) on {1, 3} -- the disjoint phase sets of Fig. 2(e).
  const auto g = graph::kings_graph(2, 3);
  CircuitMsropm machine(g, quick_config());
  util::Rng rng(7);
  const auto r = machine.solve(rng);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    if (r.stage1_bits[i] == 0) {
      EXPECT_TRUE(r.colors[i] == 0 || r.colors[i] == 2) << "osc " << i;
    } else {
      EXPECT_TRUE(r.colors[i] == 1 || r.colors[i] == 3) << "osc " << i;
    }
  }
}

TEST(CircuitMachine, CrossCutEdgesAlwaysProper) {
  // Edges cut at stage 1 connect disjoint color sets: never a conflict.
  const auto g = graph::kings_graph(3, 3);
  CircuitMsropm machine(g, quick_config());
  util::Rng rng(11);
  const auto r = machine.solve(rng);
  for (const auto& e : g.edges()) {
    if (r.stage1_bits[e.u] != r.stage1_bits[e.v]) {
      EXPECT_NE(r.colors[e.u], r.colors[e.v]);
    }
  }
}

TEST(CircuitMachine, ObserverSeesControlSequence) {
  const auto g = graph::path_graph(2);
  CircuitMsropm machine(g, quick_config());
  util::Rng rng(13);
  std::vector<std::string> events;
  (void)machine.solve(rng, [&events](const char* label,
                                     const circuit::RoscFabric&) {
    events.emplace_back(label);
  });
  const std::vector<std::string> expected{
      "init",          "stage1_anneal", "stage1_shil", "reinit",
      "stage2_anneal", "stage2_shil",   "done"};
  EXPECT_EQ(events, expected);
}

TEST(CircuitMachine, ReasonableQualityOnTinyProblem) {
  // Best of a few runs on K4 (2x2 King's graph, 4-chromatic): the circuit
  // engine should satisfy most edges; exactness is asserted statistically in
  // the bench, not here (RK4 transients are expensive).
  const auto g = graph::kings_graph(2, 2);
  CircuitMsropm machine(g, quick_config());
  double best = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto r = machine.solve(rng);
    best = std::max(best, graph::coloring_accuracy(g, r.colors));
  }
  EXPECT_GE(best, 0.8);
}

}  // namespace
