// Property-style parameterized sweeps over the design-parameter space the
// paper calls out in Sec. 2.3/3.3: coupling strength, SHIL strength, noise
// and schedule length. These assert the qualitative invariants; the
// ablation benches print the quantitative curves.
#include <gtest/gtest.h>

#include <algorithm>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/phase/lock.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;

double best_accuracy_with(core::MsropmConfig cfg, const graph::Graph& g,
                          std::size_t iterations = 10, std::uint64_t seed = 3) {
  core::MultiStagePottsMachine machine(g, cfg);
  core::RunnerOptions opts;
  opts.iterations = iterations;
  opts.seed = seed;
  return core::run_iterations(machine, opts).best_accuracy;
}

// --- SHIL strength: "SHIL injection below a certain level of strength
// cannot discretize the ROSC phases" (Sec. 2.3) --------------------------

class ShilStrengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShilStrengthSweep, StrongEnoughShilAlwaysDiscretizes) {
  const double gain = GetParam();
  const auto g = graph::kings_graph(4, 4);
  auto params = analysis::default_machine_config().network;
  params.shil_gain = gain;
  phase::PhaseBatch net(g, params, 1);
  net.set_couplings_active(true);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, 0.0);
  util::Rng rng(5);
  net.randomize_phases(0, rng);
  net.run(20e-9, {&rng, 1});
  const std::vector<double> psi(g.num_nodes(), 0.0);
  const double residual = phase::max_lock_residual(net.theta_flat(), psi, 2);
  if (gain >= 1.0e9) {
    EXPECT_LT(residual, 0.25) << "gain " << gain;
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, ShilStrengthSweep,
                         ::testing::Values(1.0e9, 1.6e9, 2.5e9, 4.0e9));

TEST(ShilStrength, TooWeakFailsToDiscretize) {
  const auto g = graph::kings_graph(4, 4);
  auto params = analysis::default_machine_config().network;
  params.shil_gain = 2.0e7;  // far below the coupling gain
  phase::PhaseBatch net(g, params, 1);
  net.set_couplings_active(true);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, 0.0);
  util::Rng rng(5);
  net.randomize_phases(0, rng);
  net.run(20e-9, {&rng, 1});
  const std::vector<double> psi(g.num_nodes(), 0.0);
  EXPECT_GT(phase::max_lock_residual(net.theta_flat(), psi, 2), 0.3)
      << "a SHIL much weaker than the coupling cannot pin the phases";
}

// --- Coupling strength: solution quality needs a window -------------------

class CouplingStrengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(CouplingStrengthSweep, WorkingWindowKeepsQuality) {
  const double gain = GetParam();
  const auto g = graph::kings_graph_square(5);
  auto cfg = analysis::default_machine_config();
  cfg.network.coupling_gain = gain;
  const double best = best_accuracy_with(cfg, g);
  EXPECT_GE(best, 0.85) << "coupling gain " << gain;
}

INSTANTIATE_TEST_SUITE_P(Gains, CouplingStrengthSweep,
                         ::testing::Values(4.0e8, 8.0e8, 1.2e9));

TEST(CouplingStrength, TooWeakDegradesQuality) {
  const auto g = graph::kings_graph_square(5);
  auto cfg = analysis::default_machine_config();
  cfg.network.coupling_gain = 5.0e6;  // phases barely interact in 20 ns
  const double weak = best_accuracy_with(cfg, g);
  cfg = analysis::default_machine_config();
  const double nominal = best_accuracy_with(cfg, g);
  EXPECT_LT(weak, nominal);
  EXPECT_LT(weak, 0.9);
}

// --- Noise: moderate jitter anneals, heavy jitter destroys ----------------

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, ModerateJitterPreservesQuality) {
  const auto g = graph::kings_graph_square(5);
  auto cfg = analysis::default_machine_config();
  cfg.network.noise_stddev = GetParam();
  EXPECT_GE(best_accuracy_with(cfg, g), 0.85)
      << "noise " << GetParam() << " rad/sqrt(s)";
}

INSTANTIATE_TEST_SUITE_P(Levels, NoiseSweep,
                         ::testing::Values(0.0, 1.0e3, 2.0e3, 4.0e3));

TEST(NoiseSweepExtreme, HeavyJitterDegrades) {
  const auto g = graph::kings_graph_square(5);
  auto cfg = analysis::default_machine_config();
  cfg.network.noise_stddev = 1.0e5;  // phase diffuses ~ pi per ns
  const double noisy = best_accuracy_with(cfg, g);
  EXPECT_LT(noisy, 0.95);
}

// --- Schedule: longer annealing never hurts on average ------------------

class AnnealLengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(AnnealLengthSweep, PaperLengthIsSufficient) {
  const auto g = graph::kings_graph_square(5);
  auto cfg = analysis::default_machine_config();
  cfg.schedule.anneal_s = GetParam();
  EXPECT_GE(best_accuracy_with(cfg, g), 0.85)
      << "anneal " << GetParam() * 1e9 << " ns";
}

INSTANTIATE_TEST_SUITE_P(Durations, AnnealLengthSweep,
                         ::testing::Values(10e-9, 20e-9, 40e-9));

TEST(AnnealLength, FarTooShortDegrades) {
  const auto g = graph::kings_graph_square(6);
  auto cfg = analysis::default_machine_config();
  cfg.schedule.anneal_s = 0.3e-9;  // well under one coupling time constant
  const double rushed = best_accuracy_with(cfg, g);
  cfg = analysis::default_machine_config();
  const double nominal = best_accuracy_with(cfg, g);
  EXPECT_LE(rushed, nominal);
}

// --- Solution invariants over random problem instances --------------------

class RandomInstanceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomInstanceSweep, MachineInvariantsHoldOnPlanarInstances) {
  util::Rng grng(GetParam());
  const auto g = graph::triangulated_grid(5, 5, grng);
  core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
  util::Rng rng(GetParam() + 1000);
  const auto r = machine.solve(rng);
  // Invariant 1: colors in palette.
  for (auto c : r.colors) EXPECT_LT(c, 4);
  // Invariant 2: stage-2 active edges = stage-1 uncut edges.
  EXPECT_EQ(r.stages[1].active_edges,
            r.stages[0].active_edges - r.stages[0].cut_edges);
  // Invariant 3: satisfied edges = edges cut in some stage.
  EXPECT_EQ(graph::count_satisfied_edges(g, r.colors),
            r.stages[0].cut_edges + r.stages[1].cut_edges);
  // Invariant 4: cross-stage-1-cut edges are never conflicts.
  for (const auto& e : g.edges()) {
    if (r.stages[0].bits[e.u] != r.stages[0].bits[e.v]) {
      EXPECT_NE(r.colors[e.u], r.colors[e.v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

}  // namespace
