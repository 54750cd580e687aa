// Cross-engine validation of Fig. 5(a) at the paper's smallest size: the
// waveform-level circuit engine (11-stage inverter rings, RK4 transients,
// DFF readout) runs the full 60 ns schedule on the 49-node King's graph.
//
// The headline experiments use the phase-domain engine for tractability;
// this bench shows the two engines agree statistically where the circuit
// engine is affordable -- the reproduction's substitution of the ROIM phase
// dynamics (paper Sec. 2.3) for the paper's circuit simulations made
// measurable.

#include <algorithm>
#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/circuit_machine.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stats.hpp"

using namespace msropm;

int main() {
  std::printf("=== Fig. 5(a) cross-engine check: circuit vs phase engine ===\n");
  std::printf("(49-node King's graph, full 60 ns schedule, 16 iterations)\n\n");

  const auto g = graph::kings_graph_square(7);

  // --- circuit engine (RK4 transient of every stage voltage) -------------
  core::CircuitMsropmConfig ccfg;
  ccfg.fabric.dt = 2e-12;  // 385 steps per oscillation period
  const core::CircuitMsropm circuit_machine(g, ccfg);
  util::RunningStats circuit_stats;
  double circuit_best = 0.0;
  std::printf("circuit engine accuracies:");
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    const auto r = circuit_machine.solve(rng);
    const double acc = graph::coloring_accuracy(g, r.colors);
    circuit_stats.add(acc);
    circuit_best = std::max(circuit_best, acc);
    std::printf(" %.3f", acc);
  }
  std::printf("\n");

  // --- phase engine, same instance and protocol --------------------------
  const core::MultiStagePottsMachine phase_machine(
      g, analysis::default_machine_config());
  core::RunnerOptions opts;
  opts.iterations = 16;
  opts.seed = 1;
  const auto summary = core::run_iterations(phase_machine, opts);

  std::printf("\n%-16s %-10s %-10s %-10s\n", "engine", "best", "mean",
              "worst");
  std::printf("%-16s %-10.3f %-10.3f %-10.3f\n", "circuit (RK4)", circuit_best,
              circuit_stats.mean(), circuit_stats.min());
  std::printf("%-16s %-10.3f %-10.3f %-10.3f\n", "phase (Adler)",
              summary.best_accuracy, summary.mean_accuracy,
              summary.worst_accuracy);
  std::printf("\npaper (Fig. 5a, 49-node): best 1.00, avg 0.98, worst 0.92\n");
  std::printf("Agreement criterion: both engines' means within a few points\n"
              "of the paper's 0.98 and of each other.\n");
  return 0;
}
