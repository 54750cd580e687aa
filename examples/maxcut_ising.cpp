// Max-cut as a single-stage Ising run: the MSROPM's stage 1 *is* an
// oscillator Ising machine (Sec. 2.1 / Fig. 1). With K = 2 the machine does
// one anneal + one SHIL binarization and the readout bits form a max-cut
// bipartition -- the COP solved by the ROIM/RTWOIM rows of Table 2.
//
// The example cuts a 20x20 King's graph, compares against the simulated-
// annealing baseline (the accuracy reference used by [9]) and prints the
// Ising energies (Eq. 1) of both assignments.
//
// Run: ./build/examples/maxcut_ising [iterations] [seed]

#include <cstdio>
#include <cstdlib>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/model/ising.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace msropm;

  const int iterations = argc > 1 ? std::atoi(argv[1]) : 20;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 11;

  const graph::Graph g = graph::kings_graph_square(20);
  std::printf("problem: max-cut on a %zu-node King's graph (%zu edges)\n",
              g.num_nodes(), g.num_edges());

  // K = 2 collapses the multi-stage machine to a single-stage Ising solve.
  core::MsropmConfig config = analysis::default_machine_config();
  config.num_colors = 2;
  const core::MultiStagePottsMachine machine(g, config);
  std::printf("machine: %u stage(s), %.0f ns per run\n", config.num_stages(),
              config.total_time_s() * 1e9);

  std::size_t best_cut = 0;
  model::CutAssignment best_sides;
  util::Rng rng(seed);
  for (int it = 0; it < iterations; ++it) {
    const auto result = machine.solve(rng);
    const auto sides = result.stage1_cut();
    const std::size_t cut = model::cut_value(g, sides);
    if (cut > best_cut) {
      best_cut = cut;
      best_sides = sides;
    }
  }

  // Baseline: simulated annealing (the reference used by the RTWOIM paper),
  // one K = 2 Potts anneal.
  util::Rng sa_rng(seed + 1);
  const auto sa = solvers::best_known_maxcut(g, 1, sa_rng);

  const model::IsingModel ising(g, -1.0);  // anti-ferromagnetic couplings
  std::printf("MSROPM best of %d: cut %zu  (Ising energy %.0f)\n", iterations,
              best_cut, ising.energy(model::spins_from_cut(best_sides)));
  std::printf("SA baseline:       cut %zu  (Ising energy %.0f)\n", sa.cut,
              ising.energy(model::spins_from_cut(sa.sides)));
  std::printf("accuracy vs SA: %.3f\n",
              static_cast<double>(best_cut) / static_cast<double>(sa.cut));
  return 0;
}
