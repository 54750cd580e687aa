// Max-K-cut on the MSROPM -- the other Potts-native COP the paper names
// ("graph coloring or max-K-cut", Sec. 1). Unlike coloring, max-K-cut is
// interesting precisely when the graph is NOT K-partitionable without
// monochromatic edges: the objective is to maximize cut edges, and the
// machine's best coloring *is* its best K-cut (satisfied edge = cut edge).
//
// The example cuts a dense random graph (chromatic number >> 4, so no
// perfect 4-cut exists), compares against the uniform-random expectation
// m*(1 - 1/K) -- the classic baseline every sensible heuristic must beat --
// and against software SA.
//
// Run: ./build/examples/max_kcut [nodes=120] [p=0.3] [seed=5]

#include <cstdio>
#include <cstdlib>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace msropm;

  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 120;
  const double p = argc > 2 ? std::atof(argv[2]) : 0.3;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 5;

  util::Rng graph_rng(seed);
  const auto g = graph::erdos_renyi(n, p, graph_rng);
  std::printf("problem: max-4-cut on G(%zu, %.2f): %zu edges\n", n, p,
              g.num_edges());
  const double random_baseline = model::kcut_random_expectation(g, 4);
  std::printf("uniform random 4-partition expectation: %.0f cut edges\n",
              random_baseline);

  const core::MultiStagePottsMachine machine(
      g, analysis::default_machine_config());
  core::RunnerOptions opts;
  opts.iterations = 40;
  opts.seed = seed;
  const auto summary = core::run_iterations(machine, opts);
  const model::KCutAssignment parts(summary.best_coloring().begin(),
                                    summary.best_coloring().end());
  const std::size_t machine_cut = model::cut_value(g, parts);

  util::Rng sa_rng(seed + 1);
  solvers::SaPottsOptions sa_opts;
  const auto sa = solvers::solve_sa_potts(g, sa_opts, sa_rng);
  const model::KCutAssignment sa_parts(sa.colors.begin(), sa.colors.end());
  const std::size_t sa_cut = model::cut_value(g, sa_parts);

  std::printf("\n%-28s %-10s %-12s\n", "solver", "cut", "vs random");
  std::printf("%-28s %-10zu %+.1f%%\n", "MSROPM (best of 40, 60 ns)",
              machine_cut,
              100.0 * (static_cast<double>(machine_cut) - random_baseline) /
                  random_baseline);
  std::printf("%-28s %-10zu %+.1f%%\n", "simulated annealing (sw)", sa_cut,
              100.0 * (static_cast<double>(sa_cut) - random_baseline) /
                  random_baseline);
  std::printf("\n(every satisfied coloring edge is a cut edge: the Potts\n"
              "machine solves max-K-cut and K-coloring with the same flow)\n");
  return machine_cut > static_cast<std::size_t>(random_baseline) ? 0 : 1;
}
