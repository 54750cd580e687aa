// Ablation: Potts vs one-hot Ising encoding (paper Sec. 2.2, Eq. 5).
//
// "N distinct spins (binary-valued) are required for each one of the n
//  vertices ... with in total n*N spins. Instead, when Potts model is used
//  ... a representation with only [n] spins."
//
// This bench materializes Eq. 5 for the four paper instances and reports the
// spin-count and coupling-count blow-up of the Ising formulation, plus an
// energy sanity check that the two encodings agree on solution quality.

#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/model/onehot.hpp"
#include "msropm/model/potts.hpp"
#include "msropm/solvers/dsatur.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

int main() {
  std::printf("=== Ablation: Potts encoding vs one-hot Ising (Eq. 5) ===\n\n");

  util::TextTable table({"instance", "Potts spins", "Ising spins (n*K)",
                         "Potts couplings", "Ising quadratic terms",
                         "blow-up"});

  for (const auto& problem : analysis::paper_problems()) {
    const auto g = analysis::build_paper_graph(problem);
    const model::OneHotColoringModel onehot(g, 4);
    const double blowup =
        static_cast<double>(onehot.num_quadratic_terms()) /
        static_cast<double>(g.num_edges());
    table.add_row({problem.name, std::to_string(g.num_nodes()),
                   std::to_string(onehot.num_binary_spins()),
                   std::to_string(g.num_edges()),
                   std::to_string(onehot.num_quadratic_terms()),
                   util::format_double(blowup, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());

  // Energy agreement: for any proper one-hot encoding, Eq. 5's energy equals
  // the Potts conflict count.
  const auto g = graph::kings_graph_square(7);
  const model::OneHotColoringModel onehot(g, 4);
  const model::PottsModel potts(g, 4, 1.0);
  const auto coloring = solvers::solve_dsatur_bounded(g, 4).colors;
  const double e_onehot = onehot.energy(onehot.encode(coloring));
  const double e_potts = potts.energy(coloring);
  std::printf("energy cross-check on 49-node instance: Eq.5 = %.1f, "
              "Potts = %.1f (%s)\n\n",
              e_onehot, e_potts, e_onehot == e_potts ? "agree" : "DISAGREE");

  std::printf("Reading: the MSROPM represents each vertex with ONE oscillator\n"
              "(n spins, m couplings); the Ising formulation needs 4x the\n"
              "spins and ~5.5x the couplings, which is the paper's motivation\n"
              "for a native Potts machine.\n");
  return 0;
}
