// Regenerates the size, search-space and power columns of paper Table 1,
// "Statistics from the simulations", for the four King's-graph instances
// (49 / 400 / 1024 / 2116 nodes). Power comes from the activity-based model
// (see msropm/power/power_model.hpp); paper-reported values are printed
// alongside for comparison. The table's accuracy columns are gated, not
// printed: tests/paper_claims_test.cpp runs the 40-iteration machine and
// checks the paper's top accuracies.

#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/power/power_model.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

int main() {
  std::printf("=== Table 1: Statistics from the simulations ===\n");
  std::printf("(size, search space and power; accuracy: paper_claims_test)\n\n");

  const double paper_power_mw[] = {9.4, 60.3, 146.1, 283.4};

  util::TextTable table({"Graph size", "Search space", "Avg power (model)",
                         "Avg power (paper)"});

  const power::PowerModel power_model;
  std::size_t row = 0;
  for (const auto& problem : analysis::paper_problems()) {
    const auto g = analysis::build_paper_graph(problem);
    const double power_mw =
        power_model.average_power_w(g.num_nodes(), g.num_edges()) * 1e3;

    table.add_row({problem.name,
                   util::format_pow(4, g.num_nodes()),
                   util::format_double(power_mw, 1) + " mW",
                   util::format_double(paper_power_mw[row], 1) + " mW"});
    ++row;
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Notes: search space 4^N as in the paper; power from the CV^2f model\n"
      "calibrated on the 49- and 2116-node rows (400/1024 are predictions);\n"
      "a complete run is 60 ns regardless of problem size.\n");
  return 0;
}
