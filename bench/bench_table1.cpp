// Regenerates paper Table 1: "Statistics from the simulations".
//
//   Graph size | Search space | Iterations | Average power | Top accuracy
//
// for the four King's-graph instances (49 / 400 / 1024 / 2116 nodes), each
// run for 40 iterations on the phase-domain MSROPM with the paper's 60 ns
// schedule. Power comes from the activity-based model (see
// msropm/power/power_model.hpp); paper-reported values are printed
// alongside for comparison.

#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/power/power_model.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

int main() {
  std::printf("=== Table 1: Statistics from the simulations ===\n");
  std::printf("(40 iterations per instance, 60 ns schedule, seed 7)\n\n");

  const double paper_power_mw[] = {9.4, 60.3, 146.1, 283.4};
  const double paper_top_acc[] = {1.00, 0.98, 0.97, 0.97};

  util::TextTable table({"Graph size", "Search space", "Iterations",
                         "Avg power (model)", "Avg power (paper)",
                         "Top accuracy", "Top acc (paper)", "Mean acc",
                         "Exact solutions"});

  const power::PowerModel power_model;
  std::size_t row = 0;
  for (const auto& problem : analysis::paper_problems()) {
    const auto g = analysis::build_paper_graph(problem);
    core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
    core::RunnerOptions opts;
    opts.iterations = 40;
    opts.seed = 7;
    const auto summary = core::run_iterations(machine, opts);

    const double power_mw =
        power_model.average_power_w(g.num_nodes(), g.num_edges()) * 1e3;

    table.add_row({problem.name,
                   util::format_pow(4, g.num_nodes()),
                   "40",
                   util::format_double(power_mw, 1) + " mW",
                   util::format_double(paper_power_mw[row], 1) + " mW",
                   util::format_double(summary.best_accuracy, 2),
                   util::format_double(paper_top_acc[row], 2),
                   util::format_double(summary.mean_accuracy, 3),
                   std::to_string(summary.exact_solutions) + "/40"});
    ++row;
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Notes: search space 4^N as in the paper; power from the CV^2f model\n"
      "calibrated on the 49- and 2116-node rows (400/1024 are predictions);\n"
      "a complete run is 60 ns regardless of problem size.\n");
  return 0;
}
