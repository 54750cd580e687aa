// Regenerates paper Fig. 5:
//  (a) 4-coloring accuracy across 40 iterations for the 49/400/1024-node
//      problems,
//  (b) stage-1 max-cut accuracy across the same iterations (normalized to a
//      best-known SA reference cut) plus the stage-1/final correlation the
//      paper discusses,
//  (c) histograms of pairwise Hamming distance between the 40 solutions.

#include <algorithm>
#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/analysis/hamming.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/solvers/maxcut_bb.hpp"
#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/histogram.hpp"
#include "msropm/util/stats.hpp"

using namespace msropm;

namespace {

void render_series(const char* label, const std::vector<double>& series) {
  std::printf("%s\n  iter: ", label);
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("%s%.3f", i ? " " : "", series[i]);
  }
  std::printf("\n");
  // Coarse sparkline in the paper's 0.8..1.0 axis range.
  std::printf("  0.8..1.0: ");
  for (double v : series) {
    const double clamped = std::clamp(v, 0.8, 1.0);
    const int level = static_cast<int>((clamped - 0.8) / 0.2 * 4.0);
    std::printf("%c", ".:-=#"[std::clamp(level, 0, 4)]);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 5: accuracy / max-cut / Hamming analysis ===\n");
  std::printf("(40 iterations, seed 7; max-cut reference: certified optimum\n"
              " from branch&bound on the 49-node instance, best of 10 SA runs\n"
              " for the larger sizes)\n");

  const auto problems = analysis::paper_problems();
  // The paper plots the first three sizes in Fig. 5.
  for (std::size_t p = 0; p < 3; ++p) {
    const auto& problem = problems[p];
    const auto g = analysis::build_paper_graph(problem);
    core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
    core::RunnerOptions opts;
    opts.iterations = 40;
    opts.seed = 7;
    const auto summary = core::run_iterations(machine, opts);

    util::Rng ref_rng(99);
    auto ref = solvers::best_known_maxcut(g, 10, ref_rng);
    bool certified = false;
    if (g.num_nodes() <= 49) {
      const auto exact = solvers::solve_maxcut_bb(g);
      if (exact.optimal) {
        ref.cut = exact.cut;
        ref.sides = exact.sides;
        certified = true;
      }
    }

    std::printf("\n--- %s problem (|V|=%zu, |E|=%zu, ref cut %zu%s) ---\n",
                problem.name.c_str(), g.num_nodes(), g.num_edges(), ref.cut,
                certified ? " [certified optimal]" : "");

    // (a) 4-coloring accuracy series.
    render_series("(a) 2nd stage 4-coloring accuracy:",
                  summary.accuracy_series());
    std::printf("    best %.3f  mean %.3f  worst %.3f  exact %zu/40\n",
                summary.best_accuracy, summary.mean_accuracy,
                summary.worst_accuracy, summary.exact_solutions);

    // (b) stage-1 max-cut accuracy series.
    std::vector<double> cut_acc;
    for (const auto& it : summary.iterations) {
      cut_acc.push_back(analysis::maxcut_accuracy(
          it.result.stages.front().cut_edges, ref.cut));
    }
    render_series("(b) 1st stage max-cut accuracy:", cut_acc);
    const double corr = util::pearson_correlation(cut_acc,
                                                  summary.accuracy_series());
    std::printf("    stage-1 vs final accuracy Pearson r = %.3f "
                "(paper: 'positive correlation')\n", corr);

    // (c) Hamming distance histogram.
    std::vector<graph::Coloring> solutions;
    for (const auto& it : summary.iterations) {
      solutions.push_back(it.result.colors);
    }
    const auto distances = analysis::pairwise_hamming(solutions);
    util::Histogram hist(0.0, 1.0, 10);
    hist.add_all(distances);
    util::SampleSet set;
    for (double d : distances) set.add(d);
    std::printf("(c) pairwise Hamming distances (%zu pairs, mean %.3f):\n%s",
                distances.size(), set.mean(), hist.render_ascii(40).c_str());
  }

  std::printf("\nDone. Shapes to check against the paper: accuracy band\n"
              "narrows and drops slightly with size; exact solutions only on\n"
              "the 49-node problem; Hamming mass away from 0 showing diverse\n"
              "solutions.\n");
  return 0;
}
