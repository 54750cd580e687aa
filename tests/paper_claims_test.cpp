// The paper's Table 1 claims as a regression gate: best-of-40 runs of the
// tuned machine on the 49/400/1024/2116-node King's graphs must reach the
// published top accuracies (1.00/0.98/0.97/0.97) to within 0.01, with at
// least one exact 7x7 coloring, and their mean accuracies must stay within
// 0.01 of the values recorded below. Seeds 7 and 8 are the benchmark's
// table1 seeds. Any change to the phase kernel's trajectories must keep
// these; re-record the means only with a stated reason.
#include <gtest/gtest.h>

#include <cstdint>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"

namespace {

using namespace msropm;

constexpr double kPaperTop[] = {1.00, 0.98, 0.97, 0.97};
constexpr double kTolerance = 0.01;

struct SeedRecord {
  std::uint64_t seed;
  double mean_accuracy[4];  ///< per paper problem, in paper_problems() order
};

// Recorded with the lane-group phase kernel (AVX-512 host, width 8).
// Re-recorded when the default integration step went from 20 ps to 50 ps,
// which changes every trajectory (bench_ablation_schedule's step-size study
// shows the accuracy is unchanged up to 160 ps).
constexpr SeedRecord kRecorded[] = {
    {7, {0.969231, 0.973904, 0.969796, 0.968739}},
    {8, {0.980128, 0.972925, 0.971320, 0.969823}},
};

TEST(PaperClaims, Table1BestOfFortyAccuracies) {
  const auto problems = analysis::paper_problems();
  ASSERT_EQ(problems.size(), 4u);
  const core::MsropmConfig config = analysis::default_machine_config();
  for (const SeedRecord& record : kRecorded) {
    for (std::size_t p = 0; p < problems.size(); ++p) {
      SCOPED_TRACE(problems[p].name + " seed " + std::to_string(record.seed));
      const graph::Graph g = analysis::build_paper_graph(problems[p]);
      const core::MultiStagePottsMachine machine(g, config);
      core::RunnerOptions options;
      options.iterations = 40;
      options.seed = record.seed;
      options.num_threads = 2;
      const core::RunSummary summary = core::run_iterations(machine, options);
      ASSERT_EQ(summary.completed, 40u);
      EXPECT_GE(summary.best_accuracy, kPaperTop[p] - kTolerance);
      EXPECT_NEAR(summary.mean_accuracy, record.mean_accuracy[p], kTolerance);
      if (p == 0) {
        EXPECT_GE(summary.exact_solutions, 1u) << "no exact 7x7 coloring";
      }
    }
  }
}

}  // namespace
