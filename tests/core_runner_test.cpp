// Tests for the best-of-N iteration runner.
#include "msropm/core/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "msropm/analysis/experiments.hpp"
#include "msropm/graph/builders.hpp"

namespace {

using namespace msropm;
using core::MultiStagePottsMachine;
using core::RunnerOptions;
using core::run_iterations;

MultiStagePottsMachine small_machine(const graph::Graph& g) {
  return MultiStagePottsMachine(g, analysis::default_machine_config());
}

TEST(Runner, ProducesRequestedIterations) {
  const auto g = graph::kings_graph(4, 4);
  const auto machine = small_machine(g);
  RunnerOptions opts;
  opts.iterations = 8;
  opts.seed = 3;
  const auto summary = run_iterations(machine, opts);
  EXPECT_EQ(summary.iterations.size(), 8u);
  EXPECT_EQ(summary.accuracy_series().size(), 8u);
  EXPECT_EQ(summary.stage1_cut_series().size(), 8u);
}

TEST(Runner, RejectsIterationCountAboveTheCapBeforeAllocating) {
  const auto g = graph::kings_graph(3, 3);
  const auto machine = small_machine(g);
  RunnerOptions opts;
  opts.iterations = 1'000'000'000'000;  // would not fit in memory
  EXPECT_THROW((void)run_iterations(machine, opts), std::invalid_argument);
  opts.iterations = core::kMaxIterations + 1;
  EXPECT_THROW((void)run_iterations(machine, opts), std::invalid_argument);
}

TEST(Runner, SummaryStatisticsConsistent) {
  const auto g = graph::kings_graph(5, 5);
  const auto machine = small_machine(g);
  RunnerOptions opts;
  opts.iterations = 12;
  opts.seed = 5;
  const auto summary = run_iterations(machine, opts);
  const auto series = summary.accuracy_series();
  EXPECT_DOUBLE_EQ(summary.best_accuracy,
                   *std::max_element(series.begin(), series.end()));
  EXPECT_DOUBLE_EQ(summary.worst_accuracy,
                   *std::min_element(series.begin(), series.end()));
  double total = 0.0;
  for (double a : series) total += a;
  EXPECT_NEAR(summary.mean_accuracy, total / series.size(), 1e-12);
  EXPECT_DOUBLE_EQ(series[summary.best_index], summary.best_accuracy);
  std::size_t exact = 0;
  for (double a : series) exact += (a >= 1.0) ? 1 : 0;
  EXPECT_EQ(summary.exact_solutions, exact);
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  // Per-iteration RNG streams are keyed on (seed, index), so scheduling
  // cannot change results.
  const auto g = graph::kings_graph(4, 4);
  const auto machine = small_machine(g);
  RunnerOptions serial;
  serial.iterations = 6;
  serial.seed = 11;
  serial.num_threads = 1;
  RunnerOptions parallel = serial;
  parallel.num_threads = 4;
  const auto s1 = run_iterations(machine, serial);
  const auto s2 = run_iterations(machine, parallel);
  EXPECT_EQ(s1.accuracy_series(), s2.accuracy_series());
  EXPECT_EQ(s1.best_index, s2.best_index);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s1.iterations[i].result.colors, s2.iterations[i].result.colors);
  }
}

TEST(Runner, DifferentSeedsGiveDifferentSeries) {
  const auto g = graph::kings_graph(5, 5);
  const auto machine = small_machine(g);
  RunnerOptions a;
  a.iterations = 6;
  a.seed = 1;
  RunnerOptions b = a;
  b.seed = 2;
  EXPECT_NE(run_iterations(machine, a).accuracy_series(),
            run_iterations(machine, b).accuracy_series());
}

TEST(Runner, BestColoringMatchesBestIndex) {
  const auto g = graph::kings_graph(4, 4);
  const auto machine = small_machine(g);
  RunnerOptions opts;
  opts.iterations = 5;
  opts.seed = 9;
  const auto summary = run_iterations(machine, opts);
  EXPECT_DOUBLE_EQ(graph::coloring_accuracy(g, summary.best_coloring()),
                   summary.best_accuracy);
}

TEST(Runner, Stage1CutRecorded) {
  const auto g = graph::kings_graph(4, 4);
  const auto machine = small_machine(g);
  RunnerOptions opts;
  opts.iterations = 4;
  opts.seed = 13;
  const auto summary = run_iterations(machine, opts);
  const std::vector<double> cuts = summary.stage1_cut_series();
  ASSERT_EQ(cuts.size(), summary.iterations.size());
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const std::size_t cut = summary.iterations[i].result.stages.front().cut_edges;
    EXPECT_GT(cut, 0u);
    EXPECT_LE(cut, g.num_edges());
    EXPECT_EQ(cuts[i], static_cast<double>(cut));
  }
}

TEST(Runner, PaperIterationCountDefault) {
  RunnerOptions opts;
  EXPECT_EQ(opts.iterations, 40u) << "the paper runs 40 iterations";
}

}  // namespace
