// Cross-module integration tests: the full reproduction pipeline on the
// 49-node paper instance, engine cross-validation and baseline agreement.
#include <gtest/gtest.h>

#include <algorithm>

#include "msropm/analysis/experiments.hpp"
#include "msropm/analysis/hamming.hpp"
#include "msropm/core/circuit_machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/stats.hpp"

namespace {

using namespace msropm;

class PaperPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::Graph(graph::kings_graph_square(7));
    auto machine = new core::MultiStagePottsMachine(
        *graph_, analysis::default_machine_config());
    core::RunnerOptions opts;
    opts.iterations = 40;  // the paper's protocol
    opts.seed = 7;
    summary_ = new core::RunSummary(core::run_iterations(*machine, opts));
    machine_ = machine;
  }
  static void TearDownTestSuite() {
    delete summary_;
    delete machine_;
    delete graph_;
    summary_ = nullptr;
    machine_ = nullptr;
    graph_ = nullptr;
  }

  static graph::Graph* graph_;
  static core::MultiStagePottsMachine* machine_;
  static core::RunSummary* summary_;
};

graph::Graph* PaperPipeline::graph_ = nullptr;
core::MultiStagePottsMachine* PaperPipeline::machine_ = nullptr;
core::RunSummary* PaperPipeline::summary_ = nullptr;

TEST_F(PaperPipeline, SatBaselineCertifiesExactSolutionExists) {
  // "Exact solutions of the problems are computed using a generic SAT
  //  solver, which serves as the baseline" (Sec. 4).
  const auto exact = sat::solve_exact_coloring(*graph_, 4);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(graph::coloring_accuracy(*graph_, *exact), 1.0);
}

TEST_F(PaperPipeline, ReachesExactSolutionWithin40Iterations) {
  // Paper: the 49-node problem reaches 100% accuracy 6 times in 40 runs.
  EXPECT_GE(summary_->exact_solutions, 1u);
  EXPECT_DOUBLE_EQ(summary_->best_accuracy, 1.0);
}

TEST_F(PaperPipeline, AverageAccuracyNear98Percent) {
  // Paper: average 98%, worst observed 92%.
  EXPECT_GE(summary_->mean_accuracy, 0.95);
  EXPECT_GE(summary_->worst_accuracy, 0.90);
}

TEST_F(PaperPipeline, Stage1AccuracyCorrelatesWithFinal) {
  // Fig. 5(b) discussion: "1st stage accuracy has, in general, positive
  // correlation with the final 4-coloring accuracy".
  const double corr = util::pearson_correlation(summary_->stage1_cut_series(),
                                                summary_->accuracy_series());
  EXPECT_GT(corr, 0.2);
}

TEST_F(PaperPipeline, SolutionsAreDiverse) {
  // Fig. 5(c): solutions with similar accuracy are significantly different.
  std::vector<graph::Coloring> solutions;
  for (const auto& it : summary_->iterations) {
    solutions.push_back(it.result.colors);
  }
  const auto distances = analysis::pairwise_hamming(solutions);
  util::SampleSet set;
  for (double d : distances) set.add(d);
  EXPECT_GT(set.mean(), 0.3);
  EXPECT_LT(set.mean(), 0.9);
}

TEST_F(PaperPipeline, Stage1CutsNearBestKnownMaxcut) {
  util::Rng rng(99);
  const auto ref = solvers::best_known_maxcut(*graph_, 10, rng);
  const auto cuts = summary_->stage1_cut_series();
  const double best_cut = *std::max_element(cuts.begin(), cuts.end());
  EXPECT_GE(best_cut / static_cast<double>(ref.cut), 0.9);
}

TEST(EngineCrossValidation, PhaseAndCircuitAgreeOnBehaviour) {
  // Both engines implement the same architecture; on a tiny instance both
  // must produce 4-partitions whose cross-cut edges are properly colored and
  // with comparable stage-1 cut quality.
  const auto g = graph::kings_graph(2, 3);

  core::MultiStagePottsMachine phase_machine(
      g, analysis::default_machine_config());
  util::Rng rng1(3);
  const auto phase_result = phase_machine.solve(rng1);

  core::CircuitMsropmConfig circuit_cfg;
  circuit_cfg.schedule.init_s = 3e-9;
  circuit_cfg.schedule.anneal_s = 8e-9;
  circuit_cfg.schedule.discretize_s = 4e-9;
  circuit_cfg.schedule.reinit_s = 3e-9;
  core::CircuitMsropm circuit_machine(g, circuit_cfg);
  util::Rng rng2(3);
  const auto circuit_result = circuit_machine.solve(rng2);

  // Architectural invariant in both: stage-1-cut edges are conflict-free.
  for (const auto& e : g.edges()) {
    if (phase_result.stages[0].bits[e.u] != phase_result.stages[0].bits[e.v]) {
      EXPECT_NE(phase_result.colors[e.u], phase_result.colors[e.v]);
    }
    if (circuit_result.stage1_bits[e.u] != circuit_result.stage1_bits[e.v]) {
      EXPECT_NE(circuit_result.colors[e.u], circuit_result.colors[e.v]);
    }
  }
}

TEST(BaselineAgreement, AllSolversReachProperColoringOnEasyInstance) {
  const auto g = graph::kings_graph_square(5);
  util::Rng rng(17);

  const auto sat_coloring = sat::solve_exact_coloring(g, 4);
  ASSERT_TRUE(sat_coloring.has_value());

  solvers::SaPottsOptions sa_opts;
  const auto sa = solvers::solve_sa_potts(g, sa_opts, rng);
  EXPECT_EQ(sa.conflicts, 0u);

  core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
  core::RunnerOptions ropts;
  ropts.iterations = 20;
  ropts.seed = 23;
  const auto summary = core::run_iterations(machine, ropts);
  EXPECT_DOUBLE_EQ(summary.best_accuracy, 1.0)
      << "the MSROPM must match software baselines on a 25-node instance";
}

TEST(DivideAndColorInvariant, UncutEdgesAreExactlyTheConflicts) {
  // Whole-pipeline check of the divide-and-color algebra on a mid-size run.
  const auto g = graph::kings_graph_square(10);
  core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
  util::Rng rng(29);
  const auto r = machine.solve(rng);
  std::size_t uncut = 0;
  for (const auto& e : g.edges()) {
    const bool cut1 = r.stages[0].bits[e.u] != r.stages[0].bits[e.v];
    const bool cut2 = r.stages[1].bits[e.u] != r.stages[1].bits[e.v];
    if (!cut1 && !cut2) ++uncut;
  }
  EXPECT_EQ(graph::count_conflicts(g, r.colors), uncut);
}

}  // namespace
