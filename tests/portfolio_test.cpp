// Tests for the solver portfolio and the batch sweep engine: strategy
// plumbing, fixed-seed determinism, verdict identity across worker counts,
// UNSAT proofs, timeouts, the watchdog retry of an injected machine fault,
// and the report table.
#include "msropm/portfolio/portfolio.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/portfolio/sweep.hpp"
#include "msropm/util/fault_injector.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using portfolio::PortfolioOptions;
using portfolio::PortfolioResult;
using portfolio::Schedule;
using portfolio::StrategyKind;
using portfolio::Verdict;

std::vector<portfolio::InstanceSpec> small_grid() {
  std::vector<portfolio::InstanceSpec> instances;
  for (const std::size_t side : {5, 7, 9, 11}) {
    instances.push_back(portfolio::kings_instance(side, 4));
  }
  for (const std::size_t side : {4, 6, 8}) {
    instances.push_back(portfolio::kings_instance(side, 3));  // UNSAT
  }
  return instances;
}

TEST(Portfolio, StrategyNamesRoundTrip) {
  for (const auto kind :
       {StrategyKind::kDsatur, StrategyKind::kCdcl, StrategyKind::kTabucol,
        StrategyKind::kMsropm}) {
    const auto parsed = portfolio::strategy_from_string(portfolio::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  for (const char* name : {"minisat", "cdcl-pre", "cdcl-inc", "sa"}) {
    EXPECT_FALSE(portfolio::strategy_from_string(name).has_value()) << name;
  }
}

TEST(Portfolio, DefaultLineupIsDsaturCdclTabucol) {
  const auto strategies = portfolio::default_strategies();
  ASSERT_EQ(strategies.size(), 3u);
  EXPECT_EQ(strategies[0].kind, StrategyKind::kDsatur);
  EXPECT_EQ(strategies[1].kind, StrategyKind::kCdcl);
  EXPECT_EQ(strategies[2].kind, StrategyKind::kTabucol);
}

TEST(Portfolio, TabucolColorsWhatDsaturCannotAndCdclDoesNotFinish) {
  // G(150, 0.3) at K=13: DSATUR needs 15 colors and CDCL does not finish
  // within 1000 conflicts, but tabucol finds a proper 13-coloring. This is
  // the case the default lineup's third slot exists for (README, "Default
  // lineup"); without it the instance stays unknown.
  util::Rng rng(1150);
  const auto g = graph::erdos_renyi(150, 0.3, rng);
  PortfolioOptions options;
  options.budget.max_conflicts = 1000;
  const PortfolioResult result = portfolio::solve_portfolio(g, 13, options);
  EXPECT_EQ(result.verdict, Verdict::kColored);
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(options.strategies[static_cast<std::size_t>(result.winner)].kind,
            StrategyKind::kTabucol);
  ASSERT_TRUE(result.coloring.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *result.coloring, 13));
  EXPECT_EQ(result.outcomes[0].verdict, Verdict::kUnknown);
  EXPECT_EQ(result.outcomes[1].limit, util::LimitReason::kConflicts);

  options.strategies.pop_back();  // dsatur, cdcl only
  const PortfolioResult without_tabucol =
      portfolio::solve_portfolio(g, 13, options);
  EXPECT_EQ(without_tabucol.verdict, Verdict::kUnknown);
}

TEST(Portfolio, SolvesSatisfiableInstance) {
  const auto g = graph::kings_graph_square(8);
  const PortfolioResult result = portfolio::solve_portfolio(g, 4);
  EXPECT_EQ(result.verdict, Verdict::kColored);
  ASSERT_TRUE(result.coloring.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *result.coloring, 4));
  ASSERT_GE(result.winner, 0);
  EXPECT_LT(static_cast<std::size_t>(result.winner),
            portfolio::default_strategies().size());
}

TEST(Portfolio, ProvesUnsatInstance) {
  // King's graphs contain 4-cliques: no 3-coloring exists, and only the
  // CDCL strategy of the default lineup can prove that.
  const auto g = graph::kings_graph_square(6);
  const PortfolioResult result = portfolio::solve_portfolio(g, 3);
  EXPECT_EQ(result.verdict, Verdict::kUnsat);
  EXPECT_FALSE(result.coloring.has_value());
  ASSERT_GE(result.winner, 0);
  const auto winner_kind =
      portfolio::default_strategies()[static_cast<std::size_t>(result.winner)].kind;
  EXPECT_EQ(winner_kind, StrategyKind::kCdcl);
}

TEST(Portfolio, MsropmStrategyReturnsOnlyProperColorings) {
  // A one-slot msropm lineup runs the machine strategy exactly once. The
  // machine is a heuristic, so it may or may not color the graph; whatever
  // it returns must re-verify.
  const auto g = graph::kings_graph_square(6);
  PortfolioOptions options;
  options.strategies.assign(1, portfolio::StrategyConfig{});
  options.strategies[0].kind = StrategyKind::kMsropm;
  options.strategies[0].msropm_iterations = 8;
  const PortfolioResult result = portfolio::solve_portfolio(g, 4, options);
  ASSERT_EQ(result.outcomes.size(), 1u);
  const auto& outcome = result.outcomes[0];
  EXPECT_TRUE(outcome.ran);
  EXPECT_FALSE(outcome.cancelled);
  EXPECT_TRUE(outcome.error.empty()) << outcome.error;
  EXPECT_NE(result.verdict, Verdict::kUnsat);
  if (result.verdict == Verdict::kColored) {
    ASSERT_TRUE(result.coloring.has_value());
    EXPECT_TRUE(graph::is_proper_coloring(g, *result.coloring, 4));
  }
}

TEST(Portfolio, MsropmStepFaultIsRetriedAsInjected) {
  // step:1 cancels the first machine run before its first batch while the
  // attempt's stop token never trips: the attempt is an injected fault, so
  // the watchdog retries it once and the retry runs to the end.
  struct Disarm {
    ~Disarm() { util::fault::disarm(); }
  } disarm_on_exit;
  const auto g = graph::kings_graph_square(6);
  PortfolioOptions options;
  options.strategies.assign(1, portfolio::StrategyConfig{});
  options.strategies[0].kind = StrategyKind::kMsropm;
  options.strategies[0].msropm_iterations = 8;
  options.retry_backoff_ms = 0;
  ASSERT_TRUE(util::fault::configure("step:1"));
  const PortfolioResult result = portfolio::solve_portfolio(g, 4, options);
  EXPECT_EQ(util::fault::hits(util::FaultSite::kBatchStep), 1u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_FALSE(outcome.cancelled);
  EXPECT_EQ(outcome.limit, util::LimitReason::kNone);
}

TEST(Portfolio, RejectsMsropmIterationBudgetAboveTheCap) {
  // The cap is checked before any attempt runs: an oversized budget is a
  // bad config, not an attempt that fails to allocate and gets retried.
  const auto g = graph::kings_graph_square(4);
  PortfolioOptions options;
  options.strategies.assign(1, portfolio::StrategyConfig{});
  options.strategies[0].kind = StrategyKind::kMsropm;
  options.strategies[0].msropm_iterations = 1'000'000'000'000;
  EXPECT_THROW((void)portfolio::solve_portfolio(g, 4, options),
               std::invalid_argument);
  options.strategies[0].msropm_iterations = core::kMaxIterations + 1;
  EXPECT_THROW((void)portfolio::solve_portfolio(g, 4, options),
               std::invalid_argument);
  // The budget only matters to msropm slots.
  options.strategies[0].kind = StrategyKind::kDsatur;
  EXPECT_EQ(portfolio::solve_portfolio(g, 4, options).verdict, Verdict::kColored);
}

TEST(Portfolio, ValidatesArguments) {
  const auto g = graph::kings_graph_square(4);
  PortfolioOptions options;
  options.strategies.clear();
  EXPECT_THROW((void)portfolio::solve_portfolio(g, 4, options),
               std::invalid_argument);
  EXPECT_THROW((void)portfolio::solve_portfolio(g, 1), std::invalid_argument);
  std::vector<portfolio::PortfolioJob> jobs(1);  // null graph
  EXPECT_THROW((void)portfolio::run_portfolio_batch(jobs, PortfolioOptions{}),
               std::invalid_argument);
}

TEST(Portfolio, SerialRunsAreDeterministic) {
  const auto instances = small_grid();
  portfolio::SweepOptions options;
  options.portfolio.master_seed = 1234;
  const portfolio::SweepRunner runner(options);
  const auto first = runner.run(instances);
  const auto second = runner.run(instances);
  ASSERT_EQ(first.instances.size(), second.instances.size());
  for (std::size_t i = 0; i < first.instances.size(); ++i) {
    const PortfolioResult& a = first.instances[i];
    const PortfolioResult& b = second.instances[i];
    EXPECT_EQ(a.verdict, b.verdict) << instances[i].name;
    EXPECT_EQ(a.winner, b.winner) << instances[i].name;
    EXPECT_EQ(a.coloring, b.coloring) << instances[i].name;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
      EXPECT_EQ(a.outcomes[s].ran, b.outcomes[s].ran);
      EXPECT_EQ(a.outcomes[s].verdict, b.outcomes[s].verdict);
      EXPECT_EQ(a.outcomes[s].conflicts, b.outcomes[s].conflicts);
    }
  }
}

TEST(Portfolio, VerdictsIdenticalAtAnyWorkerCount) {
  const auto instances = small_grid();
  portfolio::SweepOptions serial_options;
  const auto reference =
      portfolio::SweepRunner(serial_options).run(instances);
  for (const std::size_t workers : {2, 4}) {
    for (const auto schedule :
         {Schedule::kStrategyMajor, Schedule::kInstanceMajor}) {
      portfolio::SweepOptions options;
      options.portfolio.num_workers = workers;
      options.schedule = schedule;
      const auto result = portfolio::SweepRunner(options).run(instances);
      ASSERT_EQ(result.instances.size(), reference.instances.size());
      for (std::size_t i = 0; i < result.instances.size(); ++i) {
        EXPECT_EQ(result.instances[i].verdict, reference.instances[i].verdict)
            << instances[i].name << " at " << workers << " workers";
        if (result.instances[i].verdict == Verdict::kColored) {
          ASSERT_TRUE(result.instances[i].coloring.has_value());
          EXPECT_TRUE(graph::is_proper_coloring(instances[i].graph,
                                                *result.instances[i].coloring,
                                                instances[i].num_colors));
        }
      }
    }
  }
}

TEST(Portfolio, HeuristicOnlyLineupCannotDecideUnsat) {
  const auto g = graph::kings_graph_square(5);
  PortfolioOptions options;
  options.strategies.clear();
  for (const auto kind : {StrategyKind::kDsatur, StrategyKind::kTabucol}) {
    portfolio::StrategyConfig config;
    config.kind = kind;
    options.strategies.push_back(config);
  }
  const PortfolioResult result = portfolio::solve_portfolio(g, 3, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_EQ(result.winner, -1);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ran);
    EXPECT_EQ(outcome.verdict, Verdict::kUnknown);
    EXPECT_GT(outcome.conflicts, 0u);
  }
}

TEST(Portfolio, TimeoutCancelsBudgetBoundStrategies) {
  // Only heuristic slots on an infeasible palette of a 10000-node graph:
  // tabucol's full iteration budget takes far longer than the timeout there
  // (every 2x2 block of a King's graph keeps a conflict at K=3), so both
  // slots must come back cancelled and the verdict stays unknown.
  const auto g = graph::kings_graph_square(100);
  PortfolioOptions options;
  options.strategies.assign(2, portfolio::StrategyConfig{});
  for (auto& config : options.strategies) config.kind = StrategyKind::kTabucol;
  options.timeout_ms = 30;
  options.degrade = false;
  const PortfolioResult result = portfolio::solve_portfolio(g, 3, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ran);
    EXPECT_TRUE(outcome.cancelled);
  }
}

TEST(Portfolio, DuplicatedSlotsBothRunOnUndecidableInstance) {
  // Two identically-configured tabucol slots are legal; each draws its own
  // RNG stream from the master seed (stream id = slot index), and on an
  // instance neither can decide, both must run to completion and report.
  const auto g = graph::kings_graph_square(5);
  PortfolioOptions options;
  options.strategies.clear();
  for (int copy = 0; copy < 2; ++copy) {
    portfolio::StrategyConfig config;
    config.kind = StrategyKind::kTabucol;
    options.strategies.push_back(config);
  }
  const PortfolioResult result = portfolio::solve_portfolio(g, 3, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ran);
    EXPECT_GT(outcome.conflicts, 0u);
  }
}

TEST(Sweep, ReportTableHasOneRowPerInstance) {
  const auto instances = small_grid();
  const portfolio::SweepRunner runner;
  const auto result = runner.run(instances);
  EXPECT_EQ(result.decided(), instances.size());
  const auto table = runner.report(instances, result);
  EXPECT_EQ(table.rows(), instances.size());
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("kings_5x5_K4"), std::string::npos);
  EXPECT_NE(rendered.find("UNSAT"), std::string::npos);
  EXPECT_NE(rendered.find("dsatur"), std::string::npos);
}

TEST(Sweep, KingsInstanceSpecIsWellFormed) {
  const auto spec = portfolio::kings_instance(7, 4);
  EXPECT_EQ(spec.name, "kings_7x7_K4");
  EXPECT_EQ(spec.graph.num_nodes(), 49u);
  EXPECT_EQ(spec.num_colors, 4u);
}

}  // namespace
