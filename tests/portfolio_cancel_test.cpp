// Cancellation stress test for the portfolio engine: many tiny instances,
// instance-major schedule (maximum intra-instance racing), several worker
// counts and seeds. Verdicts must always match the serial reference and
// every published coloring must verify — under ASan/TSan this doubles as the
// no-use-after-cancel / no-data-race check for the StopToken plumbing
// (scripts/check.sh CHECK_TSAN=1 runs exactly these tests under TSan).
#include <gtest/gtest.h>

#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/portfolio/portfolio.hpp"
#include "msropm/portfolio/sweep.hpp"

namespace {

using namespace msropm;
using portfolio::Schedule;
using portfolio::Verdict;

/// ~40 tiny mixed instances: SAT King's graphs, UNSAT K=3 rows, odd cycles
/// (3-chromatic) and complete graphs right at/over the palette size.
std::vector<portfolio::InstanceSpec> stress_grid() {
  std::vector<portfolio::InstanceSpec> instances;
  for (std::size_t side = 3; side <= 10; ++side) {
    instances.push_back(portfolio::kings_instance(side, 4));   // SAT
    instances.push_back(portfolio::kings_instance(side, 3));   // UNSAT
  }
  for (std::size_t n = 5; n <= 15; n += 2) {
    portfolio::InstanceSpec odd_cycle;
    odd_cycle.name = "cycle_";
    odd_cycle.name += std::to_string(n);
    odd_cycle.name += "_K3";
    odd_cycle.graph = graph::cycle_graph(n);
    odd_cycle.num_colors = 3;  // SAT: odd cycles are 3-chromatic
    instances.push_back(odd_cycle);

    portfolio::InstanceSpec clique;
    clique.name = "K";
    clique.name += std::to_string((n + 1) / 2);
    clique.name += "_K4";
    clique.graph = graph::complete_graph((n + 1) / 2);
    clique.num_colors = 4;  // SAT for n<=4 nodes, UNSAT beyond
    instances.push_back(clique);
  }
  return instances;
}

/// The default lineup (DSATUR, CDCL, tabucol), so the complete solver's and
/// the heuristic's cancellation polling race each other. The instances are
/// tiny; the point is scheduling churn, not search depth.
portfolio::PortfolioOptions stress_options(std::size_t workers,
                                           std::uint64_t seed) {
  portfolio::PortfolioOptions options;
  options.num_workers = workers;
  options.master_seed = seed;
  return options;
}

TEST(PortfolioCancelStress, RacingVerdictsMatchSerialAcrossSeedsAndWorkers) {
  const auto instances = stress_grid();
  for (const std::uint64_t seed : {1ull, 99ull}) {
    portfolio::SweepOptions serial;
    serial.portfolio = stress_options(1, seed);
    serial.schedule = Schedule::kInstanceMajor;
    const auto reference = portfolio::SweepRunner(serial).run(instances);
    // Tiny instances + complete strategies: everything must be decided.
    EXPECT_EQ(reference.decided(), instances.size());

    for (const std::size_t workers : {2, 4, 8}) {
      portfolio::SweepOptions racing;
      racing.portfolio = stress_options(workers, seed);
      racing.schedule = Schedule::kInstanceMajor;
      const auto result = portfolio::SweepRunner(racing).run(instances);
      ASSERT_EQ(result.instances.size(), reference.instances.size());
      for (std::size_t i = 0; i < result.instances.size(); ++i) {
        const auto& got = result.instances[i];
        const auto& want = reference.instances[i];
        EXPECT_EQ(got.verdict, want.verdict)
            << instances[i].name << " seed " << seed << " workers " << workers;
        if (got.verdict == Verdict::kColored) {
          ASSERT_TRUE(got.coloring.has_value()) << instances[i].name;
          EXPECT_TRUE(graph::is_proper_coloring(
              instances[i].graph, *got.coloring, instances[i].num_colors))
              << instances[i].name;
        } else {
          EXPECT_FALSE(got.coloring.has_value()) << instances[i].name;
        }
      }
    }
  }
}

TEST(PortfolioCancelStress, RepeatedRacingRunsStayConsistent) {
  // Hammer the same racing configuration repeatedly: losers are cancelled
  // mid-run on every pass, and the winning verdict must never wobble.
  const auto instances = stress_grid();
  portfolio::SweepOptions racing;
  racing.portfolio = stress_options(4, 7);
  racing.schedule = Schedule::kInstanceMajor;
  const portfolio::SweepRunner runner(racing);
  std::vector<Verdict> first_verdicts;
  for (int round = 0; round < 3; ++round) {
    const auto result = runner.run(instances);
    if (round == 0) {
      for (const auto& r : result.instances) first_verdicts.push_back(r.verdict);
      continue;
    }
    for (std::size_t i = 0; i < result.instances.size(); ++i) {
      EXPECT_EQ(result.instances[i].verdict, first_verdicts[i])
          << instances[i].name << " round " << round;
    }
  }
}

}  // namespace
