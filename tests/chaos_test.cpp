// Chaos suite: randomized fault schedules, resource budgets, and deadline
// edge cases across the solver stack (ISSUE: resource governance PR).
//
// The contract under test (src/util/README.md):
//   1. No fault schedule or budget may crash an engine or corrupt its state.
//   2. Faults and budgets only DEGRADE results — a definitive verdict under
//      chaos always matches the fault-free baseline; degradation is always
//      kUnknown with a LimitReason, never a flipped answer.
//   3. A breached/injected engine stays usable: disarm (or simply call
//      again) and it makes progress on the same formula.
//   4. With no faults configured and no budget set, trajectories are
//      bit-identical to a build that never heard of the governance layer.
//
// The randomized sections run >= 200 distinct schedules over a King's-graph
// + random-3SAT corpus; the deterministic sections pin down each unwind
// boundary (GC entry, batch step, worker attempt).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/portfolio/portfolio.hpp"
#include "msropm/sat/cnf.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/fault_injector.hpp"
#include "msropm/util/resource_budget.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace {

using namespace msropm;
using sat::Cnf;
using sat::Lit;
using sat::SolveResult;
using sat::Var;
using util::LimitReason;

// The injector is process-global; every test must leave it disarmed or the
// rest of the binary inherits its schedule.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::disarm(); }
  void TearDown() override { util::fault::disarm(); }
};

Cnf random_3sat(std::uint64_t seed, std::size_t vars, std::size_t clauses) {
  util::Rng rng(seed);
  Cnf cnf(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    sat::Clause clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.uniform_index(vars));
      clause.push_back(Lit(v, rng.bernoulli(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

SolveResult baseline_of(const Cnf& cnf) {
  sat::Solver solver(cnf);
  return solver.solve();
}

// A conflict-RICH instance: King's-graph encodings are decided by pure
// propagation (zero conflicts, a handful of decisions), which never reaches
// the per-conflict budget polls — budgets bound work, they do not suppress
// an answer the solver already found. G(30, 0.5) at K=6 is UNSAT with a
// ~40-conflict proof, so every conflict-cadence governance path runs.
graph::Graph dense_random_graph() {
  util::Rng rng(42);
  return graph::erdos_renyi(30, 0.5, rng);
}

Cnf conflict_rich_unsat_cnf() {
  return sat::encode_coloring(dense_random_graph(), 6).cnf;
}

// --- randomized fault schedules over the CNF corpus -----------------------

TEST_F(ChaosTest, SolverSurvivesTwoHundredFaultSchedules) {
  // Corpus: near-threshold random 3-SAT plus both polarities of the King's
  // coloring encoding (kings_4x4 is 4-colorable; its 4-cliques make K=3
  // UNSAT).
  std::vector<Cnf> corpus;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    corpus.push_back(random_3sat(s, 30, 126));
  }
  const auto kings = graph::kings_graph_square(4);
  corpus.push_back(sat::encode_coloring(kings, 4).cnf);
  corpus.push_back(sat::encode_coloring(kings, 3).cnf);
  corpus.push_back(conflict_rich_unsat_cnf());

  std::vector<SolveResult> baseline;
  for (const Cnf& cnf : corpus) baseline.push_back(baseline_of(cnf));

  constexpr int kSchedules = 200;
  const char* kSites[] = {"alloc", "propagate", "analyze", "gc"};
  std::uint64_t total_fires = 0;
  int degraded = 0;
  for (int s = 1; s <= kSchedules; ++s) {
    std::string spec;
    switch (s % 4) {
      case 0:  // every site, probabilistic, schedule-specific seed
        spec = "all@0.01,seed=" + std::to_string(s);
        break;
      case 1:  // one counted site, varying arrival index
        spec = std::string(kSites[(s / 4) % 4]) + ":" +
               std::to_string(1 + s % 7);
        break;
      case 2:  // periodic propagate kills
        spec = "propagate:" + std::to_string(1 + s % 5) + ":" +
               std::to_string(2 + s % 9);
        break;
      default:  // aggressive arena-allocation failures
        spec = "alloc@0.05,seed=" + std::to_string(s);
        break;
    }
    ASSERT_TRUE(util::fault::configure(spec)) << spec;

    const std::size_t item = static_cast<std::size_t>(s) % corpus.size();
    sat::Solver solver(corpus[item]);
    const SolveResult result = solver.solve();

    // Contract 2: a fault may only degrade to kUnknown (with the injected
    // reason), never flip a verdict.
    if (result != SolveResult::kUnknown) {
      EXPECT_EQ(result, baseline[item]) << "verdict flip under spec " << spec;
    } else {
      EXPECT_EQ(solver.stats().limit_reason, LimitReason::kInjected)
          << "unknown without an injected reason under spec " << spec;
    }
    total_fires += util::fault::hits(util::FaultSite::kArenaAlloc) +
                   util::fault::hits(util::FaultSite::kPropagate) +
                   util::fault::hits(util::FaultSite::kAnalyze) +
                   util::fault::hits(util::FaultSite::kGc);
    if (result == SolveResult::kUnknown) ++degraded;

    // Contract 3 (spot-checked): disarm and call the SAME solver again. A
    // search-time injection recovers to the baseline verdict; only a
    // construction-time arena fault (incomplete clause DB) may stay
    // kUnknown/kInjected — and must keep saying so rather than guessing.
    if (s % 10 == 0) {
      util::fault::disarm();
      const SolveResult again = solver.solve();
      if (again != baseline[item]) {
        EXPECT_EQ(again, SolveResult::kUnknown);
        EXPECT_EQ(solver.stats().limit_reason, LimitReason::kInjected);
      }
    }
    util::fault::disarm();
  }
  // The schedules must have actually hit fault points, and some of them must
  // have actually degraded a solve — otherwise this suite tests nothing.
  EXPECT_GT(total_fires, 0u);
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, kSchedules);  // and plenty survive their schedule
}

// --- bit-identity when governance is configured but inert -----------------

TEST_F(ChaosTest, ArmedButNeverFiringScheduleIsBitIdentical) {
  const Cnf cnf = random_3sat(7, 40, 170);
  sat::Solver clean(cnf);
  const SolveResult clean_result = clean.solve();

  // Armed gate, but the billionth arrival never comes: the arrival counters
  // tick, the search must not notice.
  ASSERT_TRUE(util::fault::configure("all:1000000000"));
  sat::Solver armed(cnf);
  const SolveResult armed_result = armed.solve();
  EXPECT_EQ(armed_result, clean_result);
  EXPECT_EQ(armed.stats().decisions, clean.stats().decisions);
  EXPECT_EQ(armed.stats().propagations, clean.stats().propagations);
  EXPECT_EQ(armed.stats().conflicts, clean.stats().conflicts);
  EXPECT_GT(util::fault::arrivals(util::FaultSite::kPropagate), 0u);

  // Configured-then-disarmed == never configured.
  util::fault::disarm();
  sat::Solver disarmed(cnf);
  EXPECT_EQ(disarmed.solve(), clean_result);
  EXPECT_EQ(disarmed.stats().decisions, clean.stats().decisions);
  EXPECT_EQ(disarmed.stats().conflicts, clean.stats().conflicts);
}

TEST_F(ChaosTest, UnlimitedAndHugeBudgetsAreBitIdentical) {
  const Cnf cnf = random_3sat(11, 40, 170);
  sat::Solver unlimited(cnf);
  const SolveResult expected = unlimited.solve();

  sat::SolverOptions options;
  options.budget.max_memory_bytes = ~std::uint64_t{0} / 2;
  options.budget.max_conflicts = ~std::uint64_t{0} / 2;
  options.budget.max_propagations = ~std::uint64_t{0} / 2;
  sat::Solver capped(cnf, options);
  EXPECT_EQ(capped.solve(), expected);
  EXPECT_EQ(capped.stats().decisions, unlimited.stats().decisions);
  EXPECT_EQ(capped.stats().propagations, unlimited.stats().propagations);
  EXPECT_EQ(capped.stats().conflicts, unlimited.stats().conflicts);
  EXPECT_EQ(capped.stats().limit_reason, LimitReason::kNone);
}

// --- resource budgets ------------------------------------------------------

TEST_F(ChaosTest, ConflictBudgetBreachesThenRecoversMultiShot) {
  const Cnf cnf = conflict_rich_unsat_cnf();
  sat::SolverOptions options;
  options.budget.max_conflicts = 5;
  sat::Solver solver(cnf, options);

  // The per-call budget trips, the solver reports why, and repeated calls
  // keep the learnt clauses — so the SAME breached solver eventually
  // finishes the proof 5 conflicts at a time.
  SolveResult result = solver.solve();
  ASSERT_EQ(result, SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kConflicts);
  int calls = 1;
  while (result == SolveResult::kUnknown && calls < 5000) {
    result = solver.solve();
    ++calls;
  }
  EXPECT_EQ(result, SolveResult::kUnsat);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kNone);
  EXPECT_GT(calls, 1);
}

TEST_F(ChaosTest, PropagationBudgetReportsItsReason) {
  const Cnf cnf = conflict_rich_unsat_cnf();
  sat::SolverOptions options;
  options.budget.max_propagations = 1;
  sat::Solver solver(cnf, options);
  ASSERT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kPropagations);
}

TEST_F(ChaosTest, MemoryBudgetTooSmallForFormulaStaysBreached) {
  const Cnf cnf = random_3sat(3, 30, 126);
  sat::SolverOptions options;
  options.budget.max_memory_bytes = 64;  // the formula alone exceeds this
  sat::Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kMemory);
  // Construction-time breach: the clause DB is incomplete forever, so every
  // call must keep reporting kMemory instead of answering from half a
  // formula.
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kMemory);
}

// --- StopToken deadline edge cases ----------------------------------------

TEST_F(ChaosTest, DeadlineExpiredAtSolveEntry) {
  const Cnf cnf = random_3sat(5, 30, 126);
  sat::SolverOptions options;
  options.stop = util::StopToken::at_deadline(
      util::StopToken::Clock::now() - std::chrono::milliseconds(1));
  sat::Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_TRUE(solver.cancelled());
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kDeadline);
  // Still expired on the next call; still a clean kUnknown, not a crash.
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kDeadline);
}

TEST_F(ChaosTest, DeadlineTrippingMidSearchWithFrequentGc) {
  // Big enough that 2 ms never finishes it; a tiny learnt cap forces a
  // reduce_learnts()/GC cycle every ~20 conflicts, so the deadline is
  // overwhelmingly observed at the GC-adjacent polls. Either way the
  // contract holds: kUnknown + kDeadline, never a crash or a flip.
  const Cnf cnf = random_3sat(17, 200, 860);
  sat::SolverOptions options;
  options.learnt_cap = 20;
  options.restart_base = 16;
  options.stop = util::StopToken::at_deadline(
      util::StopToken::Clock::now() + std::chrono::milliseconds(2));
  sat::Solver solver(cnf, options);
  const SolveResult result = solver.solve();
  if (result == SolveResult::kUnknown) {
    EXPECT_TRUE(solver.cancelled());
    EXPECT_EQ(solver.stats().limit_reason, LimitReason::kDeadline);
  } else {
    EXPECT_EQ(result, baseline_of(cnf));  // finished inside 2 ms: fine too
  }
}

TEST_F(ChaosTest, GcFaultUnwindLeavesSolverReusable) {
  const Cnf cnf = conflict_rich_unsat_cnf();
  sat::SolverOptions options;
  options.learnt_cap = 8;  // make reduce_learnts() trigger early
  options.restart_base = 16;
  ASSERT_TRUE(util::fault::configure("gc:1"));
  sat::Solver solver(cnf, options);
  const SolveResult faulted = solver.solve();
  ASSERT_GT(util::fault::hits(util::FaultSite::kGc), 0u)
      << "reduce_learnts was never reached; the test instance is too easy";
  EXPECT_EQ(faulted, SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kInjected);
  // The unwind happened at the reduction boundary: watch lists, trail, and
  // learnt DB are all consistent, so the same solver finishes the proof
  // once the schedule is gone.
  util::fault::disarm();
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  EXPECT_EQ(solver.stats().limit_reason, LimitReason::kNone);
}

// --- phase engine: stop token + step faults --------------------------------

TEST_F(ChaosTest, PhaseBatchStopBeforeFirstStepLeavesStateUntouched) {
  const auto g = graph::kings_graph_square(3);
  phase::NetworkParams params;
  phase::PhaseBatch batch(g, params, 2);
  std::vector<util::Rng> rngs{util::Rng(1), util::Rng(2)};
  for (std::size_t r = 0; r < 2; ++r) batch.randomize_phases(r, rngs[r]);
  const std::vector<double> before = batch.theta_flat();

  util::StopSource source;
  source.request_stop();
  const util::StopToken token = source.token();
  EXPECT_FALSE(batch.run(5e-10, rngs, nullptr, {}, &token));
  EXPECT_EQ(batch.theta_flat(), before);  // zero steps taken

  // Cancellation between windows: the batch object is fully reusable.
  EXPECT_TRUE(batch.run(5e-10, rngs));
  EXPECT_NE(batch.theta_flat(), before);
}

TEST_F(ChaosTest, PhaseBatchNeverFiringTokenIsBitIdentical) {
  const auto g = graph::kings_graph_square(3);
  phase::NetworkParams params;
  phase::PhaseBatch plain(g, params, 1);
  phase::PhaseBatch tokened(g, params, 1);
  std::vector<util::Rng> rngs_a{util::Rng(9)};
  std::vector<util::Rng> rngs_b{util::Rng(9)};
  plain.randomize_phases(0, rngs_a[0]);
  tokened.randomize_phases(0, rngs_b[0]);

  util::StopSource source;  // never fires
  const util::StopToken token = source.token();
  EXPECT_TRUE(plain.run(2e-9, rngs_a));
  EXPECT_TRUE(tokened.run(2e-9, rngs_b, nullptr, {}, &token));
  EXPECT_EQ(plain.theta_flat(), tokened.theta_flat());
}

TEST_F(ChaosTest, PhaseBatchStepFaultEndsWindowEarlyAndRestoresLevels) {
  const auto g = graph::kings_graph_square(3);
  phase::NetworkParams params;
  phase::PhaseBatch batch(g, params, 1);
  std::vector<util::Rng> rngs{util::Rng(4)};
  batch.randomize_phases(0, rngs[0]);
  batch.set_shil_level(0, 0.75);

  ASSERT_TRUE(util::fault::configure("step:2"));
  phase::GainRamp ramp;  // a ramp scales levels mid-window; they must restore
  EXPECT_FALSE(batch.run(2e-9, rngs, &ramp, {}, nullptr));
  EXPECT_DOUBLE_EQ(batch.shil_level(0), 0.75);

  util::fault::disarm();
  EXPECT_TRUE(batch.run(2e-9, rngs));
  for (const double theta : batch.phases(0)) EXPECT_TRUE(std::isfinite(theta));
}

// --- portfolio: retries, stalls, degradation ladder, terminal status -------

std::vector<portfolio::StrategyConfig> cdcl_only_lineup() {
  std::vector<portfolio::StrategyConfig> lineup(2);
  for (auto& slot : lineup) slot.kind = portfolio::StrategyKind::kCdcl;
  return lineup;
}

TEST_F(ChaosTest, PortfolioChaosSchedulesKeepVerdictsSoundAndTerminal) {
  const auto sat_graph = graph::kings_graph_square(5);    // 4-colorable
  const auto unsat_graph = graph::kings_graph_square(4);  // K=3 UNSAT
  std::vector<portfolio::PortfolioJob> jobs(2);
  jobs[0].graph = &sat_graph;
  jobs[0].num_colors = 4;
  jobs[1].graph = &unsat_graph;
  jobs[1].num_colors = 3;

  portfolio::PortfolioOptions options;
  options.strategies = cdcl_only_lineup();
  options.retry_backoff_ms = 0;  // keep 40 schedules fast
  const auto clean =
      portfolio::run_portfolio_batch(jobs, options);
  ASSERT_EQ(clean[0].verdict, portfolio::Verdict::kColored);
  ASSERT_EQ(clean[1].verdict, portfolio::Verdict::kUnsat);

  for (int s = 1; s <= 40; ++s) {
    const std::string spec = (s % 2) == 0
                                 ? "all@0.02,seed=" + std::to_string(s)
                                 : "propagate:1:" + std::to_string(1 + s % 6);
    ASSERT_TRUE(util::fault::configure(spec)) << spec;
    const auto chaotic = portfolio::run_portfolio_batch(jobs, options);
    for (std::size_t i = 0; i < chaotic.size(); ++i) {
      const portfolio::PortfolioResult& r = chaotic[i];
      // No verdict flips, ever.
      if (r.verdict != portfolio::Verdict::kUnknown) {
        EXPECT_EQ(r.verdict, clean[i].verdict) << spec << " job " << i;
      }
      // Terminal-status guarantee: unknown rows carry the degradation
      // ladder's best-effort coloring (graded in [0,1]) and, when the end
      // was an injected kill on every attempt, the limit that caused it.
      EXPECT_TRUE(r.terminal()) << spec << " job " << i;
      if (r.verdict == portfolio::Verdict::kUnknown) {
        ASSERT_TRUE(r.best_effort.has_value()) << spec << " job " << i;
        EXPECT_GE(r.best_effort_quality, 0.0);
        EXPECT_LE(r.best_effort_quality, 1.0);
      }
    }
    util::fault::disarm();
  }
}

TEST_F(ChaosTest, InjectedAttemptIsRetriedAndSucceeds) {
  const auto g = graph::kings_graph_square(4);
  std::vector<portfolio::PortfolioJob> jobs(1);
  jobs[0].graph = &g;
  jobs[0].num_colors = 4;

  portfolio::PortfolioOptions options;
  options.strategies.assign(1, portfolio::StrategyConfig{});
  options.strategies[0].kind = portfolio::StrategyKind::kCdcl;
  options.retry_backoff_ms = 0;
  // Fires exactly once, at the first propagate round: the first attempt is
  // killed, the watchdog retries, the retry runs fault-free and wins.
  ASSERT_TRUE(util::fault::configure("propagate:1"));
  const auto results = portfolio::run_portfolio_batch(jobs, options);
  EXPECT_EQ(results[0].verdict, portfolio::Verdict::kColored);
  ASSERT_EQ(results[0].outcomes.size(), 1u);
  EXPECT_GE(results[0].outcomes[0].retries, 1u);
}

TEST_F(ChaosTest, WorkerStallOnlyDelaysTheAttempt) {
  const auto g = graph::kings_graph_square(4);
  std::vector<portfolio::PortfolioJob> jobs(1);
  jobs[0].graph = &g;
  jobs[0].num_colors = 4;

  portfolio::PortfolioOptions options;
  options.strategies = cdcl_only_lineup();
  ASSERT_TRUE(util::fault::configure("stall:1,stall-ms=1"));
  const auto results = portfolio::run_portfolio_batch(jobs, options);
  EXPECT_EQ(results[0].verdict, portfolio::Verdict::kColored);
  EXPECT_GT(util::fault::hits(util::FaultSite::kWorkerStall), 0u);
}

TEST_F(ChaosTest, ExhaustedBudgetTriggersDegradationLadder) {
  // UNSAT at K=6 with a conflict-heavy proof: under a 1-propagation budget
  // the CDCL attempt breaches at its first conflict poll instead of
  // finishing, which is exactly the "exact solver exhausted" ladder input.
  const auto g = dense_random_graph();
  std::vector<portfolio::PortfolioJob> jobs(1);
  jobs[0].graph = &g;
  jobs[0].num_colors = 6;

  portfolio::PortfolioOptions options;
  options.strategies.assign(1, portfolio::StrategyConfig{});
  options.strategies[0].kind = portfolio::StrategyKind::kCdcl;
  options.budget.max_propagations = 1;  // every CDCL attempt breaches
  const auto results = portfolio::run_portfolio_batch(jobs, options);
  ASSERT_EQ(results[0].verdict, portfolio::Verdict::kUnknown);
  EXPECT_EQ(results[0].limit, LimitReason::kPropagations);
  ASSERT_TRUE(results[0].best_effort.has_value());
  // The instance is not 6-colorable, so the best-effort coloring cannot be
  // proper — the ladder must still grade it honestly.
  EXPECT_GE(results[0].best_effort_quality, 0.0);
  EXPECT_LT(results[0].best_effort_quality, 1.0);
  EXPECT_TRUE(results[0].terminal());

  // degrade=false keeps the annotated-unknown path: terminal through the
  // limit reason alone, no best-effort coloring.
  options.degrade = false;
  const auto bare = portfolio::run_portfolio_batch(jobs, options);
  ASSERT_EQ(bare[0].verdict, portfolio::Verdict::kUnknown);
  EXPECT_FALSE(bare[0].best_effort.has_value());
  EXPECT_EQ(bare[0].limit, LimitReason::kPropagations);
  EXPECT_TRUE(bare[0].terminal());
}

}  // namespace
