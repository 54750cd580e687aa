// Tests for the multi-shot solver contract and the chromatic search's
// cancellation:
//   - repeated solve() calls share learnt clauses, and the conflict budget
//     is per call, so a budgeted solver resumed call after call finishes;
//   - a stop token that fired before chromatic_search reports the search
//     as cancelled, not as a proof.
#include "msropm/sat/coloring_encoder.hpp"

#include <gtest/gtest.h>

#include "msropm/graph/builders.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace {

using namespace msropm;
using namespace msropm::sat;

Cnf random_3sat(util::Rng& rng, std::size_t vars, std::size_t clauses) {
  Cnf cnf(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause clause;
    while (clause.size() < 3) {
      clause.push_back(
          Lit(static_cast<Var>(rng.uniform_index(vars)), rng.bernoulli(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

// ---------------------------------------------------------------------------
// Multi-shot solver contract.
// ---------------------------------------------------------------------------

TEST(MultiShot, LearntClausesSurviveAcrossCalls) {
  // PHP(4,3) forced SAT-adjacent: use a satisfiable hard-ish formula — an
  // under-constrained random 3-SAT — and check the learnt counter is
  // cumulative (nothing is thrown away between calls).
  util::Rng rng(7);
  const Cnf cnf = random_3sat(rng, 60, 240);
  Solver s(cnf);
  const SolveResult first = s.solve();
  ASSERT_NE(first, SolveResult::kUnknown);
  const std::uint64_t learnts_after_first = s.stats().learnt_clauses;
  EXPECT_EQ(s.solve(), first);
  EXPECT_GE(s.stats().learnt_clauses, learnts_after_first);
}

TEST(MultiShot, SecondCallIsCheaperWithSharedLearnts) {
  // An UNSAT pigeonhole solved twice: the second refutation may reuse every
  // learnt clause of the first, so it must not be more expensive in
  // conflicts than the first run.
  const int pigeons = 6;
  const int holes = 5;
  Cnf cnf(static_cast<std::size_t>(pigeons * holes));
  auto var = [holes](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_binary(neg(var(p1, h)), neg(var(p2, h)));
      }
    }
  }
  Solver s(cnf);
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  const std::uint64_t conflicts_first = s.stats().conflicts;
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  const std::uint64_t conflicts_second = s.stats().conflicts - conflicts_first;
  EXPECT_LE(conflicts_second, conflicts_first);
}

TEST(MultiShot, PerCallConflictBudgetMakesProgress) {
  // budget.max_conflicts is per call; learnt clauses persist, so repeatedly
  // calling solve() with a tiny budget must eventually refute PHP(4,3).
  const int pigeons = 4;
  const int holes = 3;
  Cnf cnf(static_cast<std::size_t>(pigeons * holes));
  auto var = [holes](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_binary(neg(var(p1, h)), neg(var(p2, h)));
      }
    }
  }
  SolverOptions options;
  options.budget.max_conflicts = 2;
  Solver s(cnf, options);
  SolveResult result = SolveResult::kUnknown;
  int calls = 0;
  while (result == SolveResult::kUnknown && calls < 200) {
    result = s.solve();
    ++calls;
  }
  EXPECT_EQ(result, SolveResult::kUnsat);
  EXPECT_GT(calls, 1) << "budget of 2 conflicts cannot finish in one call";
}

TEST(ChromaticSearch, CancelledSearchReportsCancelled) {
  const auto g = graph::kings_graph_square(10);
  ChromaticSearchOptions options;
  options.stop = util::StopToken::at_deadline(util::StopToken::Clock::now());
  const auto outcome = chromatic_search(g, 8, options);
  EXPECT_FALSE(outcome.chromatic.has_value());
  EXPECT_TRUE(outcome.incomplete);
  EXPECT_TRUE(outcome.cancelled);
}

}  // namespace
