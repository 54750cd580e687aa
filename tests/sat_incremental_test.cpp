// Tests for the multi-shot assumption-based solver contract and the
// incremental chromatic search built on top of it:
//   - repeated solve() / solve(assumptions) calls share learnt clauses and
//     never leak an UNSAT-under-assumptions verdict into later calls;
//   - failed-assumption cores are subsets of the assumptions and re-solving
//     under just the core stays UNSAT;
//   - assumptions on unit-implied, unconstrained and single-polarity
//     variables are answered exactly;
//   - IncrementalColoringSolver / chromatic_search agree with the
//     fresh-solver-per-K baseline at every K, +/- symmetry breaking, on
//     fixed and randomized graphs;
//   - StopToken cancellation lands cleanly between incremental calls.
#include "msropm/sat/incremental_coloring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
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

bool assignment_satisfies(const std::vector<std::uint8_t>& model, Lit l) {
  return (model[l.var()] != 0) != l.negated();
}

graph::Graph petersen() {
  graph::GraphBuilder b(10);
  for (int i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(5 + i, 5 + (i + 2) % 5);
    b.add_edge(i, 5 + i);
  }
  return b.build();
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
  EXPECT_TRUE(s.formula_unsat());
  const std::uint64_t conflicts_first = s.stats().conflicts;
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  const std::uint64_t conflicts_second = s.stats().conflicts - conflicts_first;
  EXPECT_LE(conflicts_second, conflicts_first);
}

TEST(MultiShot, PerCallConflictBudgetMakesProgress) {
  // conflict_limit is per call; learnt clauses persist, so repeatedly
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
  options.conflict_limit = 2;
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

TEST(MultiShot, AssumptionSequenceEnumeratesModels) {
  // (x0 | x1), alternating assumptions on one solver steer the model.
  Cnf cnf(2);
  cnf.add_binary(pos(0), pos(1));
  Solver s(cnf);
  ASSERT_EQ(s.solve({neg(0)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 0);
  EXPECT_EQ(s.model()[1], 1);
  ASSERT_EQ(s.solve({neg(1)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
  EXPECT_EQ(s.model()[1], 0);
  EXPECT_EQ(s.solve({neg(0), neg(1)}), SolveResult::kUnsat);
  EXPECT_FALSE(s.formula_unsat());
  ASSERT_EQ(s.solve({pos(0), pos(1)}), SolveResult::kSat);
}

TEST(MultiShot, FailedCoreIsSubsetAndStillUnsat) {
  // x2 is irrelevant; the core of {x2, x0, x1} against (~x0 | ~x1) + units
  // must only involve the genuinely conflicting assumptions, and re-solving
  // under the core alone must stay UNSAT.
  Cnf cnf(3);
  cnf.add_binary(neg(0), neg(1));
  Solver s(cnf);
  const std::vector<Lit> assumptions{pos(2), pos(0), pos(1)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::kUnsat);
  const std::vector<Lit> core = s.failed_assumptions();
  ASSERT_FALSE(core.empty());
  for (const Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end())
        << "core literal is not one of the assumptions";
  }
  EXPECT_EQ(std::find(core.begin(), core.end(), pos(2)), core.end())
      << "irrelevant assumption pulled into the core";
  EXPECT_EQ(s.solve(core), SolveResult::kUnsat);
  EXPECT_EQ(s.solve({pos(2)}), SolveResult::kSat);
}

TEST(MultiShot, ContradictoryAssumptionPairYieldsCore) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), pos(1));
  Solver s(cnf);
  ASSERT_EQ(s.solve({pos(0), neg(0)}), SolveResult::kUnsat);
  EXPECT_FALSE(s.failed_assumptions().empty());
  EXPECT_FALSE(s.formula_unsat());
}

TEST(MultiShot, OutOfRangeAssumptionThrows) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), pos(1));
  Solver s(cnf);
  EXPECT_THROW((void)s.solve({pos(7)}), std::invalid_argument);
}

TEST(MultiShot, RandomEquivalenceWithFreshSolverPerQuery) {
  // One incremental solver answering a stream of assumption queries must
  // agree with a fresh solver per query, and SAT models must satisfy the
  // formula AND the assumptions.
  util::Rng rng(2025);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t vars = 40;
    const Cnf cnf = random_3sat(rng, vars, 150 + 10 * trial);
    Solver incremental(cnf);
    for (int query = 0; query < 12; ++query) {
      std::vector<Lit> assumptions;
      const std::size_t count = rng.uniform_index(5);
      for (std::size_t i = 0; i < count; ++i) {
        assumptions.push_back(Lit(static_cast<Var>(rng.uniform_index(vars)),
                                  rng.bernoulli(0.5)));
      }
      const SolveResult got = incremental.solve(assumptions);
      Solver fresh(cnf);
      const SolveResult expected = fresh.solve(assumptions);
      ASSERT_EQ(got, expected)
          << "trial " << trial << " query " << query;
      if (got == SolveResult::kSat) {
        EXPECT_TRUE(cnf.satisfied_by(incremental.model()));
        for (const Lit a : assumptions) {
          EXPECT_TRUE(assignment_satisfies(incremental.model(), a));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Assumptions on variables the formula pins, ignores or uses in one polarity.
// ---------------------------------------------------------------------------

TEST(Assumptions, UnitImpliedVariableChecksAssumption) {
  // x0 is forced true by a unit clause. A matching assumption is vacuous, a
  // contradicting one is UNSAT with core {~x0}.
  Cnf cnf(3);
  cnf.add_unit(pos(0));
  cnf.add_ternary(pos(0), pos(1), pos(2));
  cnf.add_binary(neg(1), pos(2));
  Solver s(cnf);
  EXPECT_EQ(s.solve({pos(0)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
  EXPECT_EQ(s.solve({neg(0)}), SolveResult::kUnsat);
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions()[0], neg(0));
  EXPECT_FALSE(s.formula_unsat());
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Assumptions, UnconstrainedVariableHonorsAssumption) {
  // x2 appears in no clause; the model must still honor an assumption on it.
  Cnf cnf(3);
  cnf.add_binary(pos(0), pos(1));
  Solver s(cnf);
  ASSERT_EQ(s.solve({pos(2)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[2], 1);
  ASSERT_EQ(s.solve({neg(2)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[2], 0);
  EXPECT_EQ(s.solve({pos(2), neg(2)}), SolveResult::kUnsat);
  EXPECT_EQ(s.failed_assumptions().size(), 2u);
}

TEST(Assumptions, SinglePolarityVariableTakesBothAssumptions) {
  // x0 occurs only positively; both polarities must still be answerable.
  Cnf cnf(3);
  cnf.add_ternary(pos(0), pos(1), pos(2));
  cnf.add_binary(pos(0), neg(1));
  Solver s(cnf);
  ASSERT_EQ(s.solve({neg(0)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 0);
  EXPECT_TRUE(cnf.satisfied_by(s.model()));
  ASSERT_EQ(s.solve({pos(0)}), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
  EXPECT_TRUE(cnf.satisfied_by(s.model()));
}

// ---------------------------------------------------------------------------
// Incremental chromatic search.
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* name;
  graph::Graph graph;
  unsigned max_colors;
};

class IncrementalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(IncrementalSweep, MatchesFreshSolverAtEveryK) {
  const auto& param = GetParam();
  for (const bool symmetry : {false, true}) {
    IncrementalColoringOptions options;
    options.min_colors = 2;
    options.symmetry_breaking = symmetry;
    IncrementalColoringSolver inc(param.graph, param.max_colors, options);
    for (unsigned k = 2; k <= param.max_colors; ++k) {
      const SolveResult got = inc.solve_k(k);
      const auto fresh = solve_exact_coloring(param.graph, k,
                                              {.symmetry_breaking = symmetry});
      const SolveResult expected =
          fresh ? SolveResult::kSat : SolveResult::kUnsat;
      ASSERT_EQ(got, expected)
          << param.name << " K=" << k << " symmetry=" << symmetry;
      if (got == SolveResult::kSat) {
        // solve_k already tripwires properness; double-check palette here.
        EXPECT_TRUE(graph::is_proper_coloring(param.graph, inc.coloring(), k));
      } else {
        // Failed core sanity: the core mentions only selector literals
        // that were actually assumed (or the base formula is refuted).
        if (!inc.formula_unsat()) {
          EXPECT_FALSE(inc.failed_assumptions().empty())
              << param.name << " K=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, IncrementalSweep,
    ::testing::Values(
        SweepCase{"petersen", petersen(), 5},
        SweepCase{"kings5", graph::kings_graph_square(5), 6},
        SweepCase{"oddcycle", graph::cycle_graph(7), 4},
        SweepCase{"k5", graph::complete_graph(5), 6},
        SweepCase{"wheel6", graph::wheel_graph(6), 5},
        SweepCase{"bipartite", graph::complete_bipartite_graph(4, 5), 4}),
    [](const auto& info) { return info.param.name; });

TEST(IncrementalSweep, RandomGraphsMatchFreshSweep) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = graph::erdos_renyi(18, 0.2 + 0.08 * trial, rng);
    IncrementalColoringOptions options;
    options.min_colors = 2;
    IncrementalColoringSolver inc(g, 6, options);
    for (unsigned k = 2; k <= 6; ++k) {
      const auto fresh = solve_exact_coloring(g, k);
      const SolveResult expected =
          fresh ? SolveResult::kSat : SolveResult::kUnsat;
      ASSERT_EQ(inc.solve_k(k), expected) << "trial " << trial << " K=" << k;
    }
  }
}

TEST(IncrementalSweep, SolveKOutsidePaletteThrows) {
  const auto g = petersen();
  IncrementalColoringOptions options;
  options.min_colors = 3;
  IncrementalColoringSolver inc(g, 5, options);
  EXPECT_THROW((void)inc.solve_k(2), std::invalid_argument);
  EXPECT_THROW((void)inc.solve_k(6), std::invalid_argument);
  EXPECT_EQ(inc.solve_k(3), SolveResult::kSat);
}

TEST(IncrementalSweep, StopTokenBetweenCallsReturnsUnknown) {
  const auto g = graph::kings_graph_square(6);
  IncrementalColoringOptions options;
  options.min_colors = 2;
  util::StopSource source;
  options.solver.stop = source.token();
  IncrementalColoringSolver inc(g, 5, options);
  EXPECT_EQ(inc.solve_k(3), SolveResult::kUnsat);  // omega = 4
  source.request_stop();
  EXPECT_EQ(inc.solve_k(4), SolveResult::kUnknown);
  EXPECT_TRUE(inc.cancelled());
  EXPECT_EQ(inc.solve_calls(), 2u);
}

TEST(ChromaticSearch, IncrementalAgreesWithFromScratch) {
  util::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = graph::erdos_renyi(16, 0.25 + 0.1 * trial, rng);
    ChromaticSearchOptions incremental;
    ChromaticSearchOptions scratch;
    scratch.incremental = false;
    const auto a = chromatic_search(g, 8, incremental);
    const auto b = chromatic_search(g, 8, scratch);
    ASSERT_EQ(a.chromatic, b.chromatic) << "trial " << trial;
    if (a.chromatic) {
      EXPECT_TRUE(graph::is_proper_coloring(g, a.coloring, *a.chromatic));
      EXPECT_TRUE(graph::is_proper_coloring(g, b.coloring, *b.chromatic));
    }
  }
}

TEST(ChromaticSearch, KingsSweepReusesLearntClauses) {
  // Without the clique seed the incremental sweep passes through the hard
  // UNSAT K=3 round; the single multi-shot solver must keep those learnt
  // clauses on the books when K=4 succeeds (the reuse the bench measures).
  const auto g = graph::kings_graph_square(8);
  IncrementalColoringOptions options;
  options.min_colors = 2;
  // With symmetry breaking the pinned clique refutes K < 4 by implied units
  // alone (zero conflicts); disable it so the UNSAT rounds genuinely search.
  options.symmetry_breaking = false;
  IncrementalColoringSolver inc(g, 5, options);
  EXPECT_EQ(inc.solve_k(2), SolveResult::kUnsat);
  EXPECT_EQ(inc.solve_k(3), SolveResult::kUnsat);
  const std::uint64_t learnts_before_sat = inc.stats().learnt_clauses;
  EXPECT_GT(learnts_before_sat, 0u);
  EXPECT_EQ(inc.solve_k(4), SolveResult::kSat);
  EXPECT_GE(inc.stats().learnt_clauses, learnts_before_sat);
  EXPECT_TRUE(graph::is_proper_coloring(g, inc.coloring(), 4));
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
