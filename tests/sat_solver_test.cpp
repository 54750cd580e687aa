// Tests for the CDCL solver.
#include "msropm/sat/solver.hpp"

#include <gtest/gtest.h>

#include "msropm/util/rng.hpp"

namespace {

using namespace msropm::sat;

TEST(Solver, TrivialSat) {
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
}

TEST(Solver, TrivialUnsat) {
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  cnf.add_unit(neg(0));
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyClauseUnsat) {
  Cnf cnf(2);
  cnf.add_clause({});
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyFormulaSat) {
  Cnf cnf(3);
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model().size(), 3u);
}

TEST(Solver, UnitPropagationChain) {
  // x0, x0->x1, x1->x2, x2->x3 as implications.
  Cnf cnf(4);
  cnf.add_unit(pos(0));
  cnf.add_binary(neg(0), pos(1));
  cnf.add_binary(neg(1), pos(2));
  cnf.add_binary(neg(2), pos(3));
  Solver s(cnf);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s.model()[i], 1);
  EXPECT_EQ(s.stats().decisions, 0u) << "pure propagation needs no decisions";
}

TEST(Solver, TautologicalClauseIgnored) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), neg(0));
  cnf.add_unit(pos(1));
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, DuplicateLiteralsCollapsed) {
  Cnf cnf(1);
  cnf.add_clause({pos(0), pos(0), pos(0)});
  Solver s(cnf);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
}

TEST(Solver, XorChainSat) {
  // (a xor b) encoded as CNF; chained parity constraints are classic CDCL
  // exercise material.
  Cnf cnf(6);
  auto add_xor = [&cnf](Var a, Var b, Var c) {
    // c = a xor b
    cnf.add_ternary(neg(a), neg(b), neg(c));
    cnf.add_ternary(pos(a), pos(b), neg(c));
    cnf.add_ternary(pos(a), neg(b), pos(c));
    cnf.add_ternary(neg(a), pos(b), pos(c));
  };
  add_xor(0, 1, 2);
  add_xor(2, 3, 4);
  cnf.add_unit(pos(4));
  cnf.add_unit(pos(0));
  Solver s(cnf);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  const auto& m = s.model();
  EXPECT_EQ(m[2], m[0] ^ m[1]);
  EXPECT_EQ(m[4], m[2] ^ m[3]);
  EXPECT_EQ(m[4], 1);
}

TEST(Solver, PigeonholeUnsat) {
  // PHP(4 pigeons, 3 holes): UNSAT, requires real conflict analysis.
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
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, PigeonholeLargerUnsat) {
  const int pigeons = 7;
  const int holes = 6;
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
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().learnt_clauses, 0u);
}

TEST(Solver, ModelSatisfiesRandom3Sat) {
  // Random under-constrained 3-SAT instances must come back SAT with a
  // model the CNF checker accepts.
  msropm::util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t vars = 30;
    const std::size_t clauses = 90;  // ratio 3.0 < threshold 4.26
    Cnf cnf(vars);
    for (std::size_t c = 0; c < clauses; ++c) {
      Clause clause;
      while (clause.size() < 3) {
        const auto v = static_cast<Var>(rng.uniform_index(vars));
        const Lit l(v, rng.bernoulli(0.5));
        clause.push_back(l);
      }
      cnf.add_clause(clause);
    }
    Solver s(cnf);
    const auto result = s.solve();
    if (result == SolveResult::kSat) {
      EXPECT_TRUE(cnf.satisfied_by(s.model())) << "trial " << trial;
    }
    // Over-constrained trials may be UNSAT; both results must terminate.
    EXPECT_NE(result, SolveResult::kUnknown);
  }
}

TEST(Solver, AssumptionsRestrictModels) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), pos(1));
  Solver s1(cnf);
  ASSERT_EQ(s1.solve({neg(0)}), SolveResult::kSat);
  EXPECT_EQ(s1.model()[0], 0);
  EXPECT_EQ(s1.model()[1], 1);
}

TEST(Solver, ConflictingAssumptionsUnsat) {
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  Solver s(cnf);
  EXPECT_EQ(s.solve({neg(0)}), SolveResult::kUnsat);
}

TEST(Solver, ConflictLimitReturnsUnknown) {
  // A hard pigeonhole with a conflict budget of 1 cannot finish.
  const int pigeons = 8;
  const int holes = 7;
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
  SolverOptions opts;
  opts.conflict_limit = 1;
  Solver s(cnf, opts);
  EXPECT_EQ(s.solve(), SolveResult::kUnknown);
}

TEST(Solver, SecondSolveRepeatsVerdict) {
  // Multi-shot contract: the solver backtracks to root between calls, so a
  // repeated query returns the same verdict and a valid model, not stale
  // state.
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  Solver s(cnf);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
}

TEST(Solver, SolveAfterAssumptionConflictRecovers) {
  // The old implementation asserted assumptions as level-0 units, so an
  // assumption conflict set the formula-UNSAT flag and poisoned the solver
  // (guarded by a single-shot throw). Assumptions are decisions now: the
  // UNSAT-under-assumptions verdict must not leak into later calls.
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  Solver s(cnf);
  EXPECT_EQ(s.solve({neg(0)}), SolveResult::kUnsat);
  EXPECT_FALSE(s.formula_unsat());
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions()[0], neg(0));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model()[0], 1);
  EXPECT_EQ(s.solve({pos(0)}), SolveResult::kSat);
}

TEST(Solver, PreStoppedTokenReturnsUnknown) {
  // A satisfiable formula must not claim SAT when cancellation interrupted
  // clause ingestion: the clause DB may be partial.
  Cnf cnf(50);
  msropm::util::Rng rng(3);
  for (int c = 0; c < 150; ++c) {
    Clause clause;
    while (clause.size() < 3) {
      clause.push_back(Lit(static_cast<Var>(rng.uniform_index(50)),
                           rng.bernoulli(0.5)));
    }
    cnf.add_clause(clause);
  }
  msropm::util::StopSource source;
  source.request_stop();
  SolverOptions options;
  options.stop = source.token();
  Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_TRUE(solver.cancelled());
}

TEST(Solver, DerivedUnsatOutranksLaterCancellation) {
  // UNSAT derived during construction refutes the formula no matter what
  // happens afterwards, so a stop request arriving before solve() must not
  // downgrade the answer to kUnknown. (A token stopped before construction
  // preempts ingestion entirely and yields kUnknown instead — see
  // PreStoppedTokenReturnsUnknown.)
  Cnf cnf(1);
  cnf.add_unit(pos(0));
  cnf.add_unit(neg(0));
  msropm::util::StopSource source;
  SolverOptions options;
  options.stop = source.token();
  Solver solver(cnf, options);
  source.request_stop();
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(Solver, DeadlineTokenInterruptsSearch) {
  // Hard random 3-SAT near the phase transition with an already-expired
  // deadline: the first in-search poll must abort with kUnknown.
  msropm::util::Rng rng(11);
  Cnf cnf(120);
  for (int c = 0; c < 510; ++c) {
    Clause clause;
    while (clause.size() < 3) {
      clause.push_back(Lit(static_cast<Var>(rng.uniform_index(120)),
                           rng.bernoulli(0.5)));
    }
    cnf.add_clause(clause);
  }
  SolverOptions options;
  options.stop = msropm::util::StopToken::at_deadline(
      msropm::util::StopToken::Clock::now());
  Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_TRUE(solver.cancelled());
}

TEST(Solver, InertTokenDoesNotDisturbSearch) {
  Cnf cnf(2);
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(0), pos(1)});
  SolverOptions options;  // default-constructed stop token
  Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_FALSE(solver.cancelled());
}

TEST(SolveCnfHelper, ReturnsModelOrNullopt) {
  Cnf sat(1);
  sat.add_unit(pos(0));
  const auto model = solve_cnf(sat);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ((*model)[0], 1);

  Cnf unsat(1);
  unsat.add_unit(pos(0));
  unsat.add_unit(neg(0));
  EXPECT_FALSE(solve_cnf(unsat).has_value());
}

}  // namespace
