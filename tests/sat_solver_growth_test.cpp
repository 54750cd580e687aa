// Regression test for the clause-database growth bug: the pre-arena solver
// tombstoned reduced learnts (deleted = true) but never reclaimed their
// storage or purged stale watch-list references, so on conflict-heavy solves
// the clause vector and every watch list grew monotonically with the number
// of learnt clauses ever created. With the ClauseArena + compacting GC the
// buffer must plateau: its high-water mark stays far below the lifetime
// allocation, and no watch/reason entry may ever reference a freed clause.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/sat/cnf.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm::sat;

/// Threshold-density random 3-SAT (ratio 4.26, 170 vars): these take
/// thousands of conflicts to refute, which made the old clause DB grow
/// without bound once learnts were "removed".
Cnf conflict_heavy_cnf(std::uint64_t seed) {
  msropm::util::Rng rng(seed);
  const std::size_t vars = 170;
  const auto clauses = static_cast<std::size_t>(4.26 * static_cast<double>(vars));
  Cnf cnf(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.uniform_index(vars));
      clause.push_back(Lit(v, rng.bernoulli(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

SolverOptions reduction_heavy_options() {
  SolverOptions options;
  options.learnt_cap = 64;  // force many reduce_learnts() rounds
  return options;
}

TEST(ClauseDbGrowth, GcReclaimsDeletedLearnts) {
  const Cnf cnf = conflict_heavy_cnf(2);
  Solver solver(cnf, reduction_heavy_options());
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  const SolverStats& stats = solver.stats();

  // The run must actually be conflict-heavy and reduction-heavy, otherwise
  // the assertions below are vacuous (seed 2 refutes in ~6.6k conflicts).
  ASSERT_GT(stats.conflicts, 1000u);
  ASSERT_GT(stats.removed_learnts, 500u);
  ASSERT_GE(stats.gc_runs, 2u);
  EXPECT_GT(stats.gc_freed_words, 0u);

  // The actual fix: memory for deleted learnts is reclaimed. The old design
  // kept every word ever allocated live in the buffer (peak == lifetime
  // allocation, ratio 1.0); with the compacting GC the high-water mark must
  // stay well below the lifetime allocation (measured ~0.43 on this seed).
  EXPECT_LT(stats.arena_peak_words, (3 * stats.arena_alloc_words) / 5)
      << "peak=" << stats.arena_peak_words
      << " lifetime alloc=" << stats.arena_alloc_words;

  // And the final buffer must have shrunk back below the peak.
  EXPECT_LE(solver.arena_used_words(), stats.arena_peak_words);
}

TEST(ClauseDbGrowth, PeakGrowsSublinearlyInConflicts) {
  // Checkpoint comparison: quadrupling the conflict budget must quadruple
  // the lifetime allocation (learnts keep being created) but NOT the peak
  // buffer size — the live set is bounded by the learnt cap, not by the
  // number of learnts ever created. The old tombstone design had
  // peak ~ lifetime allocation, i.e. ratio ~1.
  const Cnf cnf = conflict_heavy_cnf(2);

  SolverOptions small = reduction_heavy_options();
  small.budget.max_conflicts = 1000;
  Solver first(cnf, small);
  ASSERT_EQ(first.solve(), SolveResult::kUnknown);

  SolverOptions large = reduction_heavy_options();
  large.budget.max_conflicts = 4000;
  Solver second(cnf, large);
  const SolveResult r = second.solve();
  ASSERT_TRUE(r == SolveResult::kUnknown || r == SolveResult::kUnsat);
  ASSERT_GT(second.stats().conflicts, 3500u);

  const double alloc_growth =
      static_cast<double>(second.stats().arena_alloc_words) /
      static_cast<double>(first.stats().arena_alloc_words);
  const double peak_growth =
      static_cast<double>(second.stats().arena_peak_words) /
      static_cast<double>(first.stats().arena_peak_words);
  EXPECT_GT(alloc_growth, 2.5) << "expected ~4x more learnt words allocated";
  // The live set is bounded by the (geometrically growing) learnt cap, so
  // peak growth lags allocation growth; the old tombstone design had
  // peak_growth == alloc_growth. Measured: peak x2.5 vs alloc x3.3.
  EXPECT_LT(peak_growth, 0.85 * alloc_growth)
      << "peak must grow sublinearly vs lifetime allocation (peak_growth="
      << peak_growth << ", alloc_growth=" << alloc_growth << ")";
  EXPECT_LT(second.stats().arena_peak_words,
            (3 * second.stats().arena_alloc_words) / 5);
}

TEST(ClauseDbGrowth, BinaryWatchersSurviveGc) {
  // Implicit binary clauses live only in the watch lists (no arena record),
  // so a compacting GC must pass them through untouched: after GC-heavy
  // solves of binary-rich formulas, clause_refs_clean() must still hold
  // (it validates that binary watchers carry in-range literals and that
  // every long watcher's blocker is a literal of its clause), and solving
  // again must reproduce the exact same search — a corrupted or dropped
  // binary watcher would change propagation.
  msropm::util::Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t vars = 60 + 10 * static_cast<std::size_t>(trial);
    Cnf cnf(vars);
    // ~60% binary / 40% ternary mix keeps real conflict work while making
    // binary watchers the bulk of every watch list.
    for (std::size_t c = 0; c < 6 * vars; ++c) {
      const std::size_t len = c % 5 < 3 ? 2 : 3;
      Clause clause;
      while (clause.size() < len) {
        const auto v = static_cast<Var>(rng.uniform_index(vars));
        clause.push_back(Lit(v, rng.bernoulli(0.5)));
      }
      cnf.add_clause(std::move(clause));
    }
    SolverOptions options = reduction_heavy_options();
    options.learnt_cap = 24;
    options.budget.max_conflicts = 3000;

    Solver first(cnf, options);
    const SolveResult verdict = first.solve();
    EXPECT_TRUE(first.clause_refs_clean()) << "trial=" << trial;

    Solver second(cnf, options);
    EXPECT_EQ(second.solve(), verdict) << "trial=" << trial;
    EXPECT_EQ(second.stats().decisions, first.stats().decisions)
        << "trial=" << trial;
    EXPECT_EQ(second.stats().binary_propagations,
              first.stats().binary_propagations)
        << "trial=" << trial;
    if (verdict == SolveResult::kSat) {
      EXPECT_TRUE(cnf.satisfied_by(first.model())) << "trial=" << trial;
      EXPECT_EQ(first.model(), second.model()) << "trial=" << trial;
    }
  }
}

TEST(ClauseDbGrowth, NoStaleReferencesAfterReductions) {
  // The satellite invariant, checked from the outside on several seeds: after
  // a solve full of reduce_learnts() rounds and GCs, no watch list, reason
  // slot, or learnt-list entry references a deleted/freed clause. (Debug and
  // sanitizer builds additionally abort inside reduce_learnts() itself if
  // the invariant is ever violated mid-search.)
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    const Cnf cnf = conflict_heavy_cnf(seed);
    SolverOptions options = reduction_heavy_options();
    options.budget.max_conflicts = 2500;
    Solver solver(cnf, options);
    (void)solver.solve();
    EXPECT_GT(solver.stats().removed_learnts, 0u) << "seed=" << seed;
    EXPECT_TRUE(solver.clause_refs_clean()) << "seed=" << seed;
  }
}

// Golden search trajectories. The watch-list storage is a layout detail:
// visit order, compaction and growth must leave every search step where it
// was, so the full SolverStats of these solves are pinned. The values were
// recorded with the vector-of-vectors watch lists (each literal's list a
// separate std::vector) that the one-block ingest layout replaced.
struct GoldenStats {
  SolveResult result;
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t conflicts;
  std::uint64_t learnt_clauses;
  std::uint64_t removed_learnts;
  std::uint64_t blocker_skips;
  std::uint64_t binary_propagations;
  std::uint64_t gc_runs;
};

/// Random simple graph with exactly m edges (the randgraph_90 generator of
/// the exact_hard benchmark workload).
msropm::graph::Graph random_graph(std::size_t n, std::size_t m,
                                  std::uint64_t seed) {
  msropm::util::Rng rng(seed);
  msropm::graph::GraphBuilder builder(n);
  std::size_t added = 0;
  while (added < m) {
    const auto u = static_cast<msropm::graph::NodeId>(rng.uniform_index(n));
    const auto v = static_cast<msropm::graph::NodeId>(rng.uniform_index(n));
    if (u == v) continue;
    if (builder.add_edge(u, v)) ++added;
  }
  return builder.build();
}

void expect_golden(const std::string& name, const Cnf& cnf,
                   const SolverOptions& options, const GoldenStats& want) {
  Solver solver(cnf, options);
  const SolveResult result = solver.solve();
  const SolverStats& s = solver.stats();
  const auto line = [&] {
    return name + ": {" + std::to_string(static_cast<int>(result)) + ", " +
           std::to_string(s.decisions) + ", " + std::to_string(s.propagations) +
           ", " + std::to_string(s.conflicts) + ", " +
           std::to_string(s.learnt_clauses) + ", " +
           std::to_string(s.removed_learnts) + ", " +
           std::to_string(s.blocker_skips) + ", " +
           std::to_string(s.binary_propagations) + ", " +
           std::to_string(s.gc_runs) + "}";
  };
  EXPECT_EQ(result, want.result) << line();
  EXPECT_EQ(s.decisions, want.decisions) << line();
  EXPECT_EQ(s.propagations, want.propagations) << line();
  EXPECT_EQ(s.conflicts, want.conflicts) << line();
  EXPECT_EQ(s.learnt_clauses, want.learnt_clauses) << line();
  EXPECT_EQ(s.removed_learnts, want.removed_learnts) << line();
  EXPECT_EQ(s.blocker_skips, want.blocker_skips) << line();
  EXPECT_EQ(s.binary_propagations, want.binary_propagations) << line();
  EXPECT_EQ(s.gc_runs, want.gc_runs) << line();
  EXPECT_TRUE(solver.clause_refs_clean()) << name;
  if (result == SolveResult::kSat) {
    EXPECT_TRUE(cnf.satisfied_by(solver.model())) << name;
  }
}

constexpr SolveResult kSat = SolveResult::kSat;
constexpr SolveResult kUnsat = SolveResult::kUnsat;

TEST(GoldenSearch, KingsGraphs) {
  struct Case {
    std::size_t side;
    unsigned colors;
    GoldenStats want;
  };
  const Case cases[] = {
      {7, 4, {kSat, 5, 196, 0, 0, 0, 2, 142, 0}},
      {20, 4, {kSat, 18, 1600, 0, 0, 0, 2, 1182, 0}},
      {46, 4, {kSat, 44, 8464, 0, 0, 0, 2, 6304, 0}},
      {7, 3, {kUnsat, 0, 11, 0, 0, 0, 1, 24, 0}},
      {10, 3, {kUnsat, 0, 11, 0, 0, 0, 1, 24, 0}},
  };
  for (const Case& c : cases) {
    const auto enc =
        encode_coloring(msropm::graph::kings_graph_square(c.side), c.colors);
    expect_golden("kings_" + std::to_string(c.side) + "_K" +
                      std::to_string(c.colors),
                  enc.cnf, {}, c.want);
  }
}

TEST(GoldenSearch, ConflictHeavyRandomGraphs) {
  // UNSAT at K=4 after thousands of conflicts: learnt attach, watcher moves
  // into lists past their ingest slices, reductions and GC.
  struct Case {
    std::uint64_t seed;
    GoldenStats want;
  };
  const Case cases[] = {
      {4, {kUnsat, 2782, 183632, 2182, 2177, 0, 421375, 166262, 0}},
      {6, {kUnsat, 2602, 179243, 2064, 2055, 0, 389893, 164197, 0}},
  };
  ColoringEncodeOptions no_symmetry;
  no_symmetry.symmetry_breaking = false;
  for (const Case& c : cases) {
    const auto enc =
        encode_coloring(random_graph(90, 378, c.seed), 4, no_symmetry);
    expect_golden("randgraph_90_s" + std::to_string(c.seed), enc.cnf, {},
                  c.want);
  }
}

TEST(GoldenSearch, ReductionHeavyRandom3Sat) {
  // learnt_cap 64 forces many reductions and GCs on long-clause-only lists.
  expect_golden("rand3sat_170_cap64", conflict_heavy_cnf(2),
                reduction_heavy_options(),
                {kUnsat, 7292, 208241, 6070, 6062, 3596, 830036, 8983, 9});
}

}  // namespace
