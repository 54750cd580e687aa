// Tests for the coloring CNF encoder and the exact-coloring baseline.
#include "msropm/sat/coloring_encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace {

using namespace msropm;
using namespace msropm::sat;

graph::Graph petersen() {
  graph::GraphBuilder b(10);
  // Outer C5, inner pentagram, spokes.
  for (int i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(5 + i, 5 + (i + 2) % 5);
    b.add_edge(i, 5 + i);
  }
  return b.build();
}

TEST(Encoder, VariableLayout) {
  const auto g = graph::path_graph(3);
  const auto enc = encode_coloring(g, 4, {.symmetry_breaking = false});
  EXPECT_EQ(enc.cnf.num_vars(), 12u);
  EXPECT_EQ(enc.var_of(2, 3), 11u);
  // ALO n + edges m*4 clauses; no at-most-one clauses.
  EXPECT_EQ(enc.cnf.num_clauses(), 3u + 2u * 4u);
}

TEST(Encoder, PaletteOutsideColorRangeThrows) {
  // graph::Color is uint8_t: a palette past 255 would decode color 256 as 0
  // and could turn a proper model into an improper coloring.
  const auto g = graph::path_graph(2);
  EXPECT_THROW((void)encode_coloring(g, 0), std::invalid_argument);
  EXPECT_THROW((void)encode_coloring(g, 256), std::invalid_argument);
  EXPECT_THROW((void)solve_exact_coloring(g, 0), std::invalid_argument);
  EXPECT_THROW((void)solve_exact_coloring(g, 256), std::invalid_argument);
  EXPECT_NO_THROW((void)encode_coloring(g, 1));
  const auto widest = solve_exact_coloring(g, 255);
  ASSERT_TRUE(widest.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *widest, 255));
}

TEST(Encoder, SymmetryBreakingAddsUnits) {
  const auto g = graph::complete_graph(4);
  const auto plain = encode_coloring(g, 4, {.symmetry_breaking = false});
  const auto broken = encode_coloring(g, 4, {.symmetry_breaking = true});
  EXPECT_EQ(broken.cnf.num_clauses(), plain.cnf.num_clauses() + 4u);
}

TEST(GreedyClique, FindsK4InKingsGraph) {
  const auto g = graph::kings_graph(3, 3);
  const auto clique = greedy_clique(g);
  EXPECT_GE(clique.size(), 4u);
  for (std::size_t i = 0; i < clique.size(); ++i) {
    for (std::size_t j = i + 1; j < clique.size(); ++j) {
      EXPECT_TRUE(g.has_edge(clique[i], clique[j]));
    }
  }
}

struct ColoringCase {
  const char* name;
  graph::Graph graph;
  unsigned colors;
  bool expect_colorable;
};

class ExactColoringSweep : public ::testing::TestWithParam<ColoringCase> {};

TEST_P(ExactColoringSweep, MatchesKnownColorability) {
  const auto& param = GetParam();
  const auto coloring = solve_exact_coloring(param.graph, param.colors);
  EXPECT_EQ(coloring.has_value(), param.expect_colorable) << param.name;
  if (coloring) {
    EXPECT_TRUE(graph::is_proper_coloring(param.graph, *coloring, param.colors))
        << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KnownGraphs, ExactColoringSweep,
    ::testing::Values(
        ColoringCase{"triangle2", graph::cycle_graph(3), 2, false},
        ColoringCase{"triangle3", graph::cycle_graph(3), 3, true},
        ColoringCase{"evencycle2", graph::cycle_graph(8), 2, true},
        ColoringCase{"oddcycle2", graph::cycle_graph(7), 2, false},
        ColoringCase{"oddcycle3", graph::cycle_graph(7), 3, true},
        ColoringCase{"k4_3", graph::complete_graph(4), 3, false},
        ColoringCase{"k4_4", graph::complete_graph(4), 4, true},
        ColoringCase{"k5_4", graph::complete_graph(5), 4, false},
        ColoringCase{"petersen3", petersen(), 3, true},
        ColoringCase{"bipartite2", graph::complete_bipartite_graph(4, 5), 2, true},
        ColoringCase{"kings55_3", graph::kings_graph_square(5), 3, false},
        ColoringCase{"kings55_4", graph::kings_graph_square(5), 4, true},
        ColoringCase{"wheel6_4", graph::wheel_graph(6), 4, true},
        ColoringCase{"wheel6_3", graph::wheel_graph(6), 3, false}),
    [](const auto& info) { return info.param.name; });

TEST(ExactColoring, PaperInstance49NodeIsExactly4Chromatic) {
  // The accuracy baseline of the paper: a proper 4-coloring of the 49-node
  // King's graph exists (all edges satisfiable), and 3 colors do not suffice.
  const auto g = graph::kings_graph_square(7);
  const auto coloring4 = solve_exact_coloring(g, 4);
  ASSERT_TRUE(coloring4.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *coloring4, 4));
  EXPECT_FALSE(solve_exact_coloring(g, 3).has_value());
}

TEST(ExactColoring, MediumKingsGraphSolvesQuickly) {
  const auto g = graph::kings_graph_square(20);  // the 400-node instance
  const auto coloring = solve_exact_coloring(g, 4);
  ASSERT_TRUE(coloring.has_value());
  EXPECT_TRUE(graph::is_proper_coloring(g, *coloring, 4));
}

TEST(ExactColoring, SymmetryBreakingPreservesSatisfiability) {
  const auto g = petersen();
  const auto with = solve_exact_coloring(g, 3, {.symmetry_breaking = true});
  const auto without = solve_exact_coloring(g, 3, {.symmetry_breaking = false});
  EXPECT_TRUE(with.has_value());
  EXPECT_TRUE(without.has_value());
}

TEST(ChromaticNumber, KnownValues) {
  EXPECT_EQ(chromatic_number(graph::Graph(3)), 1u);
  EXPECT_EQ(chromatic_number(graph::path_graph(5)), 2u);
  EXPECT_EQ(chromatic_number(graph::cycle_graph(5)), 3u);
  EXPECT_EQ(chromatic_number(graph::complete_graph(5)), 5u);
  EXPECT_EQ(chromatic_number(graph::kings_graph_square(4)), 4u);
  EXPECT_EQ(chromatic_number(petersen()), 3u);
  EXPECT_EQ(chromatic_number(graph::wheel_graph(6)), 4u);  // odd outer cycle
  EXPECT_EQ(chromatic_number(graph::wheel_graph(7)), 3u);  // even outer cycle
}

TEST(ChromaticNumber, RespectsMaxK) {
  EXPECT_FALSE(chromatic_number(graph::complete_graph(6), 4).has_value());
}

TEST(ChromaticNumber, EarlyReturnsRespectMaxK) {
  // The pre-fix implementation returned 1 for every edgeless graph, even
  // with max_k == 0. Every early return must respect the bound.
  EXPECT_EQ(chromatic_number(graph::Graph(0), 0), 0u);  // chi = 0 <= 0
  EXPECT_FALSE(chromatic_number(graph::Graph(3), 0).has_value());
  EXPECT_EQ(chromatic_number(graph::Graph(3), 1), 1u);
  // Graphs with edges need >= 2 colors; max_k = 1 must be nullopt without
  // any solver call (clique lower bound).
  EXPECT_FALSE(chromatic_number(graph::path_graph(4), 1).has_value());
}

TEST(ChromaticNumber, SeededAtCliqueLowerBound) {
  // The greedy clique of a King's graph is a K4, so the sweep must start at
  // K = 4: exactly one SAT query, no wasted UNSAT solves below omega.
  const auto outcome = chromatic_search(graph::kings_graph_square(6), 8);
  ASSERT_TRUE(outcome.chromatic.has_value());
  EXPECT_EQ(*outcome.chromatic, 4u);
  EXPECT_EQ(outcome.lower_bound, 4u);
  EXPECT_EQ(outcome.solve_calls, 1u);
  EXPECT_TRUE(graph::is_proper_coloring(graph::kings_graph_square(6),
                                        outcome.coloring, 4));
}

TEST(ChromaticSearch, CancelledSearchReportsCancelled) {
  // A stop token that fired before the search makes it report cancelled,
  // not a proof.
  const auto g = graph::kings_graph_square(10);
  ChromaticSearchOptions options;
  options.stop = util::StopToken::at_deadline(util::StopToken::Clock::now());
  const auto outcome = chromatic_search(g, 8, options);
  EXPECT_FALSE(outcome.chromatic.has_value());
  EXPECT_TRUE(outcome.incomplete);
  EXPECT_TRUE(outcome.cancelled);
}

TEST(Decode, ThrowsWhenNoColorVariableTrue) {
  // An all-false model violates the at-least-one clauses; decode must
  // refuse instead of silently inventing color 0.
  const auto g = graph::path_graph(2);
  const auto enc = encode_coloring(g, 2, {.symmetry_breaking = false});
  const std::vector<std::uint8_t> bogus(enc.cnf.num_vars(), 0);
  EXPECT_THROW((void)enc.decode(bogus), std::logic_error);
}

TEST(Decode, FirstTrueColorWins) {
  // Without at-most-one clauses a model may give a node several colors; the
  // first one is the node's color.
  const auto g = graph::path_graph(2);
  const auto enc = encode_coloring(g, 3, {.symmetry_breaking = false});
  std::vector<std::uint8_t> model(enc.cnf.num_vars(), 0);
  model[enc.var_of(0, 1)] = 1;
  model[enc.var_of(0, 2)] = 1;
  model[enc.var_of(1, 0)] = 1;
  ASSERT_TRUE(enc.cnf.satisfied_by(model));
  EXPECT_EQ(enc.decode(model), (graph::Coloring{1, 0}));
}

// ---------------------------------------------------------------------------
// Formula equivalence with the per-clause-vector encoder.
// ---------------------------------------------------------------------------

/// Frozen reference: the encoder that built one std::vector<Lit> per clause,
/// with its comparison-sorted greedy clique. The pool encoder must emit the
/// same clauses, literal for literal, in the same order.
std::vector<graph::NodeId> reference_greedy_clique(const graph::Graph& g) {
  std::vector<graph::NodeId> order(g.num_nodes());
  for (graph::NodeId v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&g](graph::NodeId a, graph::NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  std::vector<graph::NodeId> clique;
  for (graph::NodeId v : order) {
    const bool compatible = std::all_of(
        clique.begin(), clique.end(),
        [&](graph::NodeId u) { return g.has_edge(u, v); });
    if (compatible) clique.push_back(v);
  }
  std::sort(clique.begin(), clique.end());
  return clique;
}

std::vector<Clause> reference_encoding(const graph::Graph& g, unsigned k,
                                       bool symmetry) {
  const auto var = [k](graph::NodeId v, unsigned c) {
    return static_cast<Var>(v * k + c);
  };
  std::vector<Clause> clauses;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    Clause at_least_one;
    for (unsigned c = 0; c < k; ++c) at_least_one.push_back(pos(var(v, c)));
    clauses.push_back(std::move(at_least_one));
  }
  for (const graph::Edge& e : g.edges()) {
    for (unsigned c = 0; c < k; ++c) {
      clauses.push_back({neg(var(e.u, c)), neg(var(e.v, c))});
    }
  }
  if (symmetry) {
    const auto clique = reference_greedy_clique(g);
    const auto fixable = std::min<std::size_t>(clique.size(), k);
    for (std::size_t i = 0; i < fixable; ++i) {
      clauses.push_back({pos(var(clique[i], static_cast<unsigned>(i)))});
    }
  }
  return clauses;
}

void expect_same_formula(const std::string& name, const graph::Graph& g) {
  for (unsigned k = 1; k <= 5; ++k) {
    for (const bool symmetry : {false, true}) {
      SCOPED_TRACE(name + " K=" + std::to_string(k) +
                   " symmetry=" + std::to_string(symmetry));
      const auto enc = encode_coloring(g, k, {.symmetry_breaking = symmetry});
      const auto reference = reference_encoding(g, k, symmetry);
      ASSERT_EQ(enc.cnf.num_vars(), g.num_nodes() * k);
      ASSERT_EQ(enc.cnf.num_clauses(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(std::ranges::equal(enc.cnf.clause(i), reference[i]))
            << "clause " << i;
      }
      EXPECT_TRUE(std::ranges::equal(greedy_clique(g), reference_greedy_clique(g)));
    }
  }
}

TEST(PoolEncoderEquivalence, KingsGraphs3To46) {
  for (std::size_t side = 3; side <= 46; ++side) {
    expect_same_formula("kings_" + std::to_string(side),
                        graph::kings_graph_square(side));
  }
}

TEST(PoolEncoderEquivalence, SeededGnpGraphs) {
  util::Rng rng(77);
  for (const std::size_t n : {1u, 2u, 9u, 30u, 60u, 120u}) {
    for (const double p : {0.0, 0.1, 0.3, 0.7}) {
      expect_same_formula("gnp_" + std::to_string(n) + "_" + std::to_string(p),
                          graph::erdos_renyi(n, p, rng));
    }
  }
}

// The sat.encode and sat.decode timers are write-only: the formula and the
// decoded coloring are identical with metrics and tracing on or off, and
// each call records one duration.
TEST(PoolEncoderEquivalence, ObsOnOrOffGivesIdenticalFormulaAndColoring) {
  const auto quiet = [] {
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset();
  };
  const auto g = graph::kings_graph_square(12);
  quiet();
  const auto off = encode_coloring(g, 4);
  Solver solver(off.cnf);
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  const graph::Coloring off_colors = off.decode(solver.model());
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  const auto on = encode_coloring(g, 4);
  const graph::Coloring on_colors = on.decode(solver.model());
#if !defined(MSROPM_OBS_DISABLED)
  const auto snap = obs::snapshot_metrics();
  for (const char* name : {"sat.encode", "sat.decode"}) {
    const auto* timer = snap.find_timer(name);
    ASSERT_NE(timer, nullptr) << name;
    EXPECT_EQ(timer->stats.count(), 1u) << name;
  }
#endif
  quiet();
  ASSERT_EQ(on.cnf.num_clauses(), off.cnf.num_clauses());
  for (std::size_t i = 0; i < off.cnf.num_clauses(); ++i) {
    ASSERT_TRUE(std::ranges::equal(on.cnf.clause(i), off.cnf.clause(i)));
  }
  EXPECT_EQ(on_colors, off_colors);
  EXPECT_TRUE(graph::is_proper_coloring(g, on_colors, 4));
}

// ---------------------------------------------------------------------------
// Verdict equivalence with the at-most-one encoding.
// ---------------------------------------------------------------------------

/// Frozen reference: the direct encoding WITH pairwise at-most-one clauses,
/// on the same variable layout as encode_coloring (x_{v,c} = v * K + c).
Cnf reference_amo_encoding(const graph::Graph& g, unsigned k, bool symmetry) {
  const auto var = [k](graph::NodeId v, unsigned c) {
    return static_cast<Var>(v * k + c);
  };
  Cnf cnf(g.num_nodes() * k);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    Clause at_least_one;
    for (unsigned c = 0; c < k; ++c) at_least_one.push_back(pos(var(v, c)));
    cnf.add_clause(std::move(at_least_one));
    for (unsigned c1 = 0; c1 < k; ++c1) {
      for (unsigned c2 = c1 + 1; c2 < k; ++c2) {
        cnf.add_binary(neg(var(v, c1)), neg(var(v, c2)));
      }
    }
  }
  for (const graph::Edge& e : g.edges()) {
    for (unsigned c = 0; c < k; ++c) {
      cnf.add_binary(neg(var(e.u, c)), neg(var(e.v, c)));
    }
  }
  if (symmetry) {
    const auto clique = greedy_clique(g);
    const auto fixable = std::min<std::size_t>(clique.size(), k);
    for (std::size_t i = 0; i < fixable; ++i) {
      cnf.add_unit(pos(var(clique[i], static_cast<unsigned>(i))));
    }
  }
  return cnf;
}

/// Both encodings must give the same verdict, and every SAT model of either
/// must decode to a proper k-coloring.
void expect_same_verdict(const std::string& name, const graph::Graph& g,
                         unsigned k) {
  for (const bool symmetry : {false, true}) {
    const std::string label = name + " K=" + std::to_string(k) +
                              " symmetry=" + std::to_string(symmetry);
    const auto enc = encode_coloring(g, k, {.symmetry_breaking = symmetry});
    const Cnf reference = reference_amo_encoding(g, k, symmetry);
    ASSERT_EQ(enc.cnf.num_vars(), reference.num_vars()) << label;
    Solver amo_free(enc.cnf);
    Solver amo(reference);
    const SolveResult got = amo_free.solve();
    ASSERT_NE(got, SolveResult::kUnknown) << label;
    ASSERT_EQ(got, amo.solve()) << label;
    if (got == SolveResult::kSat) {
      EXPECT_TRUE(graph::is_proper_coloring(g, enc.decode(amo_free.model()), k))
          << label;
      EXPECT_TRUE(graph::is_proper_coloring(g, enc.decode(amo.model()), k))
          << label;
    }
  }
}

/// The conflict-heavy randgraph_90 instances: n = 90 nodes, exactly m = 378
/// distinct random edges drawn from util::Rng(seed). None is 4-colorable.
graph::Graph randgraph_90(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphBuilder builder(90);
  std::size_t added = 0;
  while (added < 378) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(90));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(90));
    if (u != v && builder.add_edge(u, v)) ++added;
  }
  return builder.build();
}

/// The G(n, p) rows of perfbench's exact_hard main corpus, drawn in order
/// from one stream; each has chromatic number 6.
std::vector<std::pair<std::string, graph::Graph>> gnp_rows() {
  const std::pair<std::size_t, double> shapes[] = {
      {40, 0.30}, {50, 0.25}, {60, 0.22}, {70, 0.20}};
  util::Rng rng(1234);
  std::vector<std::pair<std::string, graph::Graph>> rows;
  for (const auto& [n, p] : shapes) {
    rows.emplace_back("gnp_" + std::to_string(n), graph::erdos_renyi(n, p, rng));
  }
  return rows;
}

TEST(AmoFreeEquivalence, KingsGraphsAtThreeAndFourColors) {
  for (const std::size_t side : {7u, 10u, 14u}) {
    const auto g = graph::kings_graph_square(side);
    const std::string name = "kings_" + std::to_string(side);
    expect_same_verdict(name, g, 3);
    expect_same_verdict(name, g, 4);
    EXPECT_EQ(chromatic_number(g), 4u) << name;
  }
}

TEST(AmoFreeEquivalence, RandGraph90AtFourColors) {
  for (const std::uint64_t seed : {2u, 3u, 4u, 5u, 6u}) {
    const auto g = randgraph_90(seed);
    expect_same_verdict("randgraph_90 seed " + std::to_string(seed), g, 4);
    EXPECT_FALSE(solve_exact_coloring(g, 4).has_value()) << seed;
  }
}

TEST(AmoFreeEquivalence, GnpRowsAtChiMinusOneAndChi) {
  for (const auto& [name, g] : gnp_rows()) {
    expect_same_verdict(name, g, 5);
    expect_same_verdict(name, g, 6);
    const auto outcome = chromatic_search(g, 8);
    ASSERT_EQ(outcome.chromatic, 6u) << name;
    EXPECT_TRUE(graph::is_proper_coloring(g, outcome.coloring, 6)) << name;
  }
}

TEST(ExactColoring, RandomPlanarInstancesAre4Colorable) {
  // The paper frames the workload as planar 4-coloring; triangulated grids
  // are planar, so the four-color theorem guarantees a solution.
  msropm::util::Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = graph::triangulated_grid(5, 5, rng);
    const auto coloring = solve_exact_coloring(g, 4);
    ASSERT_TRUE(coloring.has_value()) << "trial " << trial;
    EXPECT_TRUE(graph::is_proper_coloring(g, *coloring, 4));
  }
}

}  // namespace
