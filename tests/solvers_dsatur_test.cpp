// Tests for DSATUR.
#include "msropm/solvers/dsatur.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using solvers::solve_dsatur;
using solvers::solve_dsatur_bounded;

// The O(n^2) DSATUR this solver replaced, frozen as the reference: every
// round rescans all nodes, and each saturation is a std::set.
solvers::DsaturResult reference_dsatur(const graph::Graph& g, unsigned palette_cap) {
  const std::size_t n = g.num_nodes();
  solvers::DsaturResult result;
  result.colors.assign(n, 0);
  if (n == 0) return result;

  constexpr unsigned kUncolored = ~0u;
  std::vector<unsigned> assigned(n, kUncolored);
  std::vector<std::set<unsigned>> saturation(n);
  std::vector<std::uint8_t> done(n, 0);

  for (std::size_t round = 0; round < n; ++round) {
    std::size_t pick = n;
    for (std::size_t u = 0; u < n; ++u) {
      if (done[u]) continue;
      if (pick == n) {
        pick = u;
        continue;
      }
      const auto su = saturation[u].size();
      const auto sp = saturation[pick].size();
      if (su > sp || (su == sp && g.degree(static_cast<graph::NodeId>(u)) >
                                      g.degree(static_cast<graph::NodeId>(pick)))) {
        pick = u;
      }
    }
    const auto u = static_cast<graph::NodeId>(pick);
    unsigned color = 0;
    while (saturation[pick].count(color) != 0) ++color;
    if (palette_cap != 0 && color >= palette_cap) {
      unsigned best_color = 0;
      std::size_t best_conflicts = ~std::size_t{0};
      for (unsigned c = 0; c < palette_cap; ++c) {
        std::size_t conflicts = 0;
        for (graph::NodeId v : g.neighbors(u)) {
          if (assigned[v] == c) ++conflicts;
        }
        if (conflicts < best_conflicts) {
          best_conflicts = conflicts;
          best_color = c;
        }
      }
      color = best_color;
    }
    assigned[pick] = color;
    done[pick] = 1;
    result.colors_used = std::max(result.colors_used, color + 1);
    for (graph::NodeId v : g.neighbors(u)) {
      if (!done[v]) saturation[v].insert(color);
    }
  }

  if (result.colors_used > 255) {
    throw std::runtime_error("dsatur: more than 255 colors needed");
  }
  for (std::size_t u = 0; u < n; ++u) {
    result.colors[u] = static_cast<graph::Color>(assigned[u]);
  }
  return result;
}

// Cap 0 is the unbounded solver.
solvers::DsaturResult run_dsatur(const graph::Graph& g, unsigned palette_cap) {
  return palette_cap == 0 ? solve_dsatur(g) : solve_dsatur_bounded(g, palette_cap);
}

void expect_matches_reference(const graph::Graph& g, const std::string& label) {
  for (const unsigned cap : {0u, 2u, 3u, 4u}) {
    SCOPED_TRACE(label + ", palette cap " + std::to_string(cap));
    const auto expected = reference_dsatur(g, cap);
    const auto actual = run_dsatur(g, cap);
    EXPECT_EQ(actual.colors_used, expected.colors_used);
    EXPECT_EQ(actual.colors, expected.colors);
  }
}

TEST(DsaturEquivalence, KingsGraphsMatchReference) {
  for (std::size_t side = 3; side <= 46; ++side) {
    expect_matches_reference(graph::kings_graph_square(side),
                             "kings " + std::to_string(side));
  }
}

// Sparse to dense G(n,p): ties, bounded fallbacks, and (at p = 0.9) colors
// past 64 and 128, so every word of the saturation mask is used.
TEST(DsaturEquivalence, RandomGraphsMatchReference) {
  msropm::util::Rng rng(2024);
  for (const std::size_t n : {1, 2, 10, 40, 120}) {
    for (const double p : {0.0, 0.05, 0.2, 0.5, 0.8}) {
      for (int rep = 0; rep < 2; ++rep) {
        expect_matches_reference(graph::erdos_renyi(n, p, rng),
                                 "G(" + std::to_string(n) + ", " +
                                     std::to_string(p) + ") #" + std::to_string(rep));
      }
    }
  }
  expect_matches_reference(graph::erdos_renyi(300, 0.9, rng), "G(300, 0.9)");
  expect_matches_reference(graph::Graph(6), "6 isolated nodes");
}

// graph::Color is 8 bits: 255 colors fit, a 256th does not.
TEST(Dsatur, PaletteLimitIs255Colors) {
  const auto k255 = graph::complete_graph(255);
  const auto result = solve_dsatur(k255);
  EXPECT_EQ(result.colors_used, 255u);
  EXPECT_TRUE(graph::is_proper_coloring(k255, result.colors, 255));
  EXPECT_EQ(result.colors, reference_dsatur(k255, 0).colors);

  const auto k256 = graph::complete_graph(256);
  for (const unsigned cap : {0u, 256u, 1000u}) {
    try {
      (void)run_dsatur(k256, cap);
      ADD_FAILURE() << "no throw at palette cap " << cap;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "dsatur: more than 255 colors needed");
    }
  }
  // A palette of 255 bounds the colors instead: no throw.
  EXPECT_EQ(solve_dsatur_bounded(k256, 255).colors_used, 255u);
  EXPECT_EQ(solve_dsatur_bounded(k256, 255).colors,
            reference_dsatur(k256, 255).colors);
}

TEST(Dsatur, AlwaysProperUnbounded) {
  msropm::util::Rng rng(3);
  const auto graphs = {graph::kings_graph_square(6), graph::cycle_graph(7),
                       graph::complete_graph(5),
                       graph::erdos_renyi(40, 0.3, rng)};
  for (const auto& g : graphs) {
    const auto result = solve_dsatur(g);
    EXPECT_TRUE(graph::is_proper_coloring(g, result.colors, result.colors_used));
  }
}

TEST(Dsatur, BipartiteUsesTwoColors) {
  const auto g = graph::complete_bipartite_graph(4, 6);
  const auto result = solve_dsatur(g);
  EXPECT_EQ(result.colors_used, 2u);
}

TEST(Dsatur, CompleteGraphUsesN) {
  const auto result = solve_dsatur(graph::complete_graph(7));
  EXPECT_EQ(result.colors_used, 7u);
}

TEST(Dsatur, EvenCycleTwoOddCycleThree) {
  EXPECT_EQ(solve_dsatur(graph::cycle_graph(8)).colors_used, 2u);
  EXPECT_EQ(solve_dsatur(graph::cycle_graph(9)).colors_used, 3u);
}

TEST(Dsatur, KingsGraphWithinFive) {
  // DSATUR is not guaranteed optimal, but King's graphs color greedily well.
  const auto result = solve_dsatur(graph::kings_graph_square(8));
  EXPECT_LE(result.colors_used, 5u);
  EXPECT_GE(result.colors_used, 4u);
}

TEST(Dsatur, EmptyAndSingleton) {
  const auto empty = solve_dsatur(graph::Graph(0));
  EXPECT_TRUE(empty.colors.empty());
  const auto lone = solve_dsatur(graph::path_graph(1));
  EXPECT_EQ(lone.colors_used, 1u);
}

TEST(DsaturBounded, RespectsPalette) {
  const auto g = graph::complete_graph(8);
  const auto result = solve_dsatur_bounded(g, 4);
  EXPECT_EQ(result.colors_used, 4u);
  for (auto c : result.colors) EXPECT_LT(c, 4);
  // Quality: with 4 colors on K8 the best grouping is pairs: 4 conflicts.
  EXPECT_LE(graph::count_conflicts(g, result.colors), 6u);
}

TEST(DsaturBounded, FeasiblePaletteStillProper) {
  const auto g = graph::kings_graph_square(5);
  const auto result = solve_dsatur_bounded(g, 4);
  EXPECT_TRUE(graph::is_proper_coloring(g, result.colors, 4));
}

// The solvers.dsatur timer is write-only: colorings are identical with
// metrics and tracing on or off, and each call records one duration.
TEST(Dsatur, ObsOnOrOffGivesIdenticalColorings) {
  const auto quiet = [] {
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset();
  };
  msropm::util::Rng rng(8);
  const auto g = graph::erdos_renyi(150, 0.3, rng);
  quiet();
  const auto off = solve_dsatur(g);
  const auto off_bounded = solve_dsatur_bounded(g, 4);
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  const auto on = solve_dsatur(g);
  const auto on_bounded = solve_dsatur_bounded(g, 4);
#if !defined(MSROPM_OBS_DISABLED)
  const auto snap = obs::snapshot_metrics();
  const auto* timer = snap.find_timer("solvers.dsatur");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(), 2u);
#endif
  quiet();
  EXPECT_EQ(on.colors, off.colors);
  EXPECT_EQ(on.colors_used, off.colors_used);
  EXPECT_EQ(on_bounded.colors, off_bounded.colors);
  EXPECT_EQ(on_bounded.colors_used, off_bounded.colors_used);
}

TEST(DsaturBounded, Validation) {
  EXPECT_THROW(solve_dsatur_bounded(graph::path_graph(2), 0),
               std::invalid_argument);
}

}  // namespace
