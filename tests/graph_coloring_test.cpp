// Tests for coloring bookkeeping and the paper's accuracy metric.
#include "msropm/graph/coloring.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/obs/obs.hpp"

namespace {

using namespace msropm::graph;

TEST(Conflicts, CountsMonochromaticEdges) {
  const Graph g = path_graph(4);
  EXPECT_EQ(count_conflicts(g, {0, 0, 0, 0}), 3u);
  EXPECT_EQ(count_conflicts(g, {0, 1, 0, 1}), 0u);
  EXPECT_EQ(count_conflicts(g, {0, 0, 1, 1}), 2u);
}

TEST(Conflicts, SizeMismatchThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)count_conflicts(g, {0, 1}), std::invalid_argument);
}

// The graph.verify timer is write-only: the conflict count is identical with
// metrics and tracing on or off, and each count records one duration.
TEST(Conflicts, ObsOnOrOffGivesIdenticalCounts) {
  const auto quiet = [] {
    msropm::obs::set_metrics_enabled(false);
    msropm::obs::set_tracing_enabled(false);
    msropm::obs::reset();
  };
  const Graph g = kings_graph_square(9);
  Coloring colors(g.num_nodes());
  for (std::size_t v = 0; v < colors.size(); ++v) colors[v] = static_cast<Color>(v % 3);
  quiet();
  const std::size_t off = count_conflicts(g, colors);
  msropm::obs::set_metrics_enabled(true);
  msropm::obs::set_tracing_enabled(true);
  const std::size_t on = count_conflicts(g, colors);
#if !defined(MSROPM_OBS_DISABLED)
  const auto snap = msropm::obs::snapshot_metrics();
  const auto* timer = snap.find_timer("graph.verify");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(), 1u);
#endif
  quiet();
  EXPECT_EQ(on, off);
  EXPECT_GT(off, 0u);
}

TEST(Accuracy, MatchesSatisfiedFraction) {
  const Graph g = cycle_graph(4);
  EXPECT_DOUBLE_EQ(coloring_accuracy(g, {0, 1, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(coloring_accuracy(g, {0, 0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(coloring_accuracy(g, {0, 0, 1, 1}), 0.5);
}

TEST(Accuracy, EdgelessGraphIsPerfect) {
  const Graph g(3);
  EXPECT_DOUBLE_EQ(coloring_accuracy(g, {0, 0, 0}), 1.0);
}

TEST(ProperColoring, ValidatesRangeAndConflicts) {
  const Graph g = cycle_graph(3);
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 2}, 3));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 1}, 3));   // conflict
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 3}, 3));   // out of palette
  EXPECT_FALSE(is_proper_coloring(g, {0, 1}, 3));      // wrong size
}

TEST(ColorsUsed, CountsDistinct) {
  EXPECT_EQ(colors_used({0, 0, 0}), 1u);
  EXPECT_EQ(colors_used({0, 1, 2, 1}), 3u);
  EXPECT_EQ(colors_used({}), 0u);
}

TEST(ConflictingEdges, ReturnsIds) {
  const Graph g = path_graph(4);  // edges 0:01 1:12 2:23
  const auto bad = conflicting_edges(g, {0, 0, 1, 1});
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[0], 0u);
  EXPECT_EQ(bad[1], 2u);
}

TEST(SatisfiedEdges, ComplementOfConflicts) {
  const Graph g = kings_graph(3, 3);
  const Coloring c = kings_graph_pattern_coloring(3, 3);
  EXPECT_EQ(count_satisfied_edges(g, c) + count_conflicts(g, c), g.num_edges());
}

class PatternColoringSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatternColoringSweep, PatternIsProper4Coloring) {
  const std::size_t side = GetParam();
  const Graph g = kings_graph_square(side);
  const Coloring c = kings_graph_pattern_coloring(side, side);
  EXPECT_TRUE(is_proper_coloring(g, c, 4))
      << "King's graphs are 4-chromatic; the 2x2 block pattern must be proper";
  EXPECT_DOUBLE_EQ(coloring_accuracy(g, c), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sides, PatternColoringSweep,
                         ::testing::Values(2, 3, 4, 5, 7, 10, 20, 32, 46));

TEST(PatternColoring, RectangularAlsoProper) {
  const Graph g = kings_graph(3, 8);
  EXPECT_TRUE(is_proper_coloring(g, kings_graph_pattern_coloring(3, 8), 4));
}

TEST(PatternColoring, UsesFourColorsWhenBigEnough) {
  const auto c = kings_graph_pattern_coloring(4, 4);
  EXPECT_EQ(colors_used(c), 4u);
}

}  // namespace
