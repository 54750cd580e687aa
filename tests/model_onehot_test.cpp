// Tests for the one-hot Ising expansion of coloring (paper Eq. 5).
#include "msropm/model/onehot.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/model/potts.hpp"

namespace {

using namespace msropm;
using model::OneHotColoringModel;

TEST(OneHot, SpinCountIsNTimesK) {
  const auto g = graph::kings_graph_square(7);
  const OneHotColoringModel m(g, 4);
  // The paper's point: n*N binary spins vs n Potts spins.
  EXPECT_EQ(m.num_binary_spins(), 49u * 4u);
}

TEST(OneHot, EncodeDecodeRoundTrip) {
  const auto g = graph::cycle_graph(5);
  const OneHotColoringModel m(g, 3);
  const graph::Coloring colors{0, 1, 2, 1, 2};
  const auto s = m.encode(colors);
  const auto decoded = m.decode(s);
  EXPECT_TRUE(decoded.valid_one_hot);
  EXPECT_EQ(decoded.colors, colors);
}

TEST(OneHot, EncodeRejectsOutOfRange) {
  const auto g = graph::path_graph(2);
  const OneHotColoringModel m(g, 3);
  EXPECT_THROW(m.encode({0, 3}), std::invalid_argument);
  EXPECT_THROW(m.encode({0}), std::invalid_argument);
}

TEST(OneHot, ProperColoringHasZeroEnergy) {
  const auto g = graph::kings_graph_square(4);
  const OneHotColoringModel m(g, 4);
  const auto proper = graph::kings_graph_pattern_coloring(4, 4);
  EXPECT_DOUBLE_EQ(m.energy(m.encode(proper)), 0.0);
}

TEST(OneHot, ConflictCostsMatchPottsEnergy) {
  // For valid one-hot encodings, Eq. 5's edge term equals the Potts energy.
  const auto g = graph::cycle_graph(5);
  const OneHotColoringModel onehot(g, 3);
  const model::PottsModel potts(g, 3, 1.0);
  const graph::Coloring colors{0, 0, 1, 2, 2};  // two conflicts (0-1, 3-4)
  EXPECT_DOUBLE_EQ(onehot.energy(onehot.encode(colors)),
                   potts.energy(colors));
}

TEST(OneHot, ConstraintTermPenalizesNonOneHot) {
  const auto g = graph::path_graph(2);
  const OneHotColoringModel m(g, 3);
  std::vector<std::uint8_t> s(6, 0);
  // Node 0 has zero colors set: (1-0)^2 = 1; node 1 likewise.
  EXPECT_DOUBLE_EQ(m.energy(s), 2.0);
  // Node 0 with two colors set: (1-2)^2 = 1; node 1 one-hot on color 2,
  // which conflicts with neither of node 0's set colors.
  s[0] = 1;
  s[1] = 1;
  s[5] = 1;
  EXPECT_DOUBLE_EQ(m.energy(s), 1.0);
}

TEST(OneHot, DecodeFlagsInvalidRows) {
  const auto g = graph::path_graph(2);
  const OneHotColoringModel m(g, 3);
  std::vector<std::uint8_t> s(6, 0);
  s[0] = 1;  // node 0: one color
  // node 1: none
  const auto decoded = m.decode(s);
  EXPECT_FALSE(decoded.valid_one_hot);
  EXPECT_EQ(decoded.colors[0], 0);
}

TEST(OneHot, QuadraticTermBlowup) {
  const auto g = graph::kings_graph_square(7);
  const OneHotColoringModel m(g, 4);
  // Per node C(4,2)=6 one-hot couplings + per edge 4 conflict couplings.
  EXPECT_EQ(m.num_quadratic_terms(), 49u * 6u + 156u * 4u);
  // Contrast: the Potts machine needs exactly one coupling per edge (156).
  EXPECT_GT(m.num_quadratic_terms(), g.num_edges() * 5);
}

TEST(OneHot, PenaltyWeightScales) {
  const auto g = graph::path_graph(2);
  const OneHotColoringModel m(g, 2, 3.0);
  const graph::Coloring conflict{0, 0};
  EXPECT_DOUBLE_EQ(m.energy(m.encode(conflict)), 3.0);
}

TEST(OneHot, RejectsTooFewColors) {
  const auto g = graph::path_graph(2);
  EXPECT_THROW(OneHotColoringModel(g, 1), std::invalid_argument);
}

}  // namespace
