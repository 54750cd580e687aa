// Tests for the Potts model (paper Eq. 3) and phase quantization.
#include "msropm/model/potts.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "msropm/graph/builders.hpp"

namespace {

using namespace msropm;
using model::PottsModel;
using model::PottsSpin;

TEST(PottsModel, EnergyCountsSameStatePairs) {
  const auto g = graph::path_graph(3);
  const PottsModel m(g, 4, 1.0);
  EXPECT_DOUBLE_EQ(m.energy({0, 0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(m.energy({0, 1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(m.energy({2, 2, 1}), 1.0);
}

TEST(PottsModel, RejectsBadStates) {
  const auto g = graph::path_graph(2);
  EXPECT_THROW(PottsModel(g, 1), std::invalid_argument);
  const PottsModel m(g, 3);
  EXPECT_THROW((void)m.energy({0, 3}), std::invalid_argument);
  EXPECT_THROW((void)m.energy({0}), std::invalid_argument);
}

TEST(PottsModel, ColorableGroundEnergyIsZero) {
  const auto g = graph::kings_graph_square(4);
  const PottsModel m(g, 4);
  const auto pattern = graph::kings_graph_pattern_coloring(4, 4);
  EXPECT_DOUBLE_EQ(m.energy(pattern), 0.0);
}

// Ideal phase of Potts spin s in an n-state machine: 2*pi*s/n.
double ideal_phase(unsigned s, unsigned n) {
  return 2.0 * std::numbers::pi * static_cast<double>(s) / static_cast<double>(n);
}

class PhaseQuantizationSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PhaseQuantizationSweep, RoundTripsAllSpins) {
  const unsigned n = GetParam();
  for (unsigned s = 0; s < n; ++s) {
    const double theta = ideal_phase(s, n);
    EXPECT_EQ(model::potts_from_phase(theta, n), s);
  }
}

TEST_P(PhaseQuantizationSweep, NearestQuantizationWithinHalfSlot) {
  const unsigned n = GetParam();
  const double slot = 2.0 * std::numbers::pi / n;
  for (unsigned s = 0; s < n; ++s) {
    const double theta = ideal_phase(s, n);
    EXPECT_EQ(model::potts_from_phase(theta + 0.49 * slot, n), s);
    EXPECT_EQ(model::potts_from_phase(theta - 0.49 * slot, n), s);
  }
}

TEST_P(PhaseQuantizationSweep, HandlesWrappedAngles) {
  const unsigned n = GetParam();
  EXPECT_EQ(model::potts_from_phase(2.0 * std::numbers::pi, n), 0);
  EXPECT_EQ(model::potts_from_phase(-2.0 * std::numbers::pi, n), 0);
  EXPECT_EQ(model::potts_from_phase(4.0 * std::numbers::pi + 0.01, n), 0);
}

INSTANTIATE_TEST_SUITE_P(Orders, PhaseQuantizationSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u, 16u));

TEST(PhaseQuantization, RejectsBadOrders) {
  EXPECT_THROW((void)model::potts_from_phase(0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)model::potts_from_phase(0.0, 256), std::invalid_argument);
}

// A coloring passes straight through as a Potts spin vector.
static_assert(std::is_same_v<std::vector<PottsSpin>, graph::Coloring>);

TEST(PottsModel, PerEdgeCouplings) {
  const auto g = graph::path_graph(3);
  const PottsModel m(g, 3, std::vector<double>{2.0, 5.0});
  EXPECT_DOUBLE_EQ(m.energy({1, 1, 1}), 7.0);
  EXPECT_DOUBLE_EQ(m.energy({1, 1, 0}), 2.0);
  EXPECT_THROW(PottsModel(g, 3, std::vector<double>{1.0}), std::invalid_argument);
}

}  // namespace
