// Tests for the Ising model (paper Eq. 1).
#include "msropm/model/ising.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "msropm/graph/builders.hpp"

namespace {

using namespace msropm;
using model::IsingModel;
using model::Spin;

TEST(IsingModel, UniformCouplingEnergy) {
  const auto g = graph::path_graph(3);  // edges 01, 12
  const IsingModel m(g, -1.0);          // anti-ferromagnetic
  // Aligned spins: E = -sum J s s = -(-1)(1) * 2 = +2.
  EXPECT_DOUBLE_EQ(m.energy({1, 1, 1}), 2.0);
  // Alternating: both products -1 -> E = -(-1)(-1)*2 = -2.
  EXPECT_DOUBLE_EQ(m.energy({1, -1, 1}), -2.0);
}

TEST(IsingModel, FerromagneticSignFlips) {
  const auto g = graph::path_graph(2);
  const IsingModel m(g, +1.0);
  EXPECT_DOUBLE_EQ(m.energy({1, 1}), -1.0);
  EXPECT_DOUBLE_EQ(m.energy({1, -1}), 1.0);
}

TEST(IsingModel, PerEdgeCouplings) {
  const auto g = graph::path_graph(3);
  const IsingModel m(g, std::vector<double>{-2.0, 3.0});
  // E = -(-2)(s0 s1) - 3(s1 s2)
  EXPECT_DOUBLE_EQ(m.energy({1, 1, 1}), 2.0 - 3.0);
  EXPECT_THROW(IsingModel(g, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(IsingModel, SizeMismatchThrows) {
  const auto g = graph::path_graph(3);
  const IsingModel m(g);
  EXPECT_THROW((void)m.energy({1, 1}), std::invalid_argument);
}

TEST(IsingModel, OddCycleFrustration) {
  // C3 with AF coupling cannot reach -m: best is -1 (one violated edge).
  const auto g = graph::cycle_graph(3);
  const IsingModel m(g, -1.0);
  double best = 1e9;
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<Spin> s(3);
    for (int i = 0; i < 3; ++i) s[i] = (bits >> i) & 1 ? 1 : -1;
    best = std::min(best, m.energy(s));
  }
  EXPECT_DOUBLE_EQ(best, -1.0);
}

}  // namespace
