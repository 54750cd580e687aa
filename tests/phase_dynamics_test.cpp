// Physics of the phase-domain oscillator network, one trajectory at a time
// (a PhaseBatch of one, replica 0): coupling behaviour, gradient descent,
// SHIL binarization, masks, detune, noise and the Euler trajectory against
// a closed-form solution.
#include "msropm/phase/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/phase/lock.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using phase::angular_distance;
using phase::PhaseBatch;
using phase::wrap_angle;

constexpr double kPi = std::numbers::pi;

phase::NetworkParams quiet_params() {
  phase::NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = 0.0;  // deterministic unless a test wants jitter
  p.dt = 1.0e-11;
  return p;
}

/// Integrates the single trajectory of `net` for `duration` seconds.
void run(PhaseBatch& net, double duration, util::Rng& rng) {
  net.run(duration, {&rng, 1});
}

TEST(WrapAngle, MapsIntoPrincipalRange) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_angle(2.0 * kPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(-kPi / 2), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(wrap_angle(5.0 * kPi), kPi, 1e-12);
}

TEST(AngularDistance, ShortestArc) {
  EXPECT_NEAR(angular_distance(0.0, kPi / 2), kPi / 2, 1e-12);
  EXPECT_NEAR(angular_distance(0.1, 2.0 * kPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angular_distance(kPi, -kPi), 0.0, 1e-12);
}

TEST(GainRamp, PiecewiseLinearEnvelope) {
  const phase::GainRamp ramp{0.2, 0.6};
  EXPECT_DOUBLE_EQ(ramp.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ramp.value(0.2), 0.0);
  EXPECT_NEAR(ramp.value(0.4), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(ramp.value(0.6), 1.0);
  EXPECT_DOUBLE_EQ(ramp.value(1.0), 1.0);
}

TEST(PhaseDynamics, TwoAntiferromagneticOscillatorsAntiAlign) {
  const auto g = graph::path_graph(2);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(true);
  net.set_phases(0, std::vector<double>{0.0, 0.7});
  util::Rng rng(1);
  run(net, 20e-9, rng);
  const auto th = net.phases(0);
  EXPECT_NEAR(angular_distance(th[0], th[1]), kPi, 0.02)
      << "negative coupling must push ROSCs out of phase (paper Fig. 1)";
}

TEST(PhaseDynamics, EnergyDescendsWithoutNoise) {
  const auto g = graph::kings_graph(4, 4);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(true);
  util::Rng rng(3);
  net.randomize_phases(0, rng);
  double prev = net.coupling_energy(0);
  for (int window = 0; window < 10; ++window) {
    run(net, 1e-9, rng);
    const double now = net.coupling_energy(0);
    EXPECT_LE(now, prev + 1e-6) << "gradient flow must not increase energy";
    prev = now;
  }
}

TEST(PhaseDynamics, ShilBinarizesToPsiLobes) {
  const auto g = graph::Graph(4);  // no couplings, SHIL only
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(false);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, 0.0);
  net.set_phases(0, std::vector<double>{0.3, 2.9, 3.6, 6.0});
  util::Rng rng(5);
  run(net, 10e-9, rng);
  const auto th = net.phases(0);
  for (double t : th) {
    EXPECT_LT(phase::lock_residual(t, 0.0, 2), 0.01)
        << "order-2 SHIL must lock at {0, pi}";
  }
  // Initial phases closer to 0 go to 0; closer to pi go to pi.
  EXPECT_NEAR(angular_distance(th[0], 0.0), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[1], kPi), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[2], kPi), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[3], 0.0), 0.0, 0.01);
}

class ShilPhaseShiftSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShilPhaseShiftSweep, LockPointsFollowPsi) {
  // The paper's key mechanism (Fig. 2d): the binarized lobes track the SHIL
  // phase. SHIL 2 (psi = pi/2) locks at 90/270 deg.
  const double psi = GetParam();
  const auto g = graph::Graph(8);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, psi);
  util::Rng rng(7);
  net.randomize_phases(0, rng);
  run(net, 10e-9, rng);
  for (double th : net.phases(0)) {
    EXPECT_LT(phase::lock_residual(th, psi, 2), 0.01) << "psi = " << psi;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, ShilPhaseShiftSweep,
                         ::testing::Values(0.0, kPi / 4, kPi / 2, 0.9, kPi,
                                           1.5 * kPi));

class ShilOrderSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShilOrderSweep, OrderNShilLocksAtNPoints) {
  // Higher-order SHIL (the ICCAD'24 ROPM mechanism) pins at N spots.
  const unsigned order = GetParam();
  const auto g = graph::Graph(16);
  auto params = quiet_params();
  params.shil_order = order;
  PhaseBatch net(g, params, 1);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, 0.0);
  util::Rng rng(11);
  net.randomize_phases(0, rng);
  run(net, 20e-9, rng);
  for (double th : net.phases(0)) {
    EXPECT_LT(phase::lock_residual(th, 0.0, order), 0.02) << "order " << order;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ShilOrderSweep, ::testing::Values(2u, 3u, 4u, 8u));

TEST(PhaseDynamics, EdgeMaskDisablesInteraction) {
  // P_EN: an edge whose endpoints sit in different groups is switched off.
  const auto g = graph::path_graph(2);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(true);
  net.set_groups(0, std::vector<std::uint8_t>{0, 1});
  net.set_phases(0, std::vector<double>{0.0, 1.0});
  util::Rng rng(1);
  run(net, 10e-9, rng);
  EXPECT_NEAR(net.phases(0)[0], 0.0, 1e-9);
  EXPECT_NEAR(net.phases(0)[1], 1.0, 1e-9);
}

TEST(PhaseDynamics, GlobalCouplingSwitch) {
  const auto g = graph::path_graph(2);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(false);
  net.set_phases(0, std::vector<double>{0.0, 1.0});
  util::Rng rng(1);
  run(net, 5e-9, rng);
  EXPECT_NEAR(net.phases(0)[1], 1.0, 1e-9);
}

TEST(PhaseDynamics, DetuneAdvancesPhase) {
  const auto g = graph::Graph(1);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_couplings_active(false);
  net.set_detune(0, std::vector<double>{2.0 * kPi * 1e8});  // 100 MHz offset
  net.set_phases(0, std::vector<double>{0.0});
  util::Rng rng(1);
  run(net, 10e-9, rng);
  EXPECT_NEAR(net.phases(0)[0], 2.0 * kPi * 1e8 * 10e-9, 1e-3);
}

TEST(PhaseDynamics, NoiseAccumulatesDiffusively) {
  const auto g = graph::Graph(256);
  auto params = quiet_params();
  params.noise_stddev = 2.0e3;
  PhaseBatch net(g, params, 1);
  net.set_couplings_active(false);
  net.set_phases(0, std::vector<double>(256, 0.0));
  util::Rng rng(13);
  const double duration = 10e-9;
  run(net, duration, rng);
  double var = 0.0;
  for (double th : net.phases(0)) var += th * th;
  var /= 256.0;
  const double expected = params.noise_stddev * params.noise_stddev * duration;
  EXPECT_NEAR(var, expected, expected * 0.35);
}

TEST(PhaseDynamics, EulerTracksClosedFormAntiferromagneticPair) {
  // Noiseless J = -1 pair: theta_1' = Kc sin(phi) = -theta_2' with
  // phi = theta_1 - theta_2, so theta_1 + theta_2 is conserved and
  // phi' = 2 Kc sin(phi), i.e. tan(phi/2) = tan(phi_0/2) exp(2 Kc t).
  // Explicit Euler at dt = 1e-12 is first order: over these 2000 steps it
  // trails the exact phi by about 2e-4 rad.
  const auto g = graph::path_graph(2);
  auto params = quiet_params();
  params.dt = 1e-12;
  PhaseBatch net(g, params, 1);
  net.set_couplings_active(true);
  const double theta1 = 1.9;
  const double theta2 = 1.2;
  net.set_phases(0, std::vector<double>{theta1, theta2});
  std::vector<util::Rng> rngs{util::Rng(1)};
  const int steps = 2000;
  net.run(steps * params.dt, rngs);

  const double t = steps * params.dt;
  const double sum = theta1 + theta2;
  const double phi = 2.0 * std::atan(std::tan((theta1 - theta2) / 2.0) *
                                     std::exp(2.0 * params.coupling_gain * t));
  const auto th = net.phases(0);
  EXPECT_NEAR(th[0] + th[1], sum, 1e-12);
  EXPECT_NEAR(th[0], (sum + phi) / 2.0, 1e-3);
  EXPECT_NEAR(th[1], (sum - phi) / 2.0, 1e-3);
}

TEST(PhaseDynamics, ShilLevelScalesPinning) {
  const auto g = graph::Graph(1);
  PhaseBatch net(g, quiet_params(), 1);
  net.set_shil_active(true);
  net.set_uniform_shil_phase(0, 0.0);
  net.set_phases(0, std::vector<double>{0.5});
  net.set_shil_level(0.0);
  util::Rng rng(1);
  run(net, 5e-9, rng);
  EXPECT_NEAR(net.phases(0)[0], 0.5, 1e-9) << "zero level = no SHIL force";
  net.set_shil_level(1.0);
  run(net, 5e-9, rng);
  EXPECT_LT(phase::lock_residual(net.phases(0)[0], 0.0, 2), 0.01);
}

TEST(PhaseDynamics, ValidatesInputSizes) {
  const auto g = graph::path_graph(3);
  PhaseBatch net(g, quiet_params(), 1);
  EXPECT_THROW(net.set_phases(0, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW(net.set_groups(0, std::vector<std::uint8_t>{0, 0}),
               std::invalid_argument);
  EXPECT_THROW(net.set_shil_phases(0, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW(net.set_detune(0, std::vector<double>{0.0}),
               std::invalid_argument);
}

}  // namespace
