// Tests for the batched SoA phase engine: replica isolation, bit-identity
// against the batch-of-one facade (PhaseNetwork), CSR derivative correctness,
// energy identities, and argument validation. The full machine-level
// equivalence gate lives in core_batch_equivalence_test.cpp.
#include "msropm/phase/batch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/phase/network.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using phase::GainRamp;
using phase::Integrator;
using phase::NetworkParams;
using phase::PhaseBatch;
using phase::PhaseNetwork;

constexpr double kPi = std::numbers::pi;

NetworkParams tuned_params(double noise = 2.0e3) {
  NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = noise;
  p.dt = 2.0e-11;
  return p;
}

/// Give replica r of the batch (and a paired serial network) a diverged
/// state: phases, mask, SHIL setup and detune all keyed off the replica id.
void configure_replica(PhaseBatch& batch, std::size_t r, PhaseNetwork& net,
                       std::uint64_t seed) {
  util::Rng rng_batch(seed);
  util::Rng rng_serial(seed);
  batch.randomize_phases(r, rng_batch);
  net.randomize_phases(rng_serial);

  const std::size_t m = batch.graph().num_edges();
  std::vector<std::uint8_t> mask(m, 1);
  for (std::size_t e = r % 3; e < m; e += 3) mask[e] = 0;
  batch.set_edge_mask(r, mask);
  net.set_edge_mask(mask);

  batch.set_uniform_coupling(r, -1.0);
  net.set_uniform_coupling(-1.0);
  batch.set_couplings_active(r, true);
  net.set_couplings_active(true);

  std::vector<double> psi(batch.size());
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi[i] = (i + r) % 2 == 0 ? 0.0 : kPi / 2;
  }
  batch.set_shil_phases(r, psi);
  net.set_shil_phases(psi);
  batch.set_shil_active(r, true);
  net.set_shil_active(true);
  batch.set_shil_level(r, 0.5 + 0.1 * static_cast<double>(r % 4));
  net.set_shil_level(0.5 + 0.1 * static_cast<double>(r % 4));

  std::vector<double> detune(batch.size());
  for (std::size_t i = 0; i < detune.size(); ++i) {
    detune[i] = 1.0e6 * static_cast<double>((i + r) % 5);
  }
  batch.set_detune(r, detune);
  net.set_detune(detune);
}

/// Batch-of-R stepping must be bit-identical to R independent batch-of-one
/// networks consuming the same per-replica RNG streams — for Euler (with
/// noise), for RK4, and through a ramped run() window.
void expect_batch_matches_serial(std::size_t replicas, Integrator integrator,
                                 double noise) {
  const auto g = graph::kings_graph_square(5);
  NetworkParams params = tuned_params(noise);
  params.integrator = integrator;

  PhaseBatch batch(g, params, replicas);
  std::vector<PhaseNetwork> serial;
  serial.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) serial.emplace_back(g, params);

  for (std::size_t r = 0; r < replicas; ++r) {
    configure_replica(batch, r, serial[r], /*seed=*/1000 + 7 * r);
  }

  std::vector<util::Rng> batch_rngs, serial_rngs;
  for (std::size_t r = 0; r < replicas; ++r) {
    batch_rngs.emplace_back(42 + r);
    serial_rngs.emplace_back(42 + r);
  }

  // Raw steps.
  for (int s = 0; s < 25; ++s) {
    batch.step(batch_rngs);
    for (std::size_t r = 0; r < replicas; ++r) serial[r].step(serial_rngs[r]);
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto theta = batch.phases(r);
    const auto& ref = serial[r].phases();
    for (std::size_t i = 0; i < theta.size(); ++i) {
      ASSERT_EQ(theta[i], ref[i]) << "replica " << r << " node " << i;
    }
  }

  // A ramped run() window (exercises the integrator dispatch + SHIL ramp).
  const GainRamp ramp{0.0, 0.5};
  const double duration = 40.0 * params.dt;
  batch.run(duration, batch_rngs, &ramp);
  for (std::size_t r = 0; r < replicas; ++r) {
    serial[r].run(duration, serial_rngs[r], &ramp);
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto theta = batch.phases(r);
    const auto& ref = serial[r].phases();
    for (std::size_t i = 0; i < theta.size(); ++i) {
      ASSERT_EQ(theta[i], ref[i]) << "replica " << r << " node " << i;
    }
    ASSERT_EQ(batch.coupling_energy(r), serial[r].coupling_energy());
    ASSERT_EQ(batch.shil_energy(r), serial[r].shil_energy());
  }
}

TEST(PhaseBatch, BatchOfOneMatchesFacadeEuler) {
  expect_batch_matches_serial(1, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialEuler) {
  expect_batch_matches_serial(3, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfFortyMatchesSerialEuler) {
  expect_batch_matches_serial(40, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialRk4NoiseFree) {
  expect_batch_matches_serial(3, Integrator::kRk4, 0.0);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialRk4WithNoise) {
  // RK4 drift + Euler-Maruyama noise: the noise draws must still line up
  // per replica.
  expect_batch_matches_serial(3, Integrator::kRk4, 2.0e3);
}

TEST(PhaseBatch, NoiselessRunLeavesRngsUntouched) {
  // Zero noise draws nothing: no stream advances, in either integrator.
  const auto g = graph::kings_graph_square(4);
  for (const Integrator integrator :
       {Integrator::kEulerMaruyama, Integrator::kRk4}) {
    NetworkParams params = tuned_params(0.0);
    params.integrator = integrator;
    PhaseBatch batch(g, params, 3);
    util::Rng init(5);
    std::vector<util::Rng> rngs;
    for (std::size_t r = 0; r < 3; ++r) {
      batch.randomize_phases(r, init);
      batch.set_shil_active(r, true);
      rngs.emplace_back(100 + r);
    }
    std::vector<std::array<std::uint64_t, 4>> before;
    for (const util::Rng& rng : rngs) before.push_back(rng.state());
    batch.step(rngs);
    batch.run(30.0 * params.dt, rngs);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(rngs[r].state(), before[r]) << "replica " << r;
    }
  }
}

/// On a drift-free fabric (couplings, SHIL and detune off) each step moves
/// theta by noise_scale * z alone. Pools the increments of nodes
/// [first, n) over `steps` steps and checks mean 0 and variance
/// noise_scale^2, each within 4 sigma of its sampling error.
void expect_noise_increments_normal(std::size_t side, std::size_t first,
                                    int steps) {
  const auto g = graph::kings_graph_square(side);
  const NetworkParams params = tuned_params(2.0e3);
  const double scale = params.noise_stddev * std::sqrt(params.dt);
  PhaseBatch batch(g, params, 1);
  batch.set_couplings_active(0, false);
  std::vector<util::Rng> rngs{util::Rng(side)};

  const std::size_t n = batch.size();
  std::vector<double> prev(n, 0.0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int s = 0; s < steps; ++s) {
    batch.step(rngs);
    const auto theta = batch.phases(0);
    for (std::size_t i = first; i < n; ++i) {
      const double z = (theta[i] - prev[i]) / scale;
      sum += z;
      sum_sq += z * z;
      prev[i] = theta[i];
    }
  }
  const double count = static_cast<double>(n - first) * steps;
  const double mean = sum / count;
  const double var = sum_sq / count - mean * mean;
  EXPECT_LT(std::fabs(mean), 4.0 / std::sqrt(count));
  EXPECT_LT(std::fabs(var - 1.0), 4.0 * std::sqrt(2.0 / count));
}

TEST(PhaseBatch, NoiseIncrementsAreStandardNormalOddN) {
  // 7x7 King's: N = 49, so every step ends on the odd tail's lone pair.
  expect_noise_increments_normal(7, 0, 2000);
  expect_noise_increments_normal(7, 48, 4000);
}

TEST(PhaseBatch, NoiseIncrementsAreStandardNormalTailLanes) {
  // 6x6 King's: N = 36 = 4 blocks of 8 plus 4 lanes through the scalar
  // transform.
  expect_noise_increments_normal(6, 0, 2000);
  expect_noise_increments_normal(6, 32, 2000);
}

TEST(PhaseBatch, DerivativeIsNegativeEnergyGradient) {
  // dtheta_i = -dE/dtheta_i (scaled by the gains folded into E): check the
  // CSR gather against a central finite difference of coupling_energy.
  const auto g = graph::kings_graph_square(3);
  NetworkParams params = tuned_params(0.0);
  PhaseBatch batch(g, params, 2);
  util::Rng rng(7);
  const std::size_t r = 1;  // non-zero replica: exercises slice offsets
  batch.randomize_phases(r, rng);
  batch.set_uniform_coupling(r, -1.0);
  batch.set_couplings_active(r, true);

  std::vector<double> theta(batch.phases(r).begin(), batch.phases(r).end());
  std::vector<double> dtheta(theta.size());
  batch.derivative(r, theta, dtheta);

  const double h = 1e-6;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    std::vector<double> plus = theta, minus = theta;
    plus[i] += h;
    minus[i] -= h;
    batch.set_phases(r, plus);
    const double e_plus = batch.coupling_energy(r);
    batch.set_phases(r, minus);
    const double e_minus = batch.coupling_energy(r);
    const double grad = (e_plus - e_minus) / (2.0 * h);
    // coupling_energy omits the Kc scale; derivative applies it.
    EXPECT_NEAR(dtheta[i], -params.coupling_gain * grad,
                1e-4 * params.coupling_gain);
    batch.set_phases(r, theta);
  }
}

TEST(PhaseBatch, ReplicaStateIsIsolated) {
  // Mutating replica 0 must not disturb replica 1's trajectory.
  const auto g = graph::kings_graph_square(4);
  PhaseBatch batch(g, tuned_params(0.0), 2);
  util::Rng rng(3);
  batch.randomize_phases(0, rng);
  batch.randomize_phases(1, rng);
  batch.set_uniform_coupling(0, -1.0);
  batch.set_uniform_coupling(1, -1.0);
  batch.set_couplings_active(0, true);
  batch.set_couplings_active(1, true);

  const std::vector<double> before(batch.phases(1).begin(),
                                   batch.phases(1).end());
  std::vector<util::Rng> rngs{util::Rng(1), util::Rng(2)};
  batch.step(rngs);
  const std::vector<double> after(batch.phases(1).begin(),
                                  batch.phases(1).end());

  // Re-run replica 1 alone from the same state; replica 0 gets a different
  // mask/coupling setup this time.
  PhaseBatch redo(g, tuned_params(0.0), 2);
  redo.set_phases(1, before);
  redo.set_uniform_coupling(1, -1.0);
  redo.set_couplings_active(1, true);
  redo.disable_all_edges(0);
  redo.set_shil_active(0, true);
  redo.set_uniform_shil_phase(0, 1.0);
  std::vector<util::Rng> redo_rngs{util::Rng(99), util::Rng(2)};
  redo.step(redo_rngs);
  const auto redo_after = redo.phases(1);
  for (std::size_t i = 0; i < redo_after.size(); ++i) {
    EXPECT_EQ(redo_after[i], after[i]);
  }
}

TEST(PhaseBatch, ValidatesArguments) {
  const auto g = graph::kings_graph_square(3);
  PhaseBatch batch(g, tuned_params(), 2);
  EXPECT_THROW(batch.set_phases(0, std::vector<double>(3)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_edge_mask(
                   0, std::vector<std::uint8_t>(g.num_edges() + 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_shil_phases(1, std::vector<double>(1)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_detune(0, std::vector<double>(2)),
               std::invalid_argument);
  std::vector<util::Rng> wrong(1, util::Rng(1));
  EXPECT_THROW(batch.step(wrong), std::invalid_argument);
  EXPECT_THROW(PhaseBatch(g, tuned_params(), 0), std::invalid_argument);
}

}  // namespace
