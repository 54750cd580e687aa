// Tests for the batched SoA phase engine: replica isolation, bit-identity
// against batch-of-one runs at every lane-group boundary and every
// dispatched SIMD width, bit-identity against a frozen fused-weight gather
// that masks edges by edge id (pinning the P_EN group-label rule),
// the lane-vectorised xoshiro, the step's drift against the energy
// gradient, and argument validation. The full machine-level equivalence
// gate lives in core_batch_equivalence_test.cpp.
#include "msropm/phase/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "../src/phase/trig.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using phase::GainRamp;
using phase::NetworkParams;
using phase::PhaseBatch;

constexpr double kPi = std::numbers::pi;

NetworkParams tuned_params(double noise = 2.0e3) {
  NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = noise;
  p.dt = 2.0e-11;
  return p;
}

/// Random P_EN group labels, from 1 to 4 distinct ones depending on r.
std::vector<std::uint8_t> random_groups(std::size_t n, std::size_t r,
                                        util::Rng& rng) {
  std::vector<std::uint8_t> group(n);
  for (auto& label : group) {
    label = static_cast<std::uint8_t>(rng.uniform_index(1 + r % 4));
  }
  return group;
}

/// Give `slot` of `batch` the diverged per-oscillator state of replica r:
/// phases, P_EN group labels, SHIL phases and detune, all keyed off r, so a
/// batch-of-1 gets the identical setup with slot 0.
void configure_replica(PhaseBatch& batch, std::size_t slot, std::size_t r) {
  util::Rng rng(1000 + 7 * r);
  batch.randomize_phases(slot, rng);
  batch.set_groups(slot, random_groups(batch.size(), r, rng));

  std::vector<double> psi(batch.size());
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi[i] = (i + r) % 2 == 0 ? 0.0 : kPi / 2;
  }
  batch.set_shil_phases(slot, psi);

  std::vector<double> detune(batch.size());
  for (std::size_t i = 0; i < detune.size(); ++i) {
    detune[i] = 1.0e6 * static_cast<double>((i + r) % 5);
  }
  batch.set_detune(slot, detune);
}

/// The batch-wide switches of one window: G_EN, SHIL_EN and the SHIL level.
struct Switches {
  bool couple = true;
  bool shil = true;
  double level = 1.0;

  void apply(PhaseBatch& batch) const {
    batch.set_couplings_active(couple);
    batch.set_shil_active(shil);
    batch.set_shil_level(level);
  }
};

/// Batch-of-R stepping must be bit-identical to R independent batch-of-one
/// runs consuming the same per-replica RNG streams, window after window: a
/// plain window with noise, a ramped one, one with the couplings off and one
/// with the SHIL active at level 0.
void expect_batch_matches_serial(std::size_t replicas, double noise,
                                 std::size_t side = 5, int raw_steps = 25,
                                 int run_steps = 40) {
  const auto g = graph::kings_graph_square(side);
  const NetworkParams params = tuned_params(noise);

  PhaseBatch batch(g, params, replicas);
  std::vector<PhaseBatch> serial;
  serial.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    serial.emplace_back(g, params, 1);
    configure_replica(batch, r, r);
    configure_replica(serial[r], 0, r);
  }

  std::vector<util::Rng> batch_rngs, serial_rngs;
  for (std::size_t r = 0; r < replicas; ++r) {
    batch_rngs.emplace_back(42 + r);
    serial_rngs.emplace_back(42 + r);
  }

  const GainRamp ramp{0.0, 0.5};
  const auto window = [&](const Switches& sw, int steps,
                          const GainRamp* shil_ramp) {
    const double duration = static_cast<double>(steps) * params.dt;
    sw.apply(batch);
    batch.run(duration, batch_rngs, shil_ramp);
    for (std::size_t r = 0; r < replicas; ++r) {
      sw.apply(serial[r]);
      serial[r].run(duration, {&serial_rngs[r], 1}, shil_ramp);
    }
    for (std::size_t r = 0; r < replicas; ++r) {
      const auto theta = batch.phases(r);
      const auto ref = serial[r].phases(0);
      for (std::size_t i = 0; i < theta.size(); ++i) {
        ASSERT_EQ(theta[i], ref[i]) << "replica " << r << " node " << i;
      }
      ASSERT_EQ(batch_rngs[r].state(), serial_rngs[r].state()) << "replica " << r;
      ASSERT_EQ(batch.coupling_energy(r), serial[r].coupling_energy(0));
      ASSERT_EQ(batch.shil_energy(r), serial[r].shil_energy(0));
    }
  };
  {
    SCOPED_TRACE("plain window, SHIL at level 0.6");
    window({true, true, 0.6}, raw_steps, nullptr);
  }
  {
    SCOPED_TRACE("ramped window");
    window({true, true, 0.8}, run_steps, &ramp);
  }
  {
    SCOPED_TRACE("couplings off");
    window({false, true, 0.5}, raw_steps, nullptr);
  }
  {
    SCOPED_TRACE("SHIL active at level 0");
    window({true, true, 0.0}, raw_steps, nullptr);
  }
}

TEST(PhaseBatch, BatchOfOneMatchesSerialEuler) {
  expect_batch_matches_serial(1, 2.0e3);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialEuler) {
  expect_batch_matches_serial(3, 2.0e3);
}

TEST(PhaseBatch, BatchOfFortyMatchesSerialEuler) {
  expect_batch_matches_serial(40, 2.0e3);
}

// --- lane groups --------------------------------------------------------------
//
// A batch of R runs floor(R/L) lane groups plus R mod L single-lane
// replicas. Widths around the group boundaries of L = 8 and L = 4 must stay
// bit-identical to batch-of-1 runs, on an odd N (7x7 = 49) and on an N that
// is not a multiple of 8 (46x46 = 2116, N mod 8 = 4).

constexpr std::size_t kBoundaryWidths[] = {1, 7, 8, 9, 16, 17, 40};

TEST(PhaseBatch, LaneGroupBoundariesMatchSerialOddN) {
  for (const std::size_t replicas : kBoundaryWidths) {
    SCOPED_TRACE(replicas);
    expect_batch_matches_serial(replicas, 2.0e3, 7);
  }
}

TEST(PhaseBatch, LaneGroupBoundariesMatchSerialKings46) {
  for (const std::size_t replicas : kBoundaryWidths) {
    SCOPED_TRACE(replicas);
    expect_batch_matches_serial(replicas, 2.0e3, 46, 3, 6);
  }
}

TEST(PhaseBatch, EveryDispatchedWidthMatchesSerial) {
  // The test seam forces each width this host can run, not only the one the
  // CPU dispatch picks; N = 49 leaves a tail in every transcendental pass.
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}, std::size_t{1}}) {
    if (width > phase::detail::simd_width()) continue;
    SCOPED_TRACE(width);
    const phase::detail::ScopedSimdWidth scope(width);
    ASSERT_EQ(phase::detail::simd_width(), width);
    for (const std::size_t replicas : {width + 1, 2 * width + 1}) {
      SCOPED_TRACE(replicas);
      expect_batch_matches_serial(replicas, 2.0e3, 7);
    }
  }
}

/// One replica stepped the way the engine did before its gather read edge
/// bits: fused CSR weights w_k = Kc * J * mask_e (J = -1), looked up by edge
/// id and added as w_k * cos_j in every entry, masked-off ones as
/// 0.0 * cos_j. The transcendentals and the noise are the engine's own
/// width-W kernels, so at one width this must match a lane of PhaseBatch
/// bit for bit. Order-2 SHIL only.
class FusedWeightReference {
 public:
  FusedWeightReference(const graph::Graph& g, const NetworkParams& p,
                       std::size_t width)
      : p_(p), trig_(&phase::detail::simd(width)), n_(g.num_nodes()) {
    // CSR in the engine's order: per node, its edges in canonical edge order.
    offsets_.assign(n_ + 1, 0);
    for (const graph::Edge& e : g.edges()) {
      ++offsets_[e.u + 1];
      ++offsets_[e.v + 1];
    }
    for (std::size_t i = 0; i < n_; ++i) offsets_[i + 1] += offsets_[i];
    neighbor_.resize(offsets_[n_]);
    edge_.resize(offsets_[n_]);
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    const auto edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      neighbor_[cursor[edges[e].u]] = edges[e].v;
      edge_[cursor[edges[e].u]++] = static_cast<std::uint32_t>(e);
      neighbor_[cursor[edges[e].v]] = edges[e].u;
      edge_[cursor[edges[e].v]++] = static_cast<std::uint32_t>(e);
    }
    x_.assign(n_, 0.0);
    detune_.assign(n_, 0.0);
    shil_sin_.assign(n_, 0.0);
    shil_cos_.assign(n_, 1.0);
    sin_.assign(n_, 0.0);
    cos_.assign(n_, 0.0);
  }

  void set_phases(std::span<const double> x) { x_.assign(x.begin(), x.end()); }
  void set_detune(std::span<const double> d) { detune_.assign(d.begin(), d.end()); }
  void set_mask(std::span<const std::uint8_t> mask) {
    w_.resize(edge_.size());
    for (std::size_t k = 0; k < edge_.size(); ++k) {
      w_[k] = mask[edge_[k]] ? p_.coupling_gain * -1.0 : 0.0;
    }
  }
  void set_shil_phases(std::span<const double> psi) {
    for (std::size_t i = 0; i < n_; ++i) sin_[i] = 2.0 * psi[i];
    trig_->sincos(sin_.data(), shil_sin_.data(), shil_cos_.data(), n_);
  }
  void set_switches(const Switches& sw) {
    couple_ = sw.couple;
    shil_ = sw.shil && sw.level > 0.0;
    ks_ = p_.shil_gain * sw.level;
  }

  void step(util::Rng& rng) {
    const double noise_scale = p_.noise_stddev * std::sqrt(p_.dt);
    trig_->sincos(x_.data(), sin_.data(), cos_.data(), n_);
    constexpr std::size_t kChunk = phase::detail::kNoiseChunk;
    double zc[kChunk / 2] = {};
    double zs[kChunk / 2] = {};
    for (std::size_t i = 0; i < n_; ++i) {
      if (noise_scale > 0.0 && i % kChunk == 0) {
        const std::size_t pairs = (std::min(kChunk, n_ - i) + 1) / 2;
        phase::detail::uniform_lanes({&rng, 1}, zc, zs, pairs);
        trig_->box_muller(zc, zs, pairs);
      }
      double d = detune_[i];
      if (couple_) {
        double acc_cos = 0.0;
        double acc_sin = 0.0;
        for (std::uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
          acc_cos += w_[k] * cos_[neighbor_[k]];
          acc_sin += w_[k] * sin_[neighbor_[k]];
        }
        d = d - (sin_[i] * acc_cos - cos_[i] * acc_sin);
      }
      if (shil_) {
        const double s2 = 2.0 * sin_[i] * cos_[i];
        const double c2 = cos_[i] * cos_[i] - sin_[i] * sin_[i];
        d = d - ks_ * (s2 * shil_cos_[i] - c2 * shil_sin_[i]);
      }
      x_[i] += d * p_.dt;
      if (noise_scale > 0.0) {
        const double* z = (i & 1) != 0 ? zs : zc;
        x_[i] += noise_scale * z[(i % kChunk) >> 1];
      }
    }
  }

  [[nodiscard]] const std::vector<double>& phases() const { return x_; }

 private:
  NetworkParams p_;
  const phase::detail::SimdKernels* trig_;
  std::size_t n_;
  std::vector<std::uint32_t> offsets_, neighbor_, edge_;
  std::vector<double> w_, x_, detune_, shil_sin_, shil_cos_, sin_, cos_;
  bool couple_ = true;
  bool shil_ = false;
  double ks_ = 0.0;
};

/// Replica r's setup, applied alike to a PhaseBatch slot and a reference:
/// random group labels (1 to 4 distinct ones), from which the test derives
/// the reference's edge mask itself, random SHIL phases, detune in some
/// replicas, and phases with a block of exact +0.0 and -0.0 (whose sines
/// are +-0).
struct ReferenceSetup {
  std::vector<double> phases, detune, psi;
  std::vector<std::uint8_t> group, mask;

  ReferenceSetup(const graph::Graph& g, std::size_t r) {
    const std::size_t n = g.num_nodes();
    util::Rng rng(3100 + 17 * r);
    phases.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      phases[i] = i < n / 3 ? (i % 4 == 1 ? -0.0 : 0.0) : rng.uniform_phase();
    }
    group = random_groups(n, r, rng);
    for (const graph::Edge& e : g.edges()) {
      mask.push_back(group[e.u] == group[e.v] ? 1 : 0);
    }
    psi.resize(n);
    for (double& v : psi) v = rng.uniform_phase();
    detune.assign(n, 0.0);
    if (r % 4 == 3) {
      for (std::size_t i = 0; i < n; ++i) {
        detune[i] = 3.0e6 * static_cast<double>(i % 5) - 6.0e6;
      }
    }
  }

  void apply(PhaseBatch& batch, std::size_t slot) const {
    batch.set_phases(slot, phases);
    batch.set_groups(slot, group);
    batch.set_shil_phases(slot, psi);
    batch.set_detune(slot, detune);
  }

  void apply(FusedWeightReference& ref) const {
    ref.set_phases(phases);
    ref.set_mask(mask);
    ref.set_shil_phases(psi);
    ref.set_detune(detune);
  }
};

TEST(PhaseBatch, EdgeBitGatherMatchesFusedWeightReference) {
  // The gather adds Kc*J*cos_j only where a lane's edge bit (from its group
  // labels) is set; the reference adds 0.0*cos_j for the entries its
  // per-edge mask switches off. For finite phases both sums are the same
  // doubles, at every width and lane-group boundary, through windows with
  // the SHIL off, on, on at level 0 and with the couplings off.
  const auto g = graph::kings_graph_square(7);
  constexpr int kSteps = 10;
  const Switches windows[] = {
      {true, false, 1.0}, {true, true, 0.6}, {false, true, 0.4}, {true, true, 0.0}};
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}, std::size_t{1}}) {
    if (width > phase::detail::simd_width()) continue;
    SCOPED_TRACE(width);
    const phase::detail::ScopedSimdWidth scope(width);
    for (const double noise : {2.0e3, 0.0}) {
      SCOPED_TRACE(noise);
      const NetworkParams params = tuned_params(noise);
      for (const std::size_t replicas : {1, 7, 8, 9}) {
        SCOPED_TRACE(replicas);
        PhaseBatch batch(g, params, replicas);
        std::vector<util::Rng> rngs;
        for (std::size_t r = 0; r < replicas; ++r) {
          ReferenceSetup(g, r).apply(batch, r);
          rngs.emplace_back(600 + r);
        }
        for (const Switches& sw : windows) {
          sw.apply(batch);
          batch.run(kSteps * params.dt, rngs);
        }
        for (std::size_t r = 0; r < replicas; ++r) {
          FusedWeightReference ref(g, params, width);
          ReferenceSetup(g, r).apply(ref);
          util::Rng rng(600 + r);
          for (const Switches& sw : windows) {
            ref.set_switches(sw);
            for (int s = 0; s < kSteps; ++s) ref.step(rng);
          }
          // Bit patterns, so that the sign of a zero phase counts too.
          const auto theta = batch.phases(r);
          for (std::size_t i = 0; i < theta.size(); ++i) {
            ASSERT_EQ(theta[i], ref.phases()[i]) << "replica " << r << " node " << i;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(theta[i]),
                      std::bit_cast<std::uint64_t>(ref.phases()[i]))
                << "replica " << r << " node " << i;
          }
          ASSERT_EQ(rngs[r].state(), rng.state()) << "replica " << r;
        }
      }
    }
  }
}

TEST(PhaseBatch, LaneXoshiroMatchesScalarStreams) {
  // Lane l of the vector generator is exactly stream l: the same draws in
  // uniform_array order, pair p = draws (2p, 2p+1), and the same end state.
  for (const std::size_t lanes : {std::size_t{8}, std::size_t{4}, std::size_t{1}}) {
    if (lanes > phase::detail::simd_width()) continue;
    SCOPED_TRACE(lanes);
    constexpr std::size_t kPairs = 37;
    std::vector<util::Rng> rngs, refs;
    for (std::size_t l = 0; l < lanes; ++l) {
      rngs.emplace_back(1234 + 101 * l);
      refs.emplace_back(1234 + 101 * l);
      // Start mid-stream so the state hand-off, not just seeding, is tested.
      (void)rngs.back().uniform();
      (void)refs.back().uniform();
    }
    std::vector<double> u(kPairs * lanes), v(kPairs * lanes);
    phase::detail::uniform_lanes(rngs, u.data(), v.data(), kPairs);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::vector<double> draws(2 * kPairs);
      refs[l].uniform_array(draws.data(), draws.size());
      for (std::size_t p = 0; p < kPairs; ++p) {
        ASSERT_EQ(u[p * lanes + l], draws[2 * p]) << "lane " << l << " pair " << p;
        ASSERT_EQ(v[p * lanes + l], draws[2 * p + 1]) << "lane " << l << " pair " << p;
      }
      EXPECT_EQ(rngs[l].state(), refs[l].state()) << "lane " << l;
      EXPECT_EQ(rngs[l](), refs[l]()) << "lane " << l;
    }
  }
}

TEST(PhaseBatch, BoxMullerMatchesLibmAtEveryWidth) {
  // The pass's sin/cos(2 pi v) is its own exact-reduction polynomial and its
  // log libmvec's: both must agree with libm's Box-Muller to a few ulps over
  // the whole (u, v) range, tails included (n = 1001 is no multiple of 8).
  constexpr std::size_t kPairs = 1001;
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}, std::size_t{1}}) {
    if (width > phase::detail::simd_width()) continue;
    SCOPED_TRACE(width);
    util::Rng rng(77);
    std::vector<double> u(kPairs), v(kPairs);
    rng.uniform_array(u.data(), kPairs);
    rng.uniform_array(v.data(), kPairs);
    v[0] = 0.0;    // quarter-turn boundaries
    v[1] = 0.25;
    v[2] = 0.5;
    v[3] = 0.875;
    u[4] = 0.0;    // r = 0
    std::vector<double> zc = u, zs = v;
    phase::detail::simd(width).box_muller(zc.data(), zs.data(), kPairs);
    for (std::size_t p = 0; p < kPairs; ++p) {
      const double r = std::sqrt(-2.0 * std::log(1.0 - u[p]));
      const double a = 2.0 * kPi * v[p];
      // 8 ulps of r: the polynomial (2 ulp) and libmvec's log (4 ulp) plus
      // rounding of r * cos/sin; an absolute bound, since cos/sin may be ~0.
      const double tol = 8.0 * 0x1.0p-52 * std::max(r, 1.0);
      ASSERT_NEAR(zc[p], r * std::cos(a), tol) << "pair " << p;
      ASSERT_NEAR(zs[p], r * std::sin(a), tol) << "pair " << p;
    }
  }
}

TEST(PhaseBatch, NoiselessRunLeavesRngsUntouched) {
  // Zero noise draws nothing: no stream advances.
  const auto g = graph::kings_graph_square(4);
  const NetworkParams params = tuned_params(0.0);
  PhaseBatch batch(g, params, 3);
  util::Rng init(5);
  std::vector<util::Rng> rngs;
  batch.set_shil_active(true);
  for (std::size_t r = 0; r < 3; ++r) {
    batch.randomize_phases(r, init);
    rngs.emplace_back(100 + r);
  }
  std::vector<std::array<std::uint64_t, 4>> before;
  for (const util::Rng& rng : rngs) before.push_back(rng.state());
  batch.run(30.0 * params.dt, rngs);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rngs[r].state(), before[r]) << "replica " << r;
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
  batch.set_couplings_active(false);
  std::vector<util::Rng> rngs{util::Rng(side)};

  const std::size_t n = batch.size();
  std::vector<double> prev(n, 0.0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int s = 0; s < steps; ++s) {
    batch.run(params.dt, rngs);
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
  // 6x6 King's: N = 36, 18 pairs: two full blocks of 8 plus a zero-padded
  // tail block in the Box-Muller pass.
  expect_noise_increments_normal(6, 0, 2000);
  expect_noise_increments_normal(6, 32, 2000);
}

/// Minus the central finite-difference gradient of Kc * coupling_energy +
/// shil_energy at replica r's current phases: the drift the model prescribes
/// (coupling_energy omits the Kc scale the step applies; shil_energy carries
/// its gain). Leaves the phases as they were.
std::vector<double> energy_gradient_drift(PhaseBatch& batch, std::size_t r) {
  const std::vector<double> theta(batch.phases(r).begin(),
                                  batch.phases(r).end());
  const double kc = batch.params().coupling_gain;
  const auto energy = [&](const std::vector<double>& at) {
    batch.set_phases(r, at);
    return kc * batch.coupling_energy(r) + batch.shil_energy(r);
  };
  const double h = 1e-6;
  std::vector<double> drift(theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    std::vector<double> plus = theta, minus = theta;
    plus[i] += h;
    minus[i] -= h;
    drift[i] = -(energy(plus) - energy(minus)) / (2.0 * h);
  }
  batch.set_phases(r, theta);
  return drift;
}

/// One noiseless step must move replica r by dt times the model's drift,
/// (theta' - theta) / dt = -Kc * dE_c/dtheta - dE_s/dtheta, on the last lane
/// of a lane group and on the single-lane replica after it. Per-replica
/// group labels and, with `shil`, order-2 SHIL at a partial level with
/// per-node offsets.
void expect_step_follows_energy_gradient(bool shil) {
  const auto g = graph::kings_graph_square(3);
  const NetworkParams params = tuned_params(0.0);
  const std::size_t lanes = phase::detail::simd_width();
  const std::size_t replicas = lanes + 1;
  PhaseBatch batch(g, params, replicas);
  const std::size_t n = batch.size();
  std::vector<double> psi(n);
  for (std::size_t i = 0; i < n; ++i) psi[i] = 0.3 * static_cast<double>(i);
  batch.set_couplings_active(true);
  batch.set_shil_active(shil);
  batch.set_shil_level(0.7);
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Rng init(40 + r);
    batch.randomize_phases(r, init);
    batch.set_groups(r, random_groups(n, r + 2, init));
    batch.set_shil_phases(r, psi);
    rngs.emplace_back(r);
  }

  const std::size_t checked[] = {lanes - 1, lanes};  // grouped, single
  std::vector<std::vector<double>> before, drift;
  for (const std::size_t r : checked) {
    before.emplace_back(batch.phases(r).begin(), batch.phases(r).end());
    drift.push_back(energy_gradient_drift(batch, r));
  }
  batch.run(params.dt, rngs);
  const double tol = 1e-4 * params.coupling_gain;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto after = batch.phases(checked[c]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((after[i] - before[c][i]) / params.dt, drift[c][i], tol)
          << "replica " << checked[c] << " node " << i;
    }
  }
}

TEST(PhaseBatch, StepDriftIsNegativeEnergyGradient) {
  // The drift the lane kernel integrates, checked against the energy it is
  // the gradient flow of, at every width this host dispatches.
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}, std::size_t{1}}) {
    if (width > phase::detail::simd_width()) continue;
    SCOPED_TRACE(width);
    const phase::detail::ScopedSimdWidth scope(width);
    {
      SCOPED_TRACE("couplings");
      expect_step_follows_energy_gradient(false);
    }
    {
      SCOPED_TRACE("couplings + order-2 SHIL");
      expect_step_follows_energy_gradient(true);
    }
  }
}

TEST(PhaseBatch, ReplicaStateIsIsolated) {
  // Mutating replica 0 must not disturb replica 1's trajectory.
  const auto g = graph::kings_graph_square(4);
  PhaseBatch batch(g, tuned_params(0.0), 2);
  util::Rng rng(3);
  batch.randomize_phases(0, rng);
  batch.randomize_phases(1, rng);

  const std::vector<double> before(batch.phases(1).begin(),
                                   batch.phases(1).end());
  const double dt = tuned_params(0.0).dt;
  std::vector<util::Rng> rngs{util::Rng(1), util::Rng(2)};
  batch.run(dt, rngs);
  const std::vector<double> after(batch.phases(1).begin(),
                                  batch.phases(1).end());

  // Re-run replica 1 alone from the same state; replica 0 gets different
  // phases, groups (every oscillator alone: no edge couples) and SHIL
  // phases this time.
  PhaseBatch redo(g, tuned_params(0.0), 2);
  redo.set_phases(1, before);
  std::vector<std::uint8_t> alone(g.num_nodes());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    alone[i] = static_cast<std::uint8_t>(i);
  }
  redo.set_groups(0, alone);
  redo.set_uniform_shil_phase(0, 1.0);
  std::vector<util::Rng> redo_rngs{util::Rng(99), util::Rng(2)};
  redo.run(dt, redo_rngs);
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
  EXPECT_THROW(batch.set_groups(
                   0, std::vector<std::uint8_t>(g.num_nodes() + 1, 0)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_shil_phases(1, std::vector<double>(1)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_detune(0, std::vector<double>(2)),
               std::invalid_argument);
  std::vector<util::Rng> wrong(1, util::Rng(1));
  EXPECT_THROW(batch.run(tuned_params().dt, wrong), std::invalid_argument);
  EXPECT_THROW(PhaseBatch(g, tuned_params(), 0), std::invalid_argument);
  // Every per-replica accessor rejects r = num_replicas().
  const std::size_t past = batch.num_replicas();
  EXPECT_THROW((void)batch.phases(past), std::out_of_range);
  EXPECT_THROW(batch.set_groups(past, std::vector<std::uint8_t>(g.num_nodes())),
               std::out_of_range);
  EXPECT_THROW((void)batch.shil_phases(past), std::out_of_range);
}

}  // namespace
