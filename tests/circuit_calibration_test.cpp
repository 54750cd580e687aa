// Tests for the simulate-and-refine calibration path: measured ring
// frequency, tau refinement, and the REF lock-offset calibration that
// paper_defaults() performs. These guard the zero-detuning property the
// SHIL capture depends on (lock range must exceed residual detuning).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "msropm/circuit/fabric.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using circuit::calibrate_for_frequency;
using circuit::calibrate_for_frequency_simulated;
using circuit::estimate_ring_frequency;
using circuit::FabricParams;
using circuit::InverterParams;
using circuit::measure_ring_frequency;

constexpr double kPi = std::numbers::pi;

TEST(MeasureRingFrequency, AgreesWithAnalyticEstimateWithinPercents) {
  const InverterParams p = calibrate_for_frequency(1.3e9, 11);
  const double measured = measure_ring_frequency(p, 11);
  const double estimated = estimate_ring_frequency(p, 11);
  EXPECT_NEAR(measured / estimated, 1.0, 0.03);
}

TEST(MeasureRingFrequency, ScalesInverselyWithTau) {
  InverterParams p = calibrate_for_frequency(1.3e9, 11);
  const double f1 = measure_ring_frequency(p, 11);
  p.tau *= 2.0;
  const double f2 = measure_ring_frequency(p, 11);
  EXPECT_NEAR(f1 / f2, 2.0, 0.05);
}

TEST(MeasureRingFrequency, MoreStagesOscillateSlower) {
  const InverterParams p = calibrate_for_frequency(1.3e9, 11);
  EXPECT_GT(measure_ring_frequency(p, 7), measure_ring_frequency(p, 11));
  EXPECT_GT(measure_ring_frequency(p, 11), measure_ring_frequency(p, 15));
}

TEST(CalibrateSimulated, HitsTargetWithinTightTolerance) {
  for (const double target : {1.0e9, 1.3e9, 2.0e9}) {
    InverterParams seed = calibrate_for_frequency(target, 11);
    const InverterParams refined =
        calibrate_for_frequency_simulated(target, 11, seed);
    const double achieved = measure_ring_frequency(refined, 11);
    EXPECT_NEAR(achieved / target, 1.0, 2e-3) << "target " << target;
  }
}

TEST(PaperDefaults, RingFreeRunsAtHalfShilFrequency) {
  const auto p = FabricParams::paper_defaults();
  const double f = measure_ring_frequency(p.inverter, p.stages, p.dt);
  EXPECT_NEAR(f, p.shil_frequency_hz / 2.0, p.shil_frequency_hz / 2.0 * 2e-3);
}

TEST(PaperDefaults, ReferenceOffsetPutsLockLobesOnZeroAndPi) {
  // A single oscillator under SHIL 1 must read ~0 or ~pi through the
  // calibrated REF; this is the Sec. 3.3 "REF edges at the lock phases".
  const graph::Graph g(4);
  circuit::RoscFabric fabric(g, FabricParams::paper_defaults());
  util::Rng rng(31);
  fabric.randomize(rng);
  fabric.run(6e-9);
  fabric.set_shil_enabled(true);
  fabric.run(10e-9);
  for (std::size_t o = 0; o < 4; ++o) {
    double residual = std::fmod(fabric.phase(o), kPi);
    residual = std::min(residual, kPi - residual);
    EXPECT_LT(residual, 0.15) << "osc " << o;
  }
}

TEST(PaperDefaults, IsCachedAndConsistent) {
  const auto a = FabricParams::paper_defaults();
  const auto b = FabricParams::paper_defaults();
  EXPECT_DOUBLE_EQ(a.inverter.tau, b.inverter.tau);
  EXPECT_DOUBLE_EQ(a.reference_offset_s, b.reference_offset_s);
  EXPECT_GE(a.reference_offset_s, 0.0);
  EXPECT_LT(a.reference_offset_s, a.reference_period_s);
}

TEST(ShilLockOffset, Shil2LocksQuarterPeriodFromShil1) {
  // Two single-oscillator fabrics differing only in SHIL_SEL: the locked
  // phases must sit pi/2 apart (Fig. 2d).
  const graph::Graph g(1);
  const auto params = FabricParams::paper_defaults();
  circuit::RoscFabric f1(g, params);
  circuit::RoscFabric f2(g, params);
  f1.run(6e-9);
  f2.run(6e-9);
  f1.set_shil_select_uniform(0);
  f2.set_shil_select_uniform(1);
  f1.set_shil_enabled(true);
  f2.set_shil_enabled(true);
  f1.run(12e-9);
  f2.run(12e-9);
  double delta = std::fmod(f2.phase(0) - f1.phase(0) + 4.0 * kPi, kPi);
  delta = std::min(delta, kPi - delta);
  EXPECT_NEAR(delta, kPi / 2.0, 0.15);
}

}  // namespace
