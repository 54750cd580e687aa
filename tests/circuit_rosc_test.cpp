// Tests for a lone ring oscillator (a one-node fabric) and edge-phase
// detection.
#include "msropm/circuit/rosc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "msropm/circuit/fabric.hpp"
#include "msropm/graph/graph.hpp"

namespace {

using namespace msropm::circuit;

/// A lone ring is a one-node fabric (couplings and SHIL start off).
RoscFabric lone_ring(const msropm::graph::Graph& one_node, unsigned stages,
                     const InverterParams& inverter) {
  FabricParams params;
  params.stages = stages;
  params.inverter = inverter;
  params.dt = 1e-12;
  return RoscFabric(one_node, params);
}

TEST(OneNodeFabric, RejectsEvenOrTinyRings) {
  const msropm::graph::Graph g(1);
  const InverterParams p;
  EXPECT_THROW(lone_ring(g, 4, p), std::invalid_argument);
  EXPECT_THROW(lone_ring(g, 1, p), std::invalid_argument);
  EXPECT_NO_THROW(lone_ring(g, 3, p));
  EXPECT_NO_THROW(lone_ring(g, 11, p));
}

TEST(OneNodeFabric, OscillatesRailToRail) {
  const msropm::graph::Graph g(1);
  const auto params = calibrate_for_frequency(1.3e9, 11);
  RoscFabric ring = lone_ring(g, 11, params);
  double vmin = 1.0;
  double vmax = 0.0;
  // Skip startup transient, then observe two periods.
  for (int i = 0; i < 3000; ++i) ring.step();
  for (int i = 0; i < 2000; ++i) {
    ring.step();
    vmin = std::min(vmin, ring.output(0));
    vmax = std::max(vmax, ring.output(0));
  }
  EXPECT_LT(vmin, 0.15 * params.vdd);
  EXPECT_GT(vmax, 0.85 * params.vdd);
}

TEST(OneNodeFabric, FrequencyNearPaperTarget) {
  // 11-stage ring calibrated for the paper's 1.3 GHz; the behavioural model
  // must land within 25% (tests measure, benches report the exact value).
  const msropm::graph::Graph g(1);
  RoscFabric ring = lone_ring(g, 11, calibrate_for_frequency(1.3e9, 11));
  for (int i = 0; i < 12000; ++i) ring.step();
  ASSERT_TRUE(ring.detector(0).has_period());
  EXPECT_NEAR(ring.measured_frequency(0), 1.3e9, 1.3e9 * 0.25);
}

TEST(EdgePhaseDetector, DetectsRisingCrossings) {
  EdgePhaseDetector det(0.5);
  // Triangle wave crossing up at t=1, down at t=3, up at t=5.
  det.observe(0.0, 0.0);
  det.observe(1.0, 0.5);
  det.observe(2.0, 1.0);
  det.observe(3.0, 0.5);  // falling crossing: ignored
  det.observe(4.0, 0.0);
  det.observe(5.0, 0.5);
  det.observe(6.0, 1.0);
  ASSERT_TRUE(det.has_period());
  EXPECT_NEAR(det.period(), 4.0, 1e-9);
  EXPECT_NEAR(det.last_crossing(), 5.0, 1e-9);
}

TEST(EdgePhaseDetector, InterpolatesCrossingInstant) {
  EdgePhaseDetector det(0.5);
  det.observe(0.0, 0.0);
  det.observe(1.0, 1.0);  // crosses 0.5 at t = 0.5
  EXPECT_NEAR(det.last_crossing(), 0.5, 1e-9);
}

TEST(EdgePhaseDetector, PhaseVsReference) {
  EdgePhaseDetector det(0.5);
  det.observe(0.9, 0.0);
  det.observe(1.1, 1.0);  // rising edge at t = 1.0
  det.observe(1.9, 0.0);
  det.observe(2.1, 1.0);  // rising edge at t = 2.0, period 1
  // Reference period 1.0: edges at integer times -> phase 0.
  EXPECT_NEAR(det.phase_vs_reference(2.5, 1.0), 0.0, 0.05);
  // Reference period 4.0: edge at t=2 = half the reference period -> pi.
  EXPECT_NEAR(det.phase_vs_reference(2.5, 4.0), std::numbers::pi, 0.05);
}

}  // namespace
