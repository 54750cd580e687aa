// Tests for the coupled-ROSC fabric: B2B anti-phase coupling, SHIL locking,
// control surface and waveform capture.
#include "msropm/circuit/fabric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "msropm/circuit/waveform.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using circuit::FabricParams;
using circuit::RoscFabric;
using circuit::WaveformRecorder;
using phase::angular_distance;

constexpr double kPi = std::numbers::pi;

TEST(FabricParams, PaperDefaultsNear1p3GHz) {
  const auto p = FabricParams::paper_defaults();
  EXPECT_EQ(p.stages, 11u);
  EXPECT_NEAR(circuit::estimate_ring_frequency(p.inverter, p.stages), 1.3e9,
              1.3e9 * 0.01);
  EXPECT_DOUBLE_EQ(p.shil_frequency_hz, 2.6e9);  // 2nd order SHIL
}

TEST(Fabric, AllOscillatorsRunFreely) {
  const auto g = graph::Graph(3);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  fabric.run(8e-9);
  for (std::size_t o = 0; o < 3; ++o) {
    EXPECT_GT(fabric.measured_frequency(o), 0.9e9);
    EXPECT_LT(fabric.measured_frequency(o), 1.8e9);
  }
}

TEST(Fabric, B2BCouplingDrivesAntiPhase) {
  // Two coupled ROSCs with inverting (B2B) coupling settle out of phase
  // (paper Fig. 1).
  const auto g = graph::path_graph(2);
  auto params = FabricParams::paper_defaults();
  RoscFabric fabric(g, params);
  util::Rng rng(5);
  fabric.randomize(rng);
  fabric.set_couplings_enabled(true);
  fabric.run(25e-9);
  const double diff =
      angular_distance(fabric.phase(0), fabric.phase(1));
  EXPECT_NEAR(diff, kPi, 0.6)
      << "phases " << fabric.phase(0) << " vs " << fabric.phase(1);
}

TEST(Fabric, ShilBinarizesPhases) {
  // Uncoupled oscillators under SHIL 1 end near 0 or 180 deg of the
  // reference; the two-lobe structure is the paper's binarization.
  const auto g = graph::Graph(6);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  util::Rng rng(7);
  fabric.randomize(rng);
  fabric.run(6e-9);  // free-run first so detectors lock to real edges
  fabric.set_shil_select_uniform(0);
  fabric.set_shil_enabled(true);
  fabric.run(14e-9);
  for (std::size_t o = 0; o < 6; ++o) {
    const double ph = fabric.phase(o);
    const double to_zero = angular_distance(ph, 0.0);
    const double to_pi = angular_distance(ph, kPi);
    EXPECT_LT(std::min(to_zero, to_pi), 0.5)
        << "osc " << o << " phase " << ph;
  }
}

TEST(Fabric, Shil2ShiftsLockLobesByQuarterPeriod) {
  // SHIL 2 = 2f wave delayed by half its period. Lock lobes move 90 deg.
  const auto g = graph::Graph(8);
  RoscFabric f1(g, FabricParams::paper_defaults());
  RoscFabric f2(g, FabricParams::paper_defaults());
  util::Rng rng(11);
  f1.randomize(rng);
  util::Rng rng2(11);
  f2.randomize(rng2);
  f1.run(6e-9);
  f2.run(6e-9);
  f1.set_shil_select_uniform(0);
  f2.set_shil_select_uniform(1);
  f1.set_shil_enabled(true);
  f2.set_shil_enabled(true);
  f1.run(14e-9);
  f2.run(14e-9);
  // Average lobe position of f2 sits 90 deg away from f1's lobes.
  for (std::size_t o = 0; o < 8; ++o) {
    const double p1 = f1.phase(o);
    const double p2 = f2.phase(o);
    const double lobe1 = std::min(angular_distance(p1, 0.0),
                                  angular_distance(p1, kPi));
    const double lobe2 = std::min(angular_distance(p2, kPi / 2),
                                  angular_distance(p2, 1.5 * kPi));
    EXPECT_LT(lobe1, 0.6) << "SHIL1 osc " << o;
    EXPECT_LT(lobe2, 0.6) << "SHIL2 osc " << o;
  }
}

TEST(Fabric, ShilWaveTiming) {
  const auto g = graph::Graph(2);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  const double period = 1.0 / 2.6e9;
  fabric.set_shil_select({0, 1});
  // Osc 0 (SHIL 1): high in the first half of the 2f period.
  EXPECT_DOUBLE_EQ(fabric.shil_wave(0, 0.1 * period), 1.0);
  EXPECT_DOUBLE_EQ(fabric.shil_wave(0, 0.6 * period), 0.0);
  // Osc 1 (SHIL 2): delayed by half the 2f period.
  EXPECT_DOUBLE_EQ(fabric.shil_wave(1, 0.1 * period), 0.0);
  EXPECT_DOUBLE_EQ(fabric.shil_wave(1, 0.6 * period), 1.0);
}

TEST(Fabric, StaggeredRingParksAtResetPatternUntilReleased) {
  // Before its release instant a ring is held at the alternating rail
  // pattern (a gated ring holds definite logic levels) and produces no
  // edges; once released it oscillates.
  const auto g = graph::Graph(2);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  util::Rng rng(3);
  fabric.stagger_startup(rng, 1.0);  // releases fall far beyond this window
  fabric.randomize(rng);             // knock both rings off the pattern
  fabric.run(5e-9);
  const double vdd = fabric.params().inverter.vdd;
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t s = 0; s < 11; ++s) {
      const double target = (s % 2 == 0) ? vdd : 0.0;
      EXPECT_NEAR(fabric.voltage(o, s), target, 0.05) << o << "/" << s;
    }
    // The pull to the pattern is monotone: at most one crossing, no period.
    EXPECT_EQ(fabric.measured_frequency(o), 0.0) << o;
  }
  fabric.stagger_startup(rng, 1e-9);
  fabric.run(10e-9);
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_GT(fabric.measured_frequency(o), 1.0e9) << o;
  }
}

TEST(Fabric, EdgeEnableMaskGatesCoupling) {
  const auto g = graph::path_graph(2);
  auto params = FabricParams::paper_defaults();
  params.coupling_strength = 0.5;  // exaggerate for a clear signal
  RoscFabric coupled(g, params);
  RoscFabric gated(g, params);
  util::Rng rng(13);
  coupled.randomize(rng);
  util::Rng rng2(13);
  gated.randomize(rng2);
  coupled.set_couplings_enabled(true);
  gated.set_couplings_enabled(true);
  gated.set_edge_enable({0});
  coupled.run(20e-9);
  gated.run(20e-9);
  const double coupled_diff = angular_distance(coupled.phase(0), coupled.phase(1));
  EXPECT_NEAR(coupled_diff, kPi, 0.6);
  // The gated pair keeps whatever offset startup gave it; it must NOT be
  // reliably anti-phase. Just verify both rings still oscillate.
  EXPECT_GT(gated.measured_frequency(0), 0.5e9);
  EXPECT_GT(gated.measured_frequency(1), 0.5e9);
}

TEST(Fabric, StaggeredStartupDecorrelatesPhases) {
  const auto g = graph::Graph(6);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  util::Rng rng(17);
  fabric.stagger_startup(rng, 3e-9);
  fabric.run(10e-9);
  // Phases should not all coincide.
  double spread = 0.0;
  for (std::size_t o = 1; o < 6; ++o) {
    spread = std::max(spread, angular_distance(fabric.phase(0), fabric.phase(o)));
  }
  EXPECT_GT(spread, 0.3);
}

TEST(Fabric, ValidatesArguments) {
  const auto g = graph::path_graph(2);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  EXPECT_THROW((void)fabric.voltage(2, 0), std::out_of_range);
  EXPECT_THROW((void)fabric.voltage(0, 11), std::out_of_range);
  EXPECT_THROW((void)fabric.output(5), std::out_of_range);
  EXPECT_THROW(fabric.set_edge_enable({1, 1}), std::invalid_argument);
  EXPECT_THROW(fabric.set_shil_select({0}), std::invalid_argument);
  auto bad = FabricParams::paper_defaults();
  bad.stages = 4;
  EXPECT_THROW(RoscFabric(g, bad), std::invalid_argument);
}

TEST(WaveformRecorderTest, CapturesSamplesAndControls) {
  const auto g = graph::Graph(2);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  WaveformRecorder rec({0, 1}, 10);
  fabric.run(1e-9, std::ref(rec));
  EXPECT_EQ(rec.samples().size(), 100u);
  EXPECT_EQ(rec.samples().front().outputs.size(), 2u);
  EXPECT_EQ(rec.samples().front().shil_on, 0);
  const auto csv = rec.to_csv();
  EXPECT_NE(csv.find("time_ns,couplings_on,shil_on,vout_0,vout_1"),
            std::string::npos);
}

TEST(WaveformRecorderTest, AsciiRendersRows) {
  const auto g = graph::Graph(1);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  WaveformRecorder rec({0}, 1);
  fabric.run(2e-9, std::ref(rec));
  const auto art = rec.render_ascii(40);
  EXPECT_NE(art.find("osc0"), std::string::npos);
  EXPECT_NE(art.find("shil"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('.'), std::string::npos);
}

TEST(WaveformRecorderTest, Validation) {
  EXPECT_THROW(WaveformRecorder({}, 1), std::invalid_argument);
  EXPECT_THROW(WaveformRecorder({0}, 0), std::invalid_argument);
}


TEST(WaveformRecorderTest, VcdDumpStructure) {
  const auto g = graph::Graph(2);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  WaveformRecorder rec({0, 1}, 10);
  fabric.run(1e-9, std::ref(rec));
  const std::string vcd = rec.to_vcd();
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var real 64 ! vout_0 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var real 64 \" vout_1 $end"), std::string::npos);
  EXPECT_NE(vcd.find("couplings_on"), std::string::npos);
  EXPECT_NE(vcd.find("shil_on"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#"), std::string::npos);
}

TEST(WaveformRecorderTest, VcdEmitsOnChangeOnly) {
  // Constant control signals must appear exactly once (in $dumpvars).
  const auto g = graph::Graph(1);
  RoscFabric fabric(g, FabricParams::paper_defaults());
  WaveformRecorder rec({0}, 5);
  fabric.run(0.5e-9, std::ref(rec));
  const std::string vcd = rec.to_vcd();
  std::size_t cpl_changes = 0;
  for (std::size_t pos = 0; (pos = vcd.find("\n0\"", pos)) != std::string::npos;
       ++pos) {
    ++cpl_changes;
  }
  EXPECT_EQ(cpl_changes, 1u);  // couplings stay off -> single initial dump
}

}  // namespace
