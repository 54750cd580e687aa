#include "msropm/core/circuit_machine.hpp"

#include "msropm/core/shil_plan.hpp"

#include <stdexcept>

namespace msropm::core {

namespace {

/// Each readout samples this far into its lock window (as a fraction of the
/// window); the rest of the window runs after the readout.
constexpr double kReadoutPoint = 0.9;

}  // namespace

CircuitMsropm::CircuitMsropm(const graph::Graph& g, CircuitMsropmConfig config)
    : graph_(&g), config_(config) {
  if (!config_.schedule.valid()) {
    throw std::invalid_argument("CircuitMsropm: invalid schedule");
  }
}

CircuitMsropmResult CircuitMsropm::solve(
    util::Rng& rng, const CircuitStageObserver& observer,
    const std::function<void(const circuit::RoscFabric&)>& on_step) const {
  const graph::Graph& g = *graph_;
  const std::size_t n = g.num_nodes();
  circuit::RoscFabric fabric(g, config_.fabric);

  const auto notify = [&](const char* label) {
    if (observer) observer(label, fabric);
  };

  // --- init: random startup instants, couplings and SHIL off -------------
  fabric.set_couplings_enabled(false);
  fabric.set_shil_enabled(false);
  fabric.stagger_startup(rng, 0.6 * config_.schedule.init_s);
  notify("init");
  fabric.run(config_.schedule.init_s, on_step);

  // --- stage 1 anneal: all couplings on (Fig. 3a) --------------------------
  fabric.set_couplings_enabled(true);
  notify("stage1_anneal");
  fabric.run(config_.schedule.anneal_s, on_step);

  // --- stage 1 lock: SHIL 1 on every oscillator (Fig. 3b) ----------------
  fabric.set_shil_select_uniform(0);
  fabric.set_shil_enabled(true);
  notify("stage1_shil");
  fabric.run(config_.schedule.discretize_s * kReadoutPoint, on_step);

  // Stage-1 readout with binary resolution: bit = locked lobe (0deg vs
  // 180deg). Buckets 0..3 of a 4-ary readout fold to bits via bucket/2
  // tolerance: locked phases sit at buckets 0 and 2.
  circuit::PhaseReadout readout1(n, 2, config_.fabric.reference_period_s,
                                 config_.fabric.reference_offset_fraction());
  readout1.capture_all(fabric);
  CircuitMsropmResult result;
  result.stage1_bits.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // No edge reached the DFFs yet: latch bit 0.
    result.stage1_bits[i] =
        readout1.captured(i) ? static_cast<std::uint8_t>(readout1.bucket(i)) : 0;
  }
  fabric.run(config_.schedule.discretize_s * (1.0 - kReadoutPoint),
             on_step);

  // --- partition (P_EN) + SHIL_SEL from the readout ------------------------
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const bool same =
        result.stage1_bits[edges[e].u] == result.stage1_bits[edges[e].v];
    if (!same) {
      mask[e] = 0;
      ++result.stage1_cut;
    }
  }
  fabric.set_edge_enable(mask);
  fabric.set_shil_select(result.stage1_bits);

  // --- reinit: SHIL and couplings released (Fig. 3c) ---------------------
  fabric.set_shil_enabled(false);
  fabric.set_couplings_enabled(false);
  fabric.stagger_startup(rng, 0.6 * config_.schedule.reinit_s);
  notify("reinit");
  fabric.run(config_.schedule.reinit_s, on_step);

  // --- stage 2 anneal: couplings of the two partitions on (Fig. 3d) -------
  fabric.set_couplings_enabled(true);
  notify("stage2_anneal");
  fabric.run(config_.schedule.anneal_s, on_step);

  // --- stage 2 lock: SHIL 1 / SHIL 2 per partition (Fig. 3e) -------------
  fabric.set_shil_enabled(true);
  notify("stage2_shil");
  fabric.run(config_.schedule.discretize_s * kReadoutPoint, on_step);

  // Final readout: each oscillator's DFF pair samples against the lobe
  // references of its *own* SHIL (group A: REF_1/REF_3 at 0/180 deg; group
  // B: REF_2/REF_4 at 90/270 deg), yielding the stage-2 bit b2. The color
  // combines the SHIL_SEL register b1 with b2 (divide-and-color: the color
  // sets {0,2} and {1,3} are disjoint by construction, Fig. 2e).
  const double skew = config_.fabric.reference_offset_fraction();
  circuit::PhaseReadout readout2a(n, 2, config_.fabric.reference_period_s, skew);
  circuit::PhaseReadout readout2b(n, 2, config_.fabric.reference_period_s,
                                  skew + 0.25);
  readout2a.capture_all(fabric);
  readout2b.capture_all(fabric);
  result.colors.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b1 = result.stage1_bits[i];
    const circuit::PhaseReadout& ro = b1 ? readout2b : readout2a;
    if (!ro.captured(i)) {
      result.colors[i] = 0;
      continue;
    }
    const auto b2 = static_cast<std::uint8_t>(ro.bucket(i));
    result.colors[i] = final_color(b1, b2, 2);
  }
  result.final_phases = fabric.phases();
  fabric.run(config_.schedule.discretize_s * (1.0 - kReadoutPoint),
             on_step);
  notify("done");
  return result;
}

}  // namespace msropm::core
