#pragma once
// Waveform-level model of the coupled-ROSC compute fabric (paper Fig. 4).
//
// One ring oscillator per graph node; one B2B-inverter coupling element per
// graph edge joining the output taps; one SHIL injector per oscillator
// (PMOS pull-up gated by a 2*f0 square wave, selected between SHIL 1 and the
// half-period-delayed SHIL 2 by SHIL_SEL). Control surface mirrors the
// paper's signal names, limited to what the control sequence drives:
//
//   couplings    : global B2B coupling gate
//   (coupling) L_EN / P_EN : per-edge coupling enables (problem mapping and
//                  stage-1 partitioning share one mask here)
//   SHIL_EN      : global SHIL gate
//   SHIL_SEL     : per-ROSC selection of SHIL 1 (0) or SHIL 2 (1)
//
// Rings have no enable of their own; stagger_startup() parks each one at the
// reset pattern until its random release instant.
//
// Integration is fixed-step RK4 over all stage voltages with the SHIL square
// wave evaluated at substep times; it is the only ring integrator in the
// project (a lone ring is a one-node fabric, as in measure_ring_frequency).
// This engine is used for the Fig. 3 waveform reproduction and
// small-problem cross-validation of the phase-domain engine; the 2116-node
// runs use src/phase.

#include <cstdint>
#include <functional>
#include <vector>

#include "msropm/circuit/inverter.hpp"
#include "msropm/circuit/rosc.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::circuit {

struct FabricParams {
  unsigned stages = 11;                ///< inverters per ring (paper Sec. 3.3)
  InverterParams inverter{};           ///< calibrated for ~1.3 GHz by default
  double coupling_strength = 0.12;     ///< B2B drive relative to ring drive
  /// SHIL pull relative to ring drive. 1.5 captures an arbitrary initial
  /// phase within ~3 ns (the paper allocates 5 ns for SHIL stabilization)
  /// without deforming the waveform; the ablation bench sweeps the window.
  double shil_strength = 1.5;
  double shil_frequency_hz = 2.6e9;    ///< 2 * f0 (sub-harmonic order 2)
  double reference_period_s = 1.0 / 1.3e9;  ///< REF period = 1/f0
  /// Offset of the REF rising edge relative to t = 0 [s]. paper_defaults()
  /// calibrates this so the SHIL-1 lock lobes read exactly {0, 180} deg --
  /// mirroring the paper, which places the REF edges "at points
  /// corresponding to the different phases" (Sec. 3.3).
  double reference_offset_s = 0.0;
  double dt = 1.0e-12;                 ///< transient step [s]

  /// reference_offset_s as a fraction of the REF period (for readout windows).
  [[nodiscard]] double reference_offset_fraction() const noexcept {
    return reference_offset_s / reference_period_s;
  }

  /// Params with the inverter tau calibrated so an 11-stage ring sits near
  /// the paper's 1.3 GHz.
  [[nodiscard]] static FabricParams paper_defaults();
};

/// Free-running frequency of an n-stage ring measured from a transient
/// simulation of a one-node fabric (couplings and SHIL off): rising-edge
/// crossings averaged over the tail of `duration`. This is the ground truth
/// that the analytic estimate approximates.
[[nodiscard]] double measure_ring_frequency(const InverterParams& p,
                                            unsigned stages,
                                            double dt = 1.0e-12,
                                            double duration = 30.0e-9);

/// Refine `base.tau` with secant iterations on the *simulated* frequency so
/// the ring free-runs at f_target to within ~0.01%. Zero residual detuning
/// is what lets the 2f SHIL capture the ring (the Adler lock range must
/// exceed the detuning, and the paper's ROSC is designed exactly at
/// f0 = f_SHIL / 2).
[[nodiscard]] InverterParams calibrate_for_frequency_simulated(
    double f_target_hz, unsigned stages, InverterParams base,
    double dt = 1.0e-12);

class RoscFabric {
 public:
  /// Stage whose output is the ring's tap for coupling, injection and
  /// readout (Vout<1> in paper Fig. 4a).
  static constexpr std::size_t kOutputTap = 0;

  RoscFabric(const graph::Graph& g, FabricParams params);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const FabricParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t num_oscillators() const noexcept {
    return graph_->num_nodes();
  }
  [[nodiscard]] double time() const noexcept { return time_; }

  // --- state -------------------------------------------------------------
  /// Voltage of stage `stage` of oscillator `osc`.
  [[nodiscard]] double voltage(std::size_t osc, std::size_t stage) const;
  /// Output tap voltage of an oscillator.
  [[nodiscard]] double output(std::size_t osc) const;
  /// Randomize every stage voltage (models random startup instants).
  void randomize(util::Rng& rng);
  /// Stagger oscillator startups: each oscillator's enable delay is drawn in
  /// [0, max_delay]; before its delay elapses the ring is held at reset.
  void stagger_startup(util::Rng& rng, double max_delay_s);

  // --- control surface -----------------------------------------------------
  void set_couplings_enabled(bool on) noexcept { couplings_enabled_ = on; }
  [[nodiscard]] bool couplings_enabled() const noexcept { return couplings_enabled_; }
  void set_edge_enable(std::vector<std::uint8_t> mask);
  [[nodiscard]] const std::vector<std::uint8_t>& edge_enable() const noexcept {
    return edge_enable_;
  }
  void set_shil_enabled(bool on) noexcept { shil_enabled_ = on; }
  [[nodiscard]] bool shil_enabled() const noexcept { return shil_enabled_; }
  void set_shil_select(std::vector<std::uint8_t> sel);
  void set_shil_select_uniform(std::uint8_t sel);
  [[nodiscard]] const std::vector<std::uint8_t>& shil_select() const noexcept {
    return shil_sel_;
  }

  // --- SHIL waveform -------------------------------------------------------
  /// SHIL drive (0/1) seen by oscillator `osc` at absolute time t.
  [[nodiscard]] double shil_wave(std::size_t osc, double t) const noexcept;

  // --- dynamics ------------------------------------------------------------
  /// Advance one RK4 step of params.dt; feeds the per-oscillator phase
  /// detectors with the new output samples.
  void step();
  /// Integrate for a duration, invoking the observer after each step.
  void run(double duration,
           const std::function<void(const RoscFabric&)>& observer = {});

  // --- measurement -----------------------------------------------------------
  /// Phase detector of an oscillator (fed by step()).
  [[nodiscard]] const EdgePhaseDetector& detector(std::size_t osc) const;
  /// Measured oscillation frequency of an oscillator (0 until two edges seen).
  [[nodiscard]] double measured_frequency(std::size_t osc) const;
  /// Oscillator phase vs the REF clock, in [0, 2pi).
  [[nodiscard]] double phase(std::size_t osc) const;
  [[nodiscard]] std::vector<double> phases() const;

 private:
  void derivative(const std::vector<double>& v, double t,
                  std::vector<double>& dvdt) const;
  [[nodiscard]] std::size_t index(std::size_t osc, std::size_t stage) const noexcept {
    return osc * params_.stages + stage;
  }

  const graph::Graph* graph_;
  FabricParams params_;
  std::vector<double> v_;
  std::vector<std::uint8_t> edge_enable_;
  std::vector<std::uint8_t> shil_sel_;
  std::vector<double> startup_delay_;
  bool couplings_enabled_ = false;
  bool shil_enabled_ = false;
  double time_ = 0.0;
  std::vector<EdgePhaseDetector> detectors_;
  mutable std::vector<double> k1_, k2_, k3_, k4_, tmp_;
};

}  // namespace msropm::circuit
