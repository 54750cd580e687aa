#pragma once
// Behavioural CMOS inverter model for the waveform-level engine.
//
// The paper's MSROPM uses 11-stage ROSCs in 65 nm GP CMOS at VDD = 1 V with
// 4:1 PMOS:NMOS sizing (Sec. 3.3). SPICE netlists are not reproducible here;
// instead each inverter is modelled as a single-pole stage:
//
//   C * dVout/dt = (Vtc(Vin) - Vout) / R
//
// with a logistic voltage-transfer characteristic
//
//   Vtc(Vin) = VDD * sigmoid(-gain * (Vin - Vth) / VDD)
//
// This captures what the architecture depends on: finite per-stage delay
// (sets f0), saturating rails (sets amplitude), and an odd-ring instability
// (guarantees oscillation). The 4:1 sizing skews the switching threshold Vth
// above VDD/2, which is what gives the ROSC its 2nd-order SHIL
// susceptibility in the paper [24]; the skew parameter models that.

namespace msropm::circuit {

struct InverterParams {
  double vdd = 1.0;          ///< supply [V] (65 nm GP at 1 V, Sec. 4)
  double gain = 12.0;        ///< VTC steepness (dimensionless)
  double threshold = 0.55;   ///< switching threshold [V]; >VDD/2 models 4:1 P:N
  double tau = 3.0e-11;      ///< RC time constant [s] per stage
};

/// Static VTC: output target voltage for a given input voltage.
[[nodiscard]] double inverter_vtc(double vin, const InverterParams& p) noexcept;

/// Derivative contribution: dVout/dt for the single-pole stage.
[[nodiscard]] double inverter_dvdt(double vin, double vout,
                                   const InverterParams& p) noexcept;

/// Estimated free-running frequency of an n-stage ring built from this
/// inverter (first-order estimate 1 / (2 * n * t_d), t_d ~ tau * ln 2 plus a
/// slope correction). Used as a calibration starting point;
/// measure_ring_frequency (fabric.hpp) measures the true frequency from
/// simulated zero crossings.
[[nodiscard]] double estimate_ring_frequency(const InverterParams& p,
                                             unsigned stages) noexcept;

/// Choose tau so an n-stage ring oscillates near f_target (inverse of the
/// estimate). FabricParams::paper_defaults() refines it on the simulated
/// ring with calibrate_for_frequency_simulated (fabric.hpp).
[[nodiscard]] InverterParams calibrate_for_frequency(double f_target_hz,
                                                     unsigned stages,
                                                     InverterParams base = {}) noexcept;

}  // namespace msropm::circuit
