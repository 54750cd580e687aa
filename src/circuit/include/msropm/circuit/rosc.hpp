#pragma once
// Phase extraction for one ring oscillator: rising-edge crossings of its
// output tap (Vout<1> in paper Fig. 4a) give the period and the phase
// against the REF clock. The ring itself is integrated by RoscFabric
// (fabric.hpp), one node per ring.

namespace msropm::circuit {

/// Online phase estimator from rising midpoint crossings of a waveform.
/// Feed (t, value) samples; after two crossings the period and phase are
/// defined. Phase at time t is 2*pi * frac((t - t_last_cross) / period).
class EdgePhaseDetector {
 public:
  explicit EdgePhaseDetector(double midpoint) : midpoint_(midpoint) {}

  void observe(double t, double value) noexcept;

  [[nodiscard]] bool has_period() const noexcept { return crossings_ >= 2; }
  [[nodiscard]] double period() const noexcept { return period_; }
  [[nodiscard]] double frequency() const noexcept {
    return period_ > 0.0 ? 1.0 / period_ : 0.0;
  }
  [[nodiscard]] double last_crossing() const noexcept { return last_cross_; }
  /// Phase of the waveform at time t relative to a reference of period
  /// ref_period whose rising edge is at t = 0. In [0, 2*pi).
  [[nodiscard]] double phase_vs_reference(double t, double ref_period) const noexcept;

 private:
  double midpoint_;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  bool has_prev_ = false;
  double last_cross_ = 0.0;
  double period_ = 0.0;
  unsigned crossings_ = 0;
};

}  // namespace msropm::circuit
