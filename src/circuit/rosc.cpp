#include "msropm/circuit/rosc.hpp"

#include <cmath>
#include <numbers>

namespace msropm::circuit {

void EdgePhaseDetector::observe(double t, double value) noexcept {
  if (has_prev_ && prev_v_ < midpoint_ && value >= midpoint_) {
    // Linear interpolation of the crossing instant.
    const double frac = (midpoint_ - prev_v_) / (value - prev_v_);
    const double t_cross = prev_t_ + frac * (t - prev_t_);
    if (crossings_ > 0) period_ = t_cross - last_cross_;
    last_cross_ = t_cross;
    ++crossings_;
  }
  prev_t_ = t;
  prev_v_ = value;
  has_prev_ = true;
}

double EdgePhaseDetector::phase_vs_reference(double t,
                                             double ref_period) const noexcept {
  if (crossings_ == 0 || ref_period <= 0.0) return 0.0;
  (void)t;
  // The oscillator's phase is 0 at its rising edge (last_cross_). Against a
  // reference whose rising edges sit at integer multiples of ref_period, the
  // oscillator lags by the offset of that edge within the reference period.
  double frac = std::fmod(last_cross_, ref_period) / ref_period;
  if (frac < 0.0) frac += 1.0;
  return frac * 2.0 * std::numbers::pi;
}

}  // namespace msropm::circuit
