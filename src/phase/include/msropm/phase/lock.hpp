#pragma once
// Lock-quality diagnostics: how close oscillator phases sit to the discrete
// lock points a SHIL of a given order/offset defines. Used by tests (SHIL
// binarization properties) and by the coupling/SHIL strength ablations
// ("a weak SHIL does not discretize the phases with precision", Sec. 3.3).

#include <cstddef>
#include <vector>

namespace msropm::phase {

/// Distance (radians, in [0, pi/order]) from theta to the nearest lock point
/// of an order-N SHIL with offset psi (lock points psi + 2*pi*k/order).
[[nodiscard]] double lock_residual(double theta, double psi, unsigned order);

/// Largest lock_residual over a phase vector with per-oscillator offsets
/// (0 when fully discretized). Throws std::invalid_argument on a size
/// mismatch.
[[nodiscard]] double max_lock_residual(const std::vector<double>& phases,
                                       const std::vector<double>& psi,
                                       unsigned order);

/// Index of the lock point nearest to theta: k in [0, order) such that
/// psi + 2*pi*k/order is closest.
[[nodiscard]] unsigned nearest_lock_index(double theta, double psi, unsigned order);

}  // namespace msropm::phase
