#include "msropm/phase/lock.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "msropm/phase/batch.hpp"

namespace msropm::phase {

double lock_residual(double theta, double psi, unsigned order) {
  if (order == 0) throw std::invalid_argument("lock_residual: order >= 1");
  const double spacing = 2.0 * std::numbers::pi / static_cast<double>(order);
  double delta = std::fmod(theta - psi, spacing);
  if (delta < 0.0) delta += spacing;
  return std::min(delta, spacing - delta);
}

std::vector<double> lock_residuals(const std::vector<double>& phases,
                                   const std::vector<double>& psi,
                                   unsigned order) {
  if (phases.size() != psi.size()) {
    throw std::invalid_argument("lock_residuals: size mismatch");
  }
  std::vector<double> out(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out[i] = lock_residual(phases[i], psi[i], order);
  }
  return out;
}

double locked_fraction(const std::vector<double>& phases,
                       const std::vector<double>& psi, unsigned order,
                       double tolerance_rad) {
  if (phases.empty()) return 1.0;
  const auto residuals = lock_residuals(phases, psi, order);
  std::size_t locked = 0;
  for (double r : residuals) {
    if (r <= tolerance_rad) ++locked;
  }
  return static_cast<double>(locked) / static_cast<double>(phases.size());
}

double max_lock_residual(const std::vector<double>& phases,
                         const std::vector<double>& psi, unsigned order) {
  double worst = 0.0;
  const auto residuals = lock_residuals(phases, psi, order);
  for (double r : residuals) worst = std::max(worst, r);
  return worst;
}

unsigned nearest_lock_index(double theta, double psi, unsigned order) {
  if (order == 0) throw std::invalid_argument("nearest_lock_index: order >= 1");
  const double spacing = 2.0 * std::numbers::pi / static_cast<double>(order);
  const double offset = wrap_angle(theta - psi);
  auto idx = static_cast<long>(std::lround(offset / spacing));
  if (idx >= static_cast<long>(order)) idx = 0;
  return static_cast<unsigned>(idx);
}

}  // namespace msropm::phase
