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

double max_lock_residual(const std::vector<double>& phases,
                         const std::vector<double>& psi, unsigned order) {
  if (phases.size() != psi.size()) {
    throw std::invalid_argument("max_lock_residual: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    worst = std::max(worst, lock_residual(phases[i], psi[i], order));
  }
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
