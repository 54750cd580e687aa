#include "msropm/model/potts.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace msropm::model {

PottsModel::PottsModel(const graph::Graph& g, unsigned num_states, double uniform_j)
    : graph_(&g), num_states_(num_states), j_(g.num_edges(), uniform_j) {
  if (num_states < 2) throw std::invalid_argument("PottsModel: num_states >= 2");
}

PottsModel::PottsModel(const graph::Graph& g, unsigned num_states,
                       std::vector<double> per_edge_j)
    : graph_(&g), num_states_(num_states), j_(std::move(per_edge_j)) {
  if (num_states < 2) throw std::invalid_argument("PottsModel: num_states >= 2");
  if (j_.size() != g.num_edges()) {
    throw std::invalid_argument("PottsModel: coupling vector size mismatch");
  }
}

double PottsModel::energy(const std::vector<PottsSpin>& spins) const {
  if (spins.size() != num_spins()) {
    throw std::invalid_argument("PottsModel::energy: spin size mismatch");
  }
  double e = 0.0;
  const auto edges = graph_->edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (spins[edges[k].u] >= num_states_ || spins[edges[k].v] >= num_states_) {
      throw std::invalid_argument("PottsModel::energy: spin out of range");
    }
    if (spins[edges[k].u] == spins[edges[k].v]) e += j_[k];
  }
  return e;
}

PottsSpin potts_from_phase(double theta, unsigned num_states) {
  if (num_states < 2 || num_states > 255) {
    throw std::invalid_argument("potts_from_phase: bad num_states");
  }
  const double two_pi = 2.0 * std::numbers::pi;
  double wrapped = std::fmod(theta, two_pi);
  if (wrapped < 0.0) wrapped += two_pi;
  const double slot = wrapped / two_pi * static_cast<double>(num_states);
  auto idx = static_cast<unsigned>(std::lround(slot));
  if (idx >= num_states) idx = 0;  // wrap 2*pi back to spin 0
  return static_cast<PottsSpin>(idx);
}

std::vector<PottsSpin> potts_from_phases(const std::vector<double>& phases,
                                         unsigned num_states) {
  std::vector<PottsSpin> spins(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    spins[i] = potts_from_phase(phases[i], num_states);
  }
  return spins;
}

}  // namespace msropm::model
