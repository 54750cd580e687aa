#include "msropm/model/ising.hpp"

#include <stdexcept>

namespace msropm::model {

IsingModel::IsingModel(const graph::Graph& g, double uniform_j)
    : graph_(&g), j_(g.num_edges(), uniform_j) {}

IsingModel::IsingModel(const graph::Graph& g, std::vector<double> per_edge_j)
    : graph_(&g), j_(std::move(per_edge_j)) {
  if (j_.size() != g.num_edges()) {
    throw std::invalid_argument("IsingModel: coupling vector size mismatch");
  }
}

double IsingModel::energy(const std::vector<Spin>& spins) const {
  if (spins.size() != num_spins()) {
    throw std::invalid_argument("IsingModel::energy: spin size mismatch");
  }
  double e = 0.0;
  const auto edges = graph_->edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    e -= j_[k] * static_cast<double>(spins[edges[k].u]) *
         static_cast<double>(spins[edges[k].v]);
  }
  return e;
}

}  // namespace msropm::model
