#pragma once
// Ising model over a coupling graph (paper Eq. 1 and its oscillator-phase
// form Eq. 2).
//
// Sign convention used throughout this codebase:
//   E(s)  = - sum_{(i,j) in E} J_ij s_i s_j          (discrete spins +-1)
//   E(th) = - sum_{(i,j) in E} J_ij cos(th_i - th_j) (oscillator phases)
// so J_ij > 0 is ferromagnetic (favors alignment / in-phase) and J_ij < 0 is
// anti-ferromagnetic (favors anti-alignment / anti-phase). The B2B-inverter
// couplings of the ROSC fabric are anti-ferromagnetic: J_ij = -1 on every
// graph edge. The paper's Eq. 1 writes H = +sum J s s; with its negative
// couplings on edges the two conventions coincide up to the sign carried by J.

#include <cstdint>
#include <vector>

#include "msropm/graph/graph.hpp"

namespace msropm::model {

using Spin = std::int8_t;  // +1 / -1

/// Sparse symmetric coupling matrix bound to a Graph's edge list.
class IsingModel {
 public:
  /// Uniform coupling on every edge (default -1: anti-ferromagnetic, the
  /// max-cut / coloring configuration of the ROSC fabric).
  explicit IsingModel(const graph::Graph& g, double uniform_j = -1.0);

  /// Per-edge couplings, aligned with g.edges().
  IsingModel(const graph::Graph& g, std::vector<double> per_edge_j);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t num_spins() const noexcept { return graph_->num_nodes(); }
  [[nodiscard]] double coupling(graph::EdgeId e) const { return j_.at(e); }
  [[nodiscard]] const std::vector<double>& couplings() const noexcept { return j_; }

  /// Discrete-spin energy E(s) = -sum J_ij s_i s_j.
  [[nodiscard]] double energy(const std::vector<Spin>& spins) const;

 private:
  const graph::Graph* graph_;
  std::vector<double> j_;
};

}  // namespace msropm::model
