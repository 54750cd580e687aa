#pragma once
// Potts model (paper Eq. 3) and the phase readout of its vector form
// (paper Eq. 4).
//
// An N-state Potts spin s_i in {0..N-1} maps to the oscillator phase
// theta_i = 2*pi*s_i / N. The standard Potts Hamiltonian counts same-state
// adjacent pairs; the oscillator hardware realizes the vector Potts (cosine)
// interaction, and a locked phase reads back as its nearest spin.

#include <vector>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"

namespace msropm::model {

/// A coloring IS a Potts spin assignment: a graph::Coloring passes straight
/// through as a std::vector<PottsSpin>.
using PottsSpin = graph::Color;

class PottsModel {
 public:
  /// Uniform interaction strength on every edge. For graph coloring the
  /// convention is J > 0: every monochromatic edge costs +J.
  PottsModel(const graph::Graph& g, unsigned num_states, double uniform_j = 1.0);

  PottsModel(const graph::Graph& g, unsigned num_states,
             std::vector<double> per_edge_j);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] unsigned num_states() const noexcept { return num_states_; }
  [[nodiscard]] std::size_t num_spins() const noexcept { return graph_->num_nodes(); }

  /// Standard Potts energy: sum J_ij * delta(s_i, s_j) (Eq. 3).
  [[nodiscard]] double energy(const std::vector<PottsSpin>& spins) const;

 private:
  const graph::Graph* graph_;
  unsigned num_states_;
  std::vector<double> j_;
};

/// Nearest Potts spin for a phase: the spin s whose ideal phase 2*pi*s/N is
/// closest (ties resolve to the lower index).
[[nodiscard]] PottsSpin potts_from_phase(double theta, unsigned num_states);

/// Quantize a full phase vector to Potts spins.
[[nodiscard]] std::vector<PottsSpin> potts_from_phases(
    const std::vector<double>& phases, unsigned num_states);

}  // namespace msropm::model
