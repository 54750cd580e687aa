#include "msropm/solvers/nshil_ropm.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "msropm/model/potts.hpp"
#include "msropm/phase/lock.hpp"

namespace msropm::solvers {

NShilRopm::NShilRopm(const graph::Graph& g, NShilRopmConfig config)
    : graph_(&g), config_(config) {
  if (config_.num_colors < 2) throw std::invalid_argument("NShilRopm: N >= 2");
  config_.network.shil_order = config_.num_colors;
}

NShilRopmResult NShilRopm::solve(util::Rng& rng) const {
  // One trajectory: a batch of one, replica 0.
  phase::PhaseBatch net(*graph_, config_.network, 1);
  const std::span<util::Rng> rngs(&rng, 1);
  net.set_uniform_shil_phase(0, 0.0);

  // Init: free-running random phases.
  net.set_couplings_active(false);
  net.set_shil_active(false);
  net.randomize_phases(0, rng);
  net.run(config_.init_s, rngs);

  // Anneal: couplings on (every edge: all oscillators start in group 0),
  // SHIL off.
  net.set_couplings_active(true);
  net.run(config_.anneal_s, rngs);

  // Lock: order-N SHIL ramps in, pinning phases at the N Potts spots.
  net.set_shil_active(true);
  net.set_shil_level(1.0);
  net.run(config_.lock_s, rngs, &config_.shil_ramp);

  NShilRopmResult result;
  const std::vector<double> theta(net.phases(0).begin(), net.phases(0).end());
  const std::vector<double> zero_psi(theta.size(), 0.0);
  result.max_lock_residual =
      phase::max_lock_residual(theta, zero_psi, config_.num_colors);
  result.colors = model::potts_from_phases(theta, config_.num_colors);
  return result;
}

}  // namespace msropm::solvers
