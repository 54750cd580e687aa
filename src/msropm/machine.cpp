#include "msropm/core/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "msropm/phase/lock.hpp"

namespace msropm::core {

model::CutAssignment MsropmResult::stage1_cut() const {
  if (stages.empty()) return {};
  return {stages.front().bits.begin(), stages.front().bits.end()};
}

MultiStagePottsMachine::MultiStagePottsMachine(const graph::Graph& g,
                                               MsropmConfig config)
    : graph_(&g), config_(config) {
  if (g.num_nodes() > kMaxMachineNodes) {
    throw std::invalid_argument(
        "MultiStagePottsMachine: more than " + std::to_string(kMaxMachineNodes) +
        " nodes");
  }
  if (!valid_color_count(config_.num_colors)) {
    throw std::invalid_argument("MultiStagePottsMachine: colors must be 2^m");
  }
  if (!config_.schedule.valid()) {
    throw std::invalid_argument("MultiStagePottsMachine: invalid schedule");
  }
}

MsropmResult MultiStagePottsMachine::solve(util::Rng& rng,
                                           const StageObserver& observer) const {
  std::vector<MsropmResult> results = solve_batch({&rng, 1}, observer);
  return std::move(results.front());
}

std::vector<MsropmResult> MultiStagePottsMachine::solve_batch(
    std::span<util::Rng> rngs, const StageObserver& observer) const {
  const graph::Graph& g = *graph_;
  const unsigned num_stages = config_.num_stages();
  const std::size_t n = g.num_nodes();
  const std::size_t replicas = rngs.size();
  if (replicas == 0) return {};

  phase::PhaseBatch net(g, config_.network, replicas);
  net.set_couplings_active(false);
  net.set_shil_active(false);
  if (config_.network.frequency_mismatch_stddev_hz > 0.0) {
    // Process variation: each ROSC free-runs slightly off nominal; the SHIL
    // must overcome this residual detune to capture the oscillator. Drawn
    // per replica from ITS stream, before the initial phases.
    std::vector<double> detune(n);
    const double two_pi = 2.0 * 3.14159265358979323846;
    for (std::size_t r = 0; r < replicas; ++r) {
      for (double& d : detune) {
        d = two_pi * config_.network.frequency_mismatch_stddev_hz *
            rngs[r].normal();
      }
      net.set_detune(r, detune);
    }
  }

  // --- init: random startup phases ------------------------------------
  for (std::size_t r = 0; r < replicas; ++r) net.randomize_phases(r, rngs[r]);
  net.run(config_.schedule.init_s, rngs);
  if (observer) observer(0, "init", net);

  // SHIL_SEL registers, one byte per oscillator, replica r's at
  // [r*n, (r+1)*n): the readout bits so far, MSB first (shil_plan.hpp). Each
  // stage's SHIL phases and P_EN groups derive from them; no other state
  // carries over from one stage to the next.
  std::vector<std::uint8_t> sel(replicas * n, 0);
  std::vector<MsropmResult> results(replicas);

  const auto edges = g.edges();
  std::vector<double> psi(n);
  for (unsigned stage = 1; stage <= num_stages; ++stage) {
    // SHIL phases + P_EN groups for each replica: the registers are the
    // group labels, so an edge stays coupled iff its endpoints' match.
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::span<const std::uint8_t> sel_r(sel.data() + r * n, n);
      for (std::size_t i = 0; i < n; ++i) psi[i] = shil_phase(sel_r[i], stage);
      net.set_shil_phases(r, psi);
      net.set_groups(r, sel_r);
    }

    // --- anneal: couplings on within groups, SHIL off -------------------
    net.set_couplings_active(true);
    net.set_shil_active(false);
    net.run(config_.schedule.anneal_s, rngs);
    if (observer) observer(stage, "anneal", net);

    // --- lock: ramped SHIL binarizes each group; couplings stay on, so
    // the short SHIL-assisted settling also anneals (as in Fig. 3) --------
    net.set_shil_active(true);
    net.set_shil_level(1.0);
    net.run(config_.schedule.discretize_s, rngs, &config_.shil_ramp);
    if (observer) observer(stage, "lock", net);

    // --- readout + register update, per replica --------------------------
    for (std::size_t r = 0; r < replicas; ++r) {
      StageOutcome outcome;
      outcome.bits.resize(n);
      const std::span<const double> theta = net.phases(r);
      const std::span<const double> psi_r = net.shil_phases(r);
      double max_residual = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        outcome.bits[i] = static_cast<std::uint8_t>(
            phase::nearest_lock_index(theta[i], psi_r[i], 2));
        max_residual =
            std::max(max_residual, phase::lock_residual(theta[i], psi_r[i], 2));
      }
      outcome.max_lock_residual = max_residual;

      // Count the couplings this stage's readout cuts, then shift the bits
      // into the registers (which switches those couplings off for the next
      // stage).
      std::uint8_t* sel_r = sel.data() + r * n;
      for (const graph::Edge& e : edges) {
        if (sel_r[e.u] != sel_r[e.v]) continue;
        ++outcome.active_edges;
        if (outcome.bits[e.u] != outcome.bits[e.v]) ++outcome.cut_edges;
      }
      if (stage < num_stages) {
        for (std::size_t i = 0; i < n; ++i) {
          sel_r[i] = static_cast<std::uint8_t>(2 * sel_r[i] + outcome.bits[i]);
        }
      }
      results[r].stages.push_back(std::move(outcome));
    }

    // --- reinit between stages -------------------------------------------
    if (stage < num_stages) {
      net.set_shil_active(false);
      net.set_couplings_active(false);
      for (std::size_t r = 0; r < replicas; ++r) net.randomize_phases(r, rngs[r]);
      net.run(config_.schedule.reinit_s, rngs);
      if (observer) observer(stage, "reinit", net);
    }
  }

  // --- final: the last register value and the last bit name the color -----
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::uint8_t* sel_r = sel.data() + r * n;
    const std::vector<std::uint8_t>& last = results[r].stages.back().bits;
    results[r].colors.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      results[r].colors[i] = final_color(sel_r[i], last[i], num_stages);
    }
  }
  return results;
}

}  // namespace msropm::core
