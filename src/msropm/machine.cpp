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
  for (std::size_t r = 0; r < replicas; ++r) {
    net.set_uniform_coupling(r, -1.0);  // B2B inverters: anti-ferromagnetic
    net.set_couplings_active(r, false);
    net.set_shil_active(r, false);
  }
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

  // Per-replica register files: accumulated readout bits (SHIL_SEL) and the
  // P_EN edge masks. Replicas diverge here after the first readout.
  std::vector<std::vector<StageBits>> bits(replicas,
                                           std::vector<StageBits>(n));
  std::vector<std::vector<std::uint8_t>> edge_mask(
      replicas, std::vector<std::uint8_t>(g.num_edges(), 1));

  std::vector<MsropmResult> results(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    results[r].total_time_s = config_.total_time_s();
  }

  std::vector<double> psi(n);
  for (unsigned stage = 1; stage <= num_stages; ++stage) {
    // SHIL phases + P_EN masks for each replica's current grouping.
    for (std::size_t r = 0; r < replicas; ++r) {
      for (std::size_t i = 0; i < n; ++i) psi[i] = shil_phase_for_bits(bits[r][i]);
      net.set_shil_phases(r, psi);
      net.set_edge_mask(r, edge_mask[r]);
      net.set_couplings_active(r, true);
      net.set_shil_active(r, false);
    }

    // --- anneal: couplings on within groups, SHIL off -------------------
    net.run(config_.schedule.anneal_s, rngs);
    if (observer) observer(stage, "anneal", net);

    // --- lock: ramped SHIL binarizes each group; couplings stay on, so
    // the short SHIL-assisted settling also anneals (as in Fig. 3) --------
    for (std::size_t r = 0; r < replicas; ++r) {
      net.set_shil_active(r, true);
      net.set_shil_level(r, 1.0);
    }
    net.run(config_.schedule.discretize_s, rngs, &config_.shil_ramp);
    if (observer) observer(stage, "lock", net);

    // --- readout + register update, per replica --------------------------
    const auto edges = g.edges();
    for (std::size_t r = 0; r < replicas; ++r) {
      StageOutcome outcome;
      outcome.bits.resize(n);
      const std::span<const double> theta = net.phases(r);
      const std::span<const double> psi_r = net.shil_phases(r);
      double max_residual = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        outcome.bits[i] = static_cast<std::uint8_t>(
            phase::nearest_lock_index(theta[i], psi_r[i], 2));
        bits[r][i].push_back(outcome.bits[i]);
        max_residual =
            std::max(max_residual, phase::lock_residual(theta[i], psi_r[i], 2));
      }
      outcome.max_lock_residual = max_residual;

      // Update P_EN: cut couplings whose endpoints read out different bits.
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (!edge_mask[r][e]) continue;
        ++outcome.active_edges;
        if (outcome.bits[edges[e].u] != outcome.bits[edges[e].v]) {
          ++outcome.cut_edges;
          edge_mask[r][e] = 0;
        }
      }
      results[r].stages.push_back(std::move(outcome));
    }

    // --- reinit between stages -------------------------------------------
    if (stage < num_stages) {
      for (std::size_t r = 0; r < replicas; ++r) {
        net.set_shil_active(r, false);
        net.set_couplings_active(r, false);
        net.randomize_phases(r, rngs[r]);
      }
      net.run(config_.schedule.reinit_s, rngs);
      if (observer) observer(stage, "reinit", net);
    }
  }

  for (std::size_t r = 0; r < replicas; ++r) {
    results[r].colors.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      results[r].colors[i] =
          static_cast<graph::Color>(color_from_bits(bits[r][i]));
    }
  }
  return results;
}

}  // namespace msropm::core
