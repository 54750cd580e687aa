// Ablation: SHIL injection strength (paper Sec. 2.3 / 3.3).
//
// "A weak SHIL does not discretize the phases with precision, whereas a
//  strong SHIL deforms the waveforms preventing phase readability."
//
// Two experiments:
//   1. Phase-domain: worst-case lock residual and resulting accuracy vs
//      SHIL gain Ks on the 400-node instance (discretization threshold).
//   2. Circuit-level: waveform duty-cycle distortion vs SHIL strength on a
//      single ROSC (the deformation effect).

#include <algorithm>
#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/circuit/fabric.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/phase/lock.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

int main() {
  std::printf("=== Ablation: SHIL strength ===\n\n");

  // --- 1. discretization threshold (phase domain) --------------------------
  std::printf("(1) lock residual & accuracy vs SHIL gain, 400-node instance\n\n");
  util::TextTable disc({"Ks [rad/s]", "Ks/Kc", "max lock residual [rad]",
                        "best acc", "mean acc"});
  const auto g = graph::kings_graph_square(20);
  const auto base = analysis::default_machine_config();
  for (double ks : {5e7, 2e8, 5e8, 1.0e9, 1.6e9, 3.2e9, 8e9}) {
    auto cfg = base;
    cfg.network.shil_gain = ks;
    core::MultiStagePottsMachine machine(g, cfg);
    core::RunnerOptions opts;
    opts.iterations = 12;
    opts.seed = 9;
    const auto summary = core::run_iterations(machine, opts);
    double worst_residual = 0.0;
    for (const auto& it : summary.iterations) {
      for (const auto& stage : it.result.stages) {
        worst_residual = std::max(worst_residual, stage.max_lock_residual);
      }
    }
    disc.add_row({util::format_sci(ks, 1),
                  util::format_double(ks / base.network.coupling_gain, 2),
                  util::format_double(worst_residual, 3),
                  util::format_double(summary.best_accuracy, 3),
                  util::format_double(summary.mean_accuracy, 3)});
  }
  std::printf("%s\n", disc.render().c_str());

  // --- 2. waveform deformation (circuit level) ----------------------------
  std::printf("(2) circuit-level duty distortion vs SHIL strength (single ROSC)\n\n");
  util::TextTable deform({"shil_strength", "duty cycle", "V_min [V]",
                          "readable?"});
  const auto lone = graph::Graph(1);
  for (double strength : {0.1, 0.35, 0.8, 1.5, 3.0, 6.0}) {
    auto params = circuit::FabricParams::paper_defaults();
    params.shil_strength = strength;
    circuit::RoscFabric fabric(lone, params);
    util::Rng rng(5);
    fabric.randomize(rng);
    fabric.run(6e-9);
    fabric.set_shil_enabled(true);
    fabric.run(6e-9);
    std::size_t high = 0;
    std::size_t total = 0;
    double vmin = 1.0;
    fabric.run(4e-9, [&](const circuit::RoscFabric& f) {
      high += f.output(0) > 0.5 ? 1 : 0;
      vmin = std::min(vmin, f.output(0));
      ++total;
    });
    const double duty = static_cast<double>(high) / static_cast<double>(total);
    // Readability: output must still swing below VDD/2 so edges exist.
    deform.add_row({util::format_double(strength, 2),
                    util::format_double(duty, 3),
                    util::format_double(vmin, 3),
                    (duty < 0.8 && vmin < 0.4) ? "yes" : "DEFORMED"});
  }
  std::printf("%s\n", deform.render().c_str());
  std::printf("Expected shape: residual collapses once Ks clears the coupling\n"
              "gain (weak-SHIL failure below), while over-strong injection\n"
              "pins the output high (duty -> 1), destroying readability.\n");
  return 0;
}
