#pragma once
// MSROPM executed on the waveform-level circuit engine (RoscFabric).
//
// This backend runs the same 60 ns control sequence as the phase-domain
// machine but at transistor-behavioural fidelity: real ring-oscillator
// waveforms, B2B coupling currents, gated 2f square-wave SHIL injection and
// DFF/REF phase readout. It is restricted to 4 colors / 2 stages (the
// configuration the paper simulates) and is used for:
//   - the Fig. 3 waveform reproduction (bench_fig3_waveforms),
//   - cross-validating the phase-domain engine on small graphs.

#include <cstdint>
#include <functional>
#include <vector>

#include "msropm/circuit/fabric.hpp"
#include "msropm/circuit/readout.hpp"
#include "msropm/core/schedule.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::core {

struct CircuitMsropmConfig {
  circuit::FabricParams fabric = circuit::FabricParams::paper_defaults();
  StageSchedule schedule{};
};


struct CircuitMsropmResult {
  graph::Coloring colors;                  ///< 4-coloring from final readout
  std::vector<std::uint8_t> stage1_bits;   ///< 0 = locked near 0deg, 1 = 180deg
  std::size_t stage1_cut = 0;
  std::vector<double> final_phases;        ///< measured phases [rad]
};

/// Observer called at each control transition: (label, fabric).
using CircuitStageObserver =
    std::function<void(const char*, const circuit::RoscFabric&)>;

class CircuitMsropm {
 public:
  CircuitMsropm(const graph::Graph& g, CircuitMsropmConfig config);

  [[nodiscard]] const CircuitMsropmConfig& config() const noexcept {
    return config_;
  }

  /// One full two-stage run on the circuit fabric. The observer fires at
  /// every control-signal transition (the Fig. 3 annotations); pass a
  /// WaveformRecorder via on_step to capture waveforms continuously.
  [[nodiscard]] CircuitMsropmResult solve(
      util::Rng& rng, const CircuitStageObserver& observer = {},
      const std::function<void(const circuit::RoscFabric&)>& on_step = {}) const;

 private:
  const graph::Graph* graph_;
  CircuitMsropmConfig config_;
};

}  // namespace msropm::core
