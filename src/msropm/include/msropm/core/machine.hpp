#pragma once
// The Multi-Stage ROSC Potts Machine (MSROPM) -- the paper's contribution --
// running on the phase-domain engine.
//
// One run executes the full divide-and-color flow of Sec. 3.2/Fig. 3 (the
// stage schedule lives in solve_batch(); solve() is a batch of one):
//
//   init       : random oscillator phases (random startup instants + jitter)
//   stage k:
//     anneal   : couplings on within each current group (P_EN masks edges
//                across groups), SHIL off -> the fabric self-anneals toward
//                the max-cut ground state of every group in parallel
//     lock     : per-group phase-shifted order-2 SHIL ramps in and binarizes
//                each group's phases at {psi_g, psi_g + pi}
//     readout  : the lock lobe of each oscillator is latched as bit b_k
//                (hardware: DFF bank; here: nearest_lock_index) and shifted
//                into the oscillator's SHIL_SEL register (sel <- 2*sel + b_k)
//     reinit   : SHIL and couplings released; phases re-randomize (5 ns of
//                free running; group memory lives in the SHIL_SEL registers,
//                NOT in the phases -- the compute-in-memory property)
//   final      : after m = log2(K) stages the register and the last bit
//                identify one of K equally spaced phases = the Potts spin /
//                color (shil_plan.hpp's final_color)
//
// The register is the only state a run carries from one stage to the next:
// the stage-k SHIL phase is shil_phase(sel, k), and P_EN keeps an edge
// coupled iff its endpoints' registers are equal (they have read out the
// same bits so far).
//
// Stage-1 with all couplings active is exactly a max-cut solve of the whole
// graph; its cut is reported for the Fig. 5(b) correlation study.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "msropm/core/schedule.hpp"
#include "msropm/core/shil_plan.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::core {

struct MsropmConfig {
  unsigned num_colors = 4;                  ///< power of two in [2, 128]
  phase::NetworkParams network{};           ///< oscillator/coupling physics
  StageSchedule schedule{};                 ///< paper 60 ns timing
  phase::GainRamp shil_ramp{0.0, 0.4};      ///< SHIL ramp within lock window

  [[nodiscard]] unsigned num_stages() const { return stages_for_colors(num_colors); }
  [[nodiscard]] double total_time_s() const {
    return schedule.total_time_s(num_stages());
  }
};

/// Per-stage observable outcome.
struct StageOutcome {
  std::vector<std::uint8_t> bits;   ///< readout bit per oscillator
  std::size_t active_edges = 0;     ///< couplings enabled during the anneal
  std::size_t cut_edges = 0;        ///< of those, cut by this stage's readout
  double max_lock_residual = 0.0;   ///< worst distance to a lock point [rad]
};

/// Result of one complete MSROPM run.
struct MsropmResult {
  graph::Coloring colors;               ///< final color per node
  std::vector<StageOutcome> stages;     ///< one per stage

  /// Stage-1 bipartition (the max-cut solution of the full graph).
  [[nodiscard]] model::CutAssignment stage1_cut() const;
};

/// Called at stage boundaries (for tracing/visualization) with the stage
/// index (0 = init, then 1..m), the phase label, and the whole replica batch
/// (per-replica phases via batch.phases(r)).
using StageObserver =
    std::function<void(unsigned, const char*, const phase::PhaseBatch&)>;

/// Largest graph, in nodes, a MultiStagePottsMachine accepts (the node-count
/// sibling of runner.hpp's kMaxIterations). A run holds every oscillator of
/// every in-flight replica, so its memory grows with the node count; the
/// constructor rejects a larger graph up front, before anything is
/// allocated, instead of letting a hostile DIMACS header exhaust memory.
///
/// Sizing: dimacs_solver's default run (40 iterations, batches of 8 on 4
/// worker threads, 4-vCPU x86-64 host) peaked at 29 MB RSS on a 10,000-node
/// King's graph, 104 MB on 40,000 nodes and 169 MB on 65,536 (256 x 256),
/// about 2.6 kB per node, nearly all of it the in-flight replicas' phase
/// state. 40 iterations are at most 5 batches in flight, so at this cap the
/// run should stay near 0.21 GB on any host (5/4 of the measured peak). The
/// largest paper graph (46 x 46, 2116 nodes) is 31x below the cap.
inline constexpr std::size_t kMaxMachineNodes = std::size_t{1} << 16;

class MultiStagePottsMachine {
 public:
  /// Throws std::invalid_argument when g has more than kMaxMachineNodes
  /// nodes, the color count is not a power of two, or the schedule is
  /// invalid.
  MultiStagePottsMachine(const graph::Graph& g, MsropmConfig config);

  [[nodiscard]] const MsropmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

  /// One full multi-stage run with the given RNG (initial phases + jitter):
  /// solve_batch() over a batch of one, so the observer sees a one-replica
  /// batch.
  [[nodiscard]] MsropmResult solve(util::Rng& rng,
                                   const StageObserver& observer = {}) const;

  /// Drive rngs.size() independent Monte-Carlo replicas through the full
  /// anneal/lock/readout/reinit stage schedule SIMULTANEOUSLY on one
  /// phase::PhaseBatch: readouts and the SHIL_SEL register updates (and the
  /// P_EN masks they imply) are applied per replica between the shared
  /// integration windows. Replica r consumes only rngs[r], so its
  /// trajectory, per-stage bits, and final coloring are bit-identical to
  /// solve(rngs[r]) at any batch width (hard-gated against a frozen
  /// single-network reference by tests/core_batch_equivalence_test.cpp).
  /// Returns one result per replica.
  [[nodiscard]] std::vector<MsropmResult> solve_batch(
      std::span<util::Rng> rngs, const StageObserver& observer = {}) const;

 private:
  const graph::Graph* graph_;
  MsropmConfig config_;
};

}  // namespace msropm::core
