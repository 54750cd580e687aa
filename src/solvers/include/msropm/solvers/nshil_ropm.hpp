#pragma once
// Single-stage N-SHIL ROSC Potts machine -- the ICCAD'24 baseline [14] the
// paper compares against in Table 2 and Sec. 4.2.
//
// Instead of cascading order-2 SHIL stages, a single higher-order SHIL
// (order N) discretizes every oscillator directly into N phases in one
// anneal + lock pass. The paper argues this "N-SHIL method" reaches lower
// accuracy than the multi-stage flow; bench_ablation_multistage measures
// that claim on identical instances with identical physics parameters.

#include "msropm/core/schedule.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::solvers {

struct NShilRopmConfig {
  unsigned num_colors = 4;            ///< SHIL order N (any N >= 2)
  phase::NetworkParams network{};
  double init_s = 5e-9;
  double anneal_s = 20e-9;            ///< SHIL-free self-annealing
  double lock_s = 5e-9;               ///< N-SHIL discretization + readout
  phase::GainRamp shil_ramp{0.0, 0.4};

  [[nodiscard]] double total_time_s() const noexcept {
    return init_s + anneal_s + lock_s;
  }
};

struct NShilRopmResult {
  graph::Coloring colors;
  double max_lock_residual = 0.0;
};

class NShilRopm {
 public:
  NShilRopm(const graph::Graph& g, NShilRopmConfig config);

  [[nodiscard]] const NShilRopmConfig& config() const noexcept { return config_; }
  [[nodiscard]] NShilRopmResult solve(util::Rng& rng) const;

 private:
  const graph::Graph* graph_;
  NShilRopmConfig config_;
};

}  // namespace msropm::solvers
