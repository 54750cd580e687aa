#pragma once
// Phase-domain model of the coupled-ROSC fabric, and its one integration
// engine.
//
// Each ring oscillator reduces (Adler / Kuramoto reduction, the standard
// model of the OIM literature the paper builds on [6], [24]) to a single
// phase theta_i in the frame rotating at the free-running frequency
// f0 = 1.3 GHz:
//
//   dtheta_i/dt = d_i
//                 - Kc * J * sum_j m_ij * sin(theta_i - theta_j)
//                 - Ks(t) * sin(order * (theta_i - psi_i))
//                 + sigma * xi_i(t)
//
//   d_i    : frequency detune (0 for matched oscillators)
//   J      : coupling sign, fixed at -1: every coupling is a B2B inverter
//   m_ij   : P_EN edge mask, 1 iff oscillators i and j carry the same group
//            label (the SHIL_SEL register in the MSROPM), else 0
//   Kc     : coupling gain [rad/s]; the coupling enable (G_EN) switches the
//            whole term for every replica at once
//   Ks(t)  : SHIL injection gain [rad/s], possibly ramped; the SHIL acts on
//            every oscillator of every replica at once (SHIL_EN)
//   psi_i  : per-oscillator SHIL phase offset (SHIL_SEL); order-2 SHIL locks
//            theta_i at {psi_i, psi_i + pi}
//   order  : sub-harmonic order (2 for the MSROPM; the ICCAD'24 ROPM [14]
//            uses order N directly)
//   xi     : unit white noise modeling oscillator jitter
//
// This is gradient flow on
//   E = - J sum_ij m_ij cos(theta_i - theta_j)
//       - (Ks/order) sum_i cos(order (theta_i - psi_i))
// scaled by Kc, so trajectories descend the (vector Potts) energy landscape.
// It is stepped by Euler-Maruyama.
//
// The paper's headline experiments are best-of-40 Monte-Carlo sweeps over the
// SAME graph: every iteration re-integrates the identical coupling network
// with nothing but a different RNG stream. PhaseBatch owns R replicas x N
// oscillators and steps ALL replicas per call, so the graph is traversed once
// per lane group instead of once per trajectory; a single trajectory is a
// batch of one (replica 0):
//
//   * The graph is converted ONCE into a CSR neighbor structure (per-node
//     adjacency with the edge id of each entry). The drift is a gather /
//     accumulate per node -- no edge-list scatter, no per-edge mask branch:
//
//       J sum_j m_ij sin(theta_i - theta_j)
//         = sin_i * sum_j w_ij cos_j  -  cos_i * sum_j w_ij sin_j
//
//     with w_ij = Kc * J * m_ij. The kernel holds Kc * J once and the masks
//     m_ij as one byte of lane bits per CSR entry (bit l = lane l's P_EN
//     mask), rebuilt lazily when a replica's group labels change (once per
//     MSROPM stage); the sums add Kc * J * cos_j / sin_j only over the
//     entries whose bit is set.
//   * Replica lanes. The replicas run as floor(R/L) interleaved lane groups
//     of L plus R mod L single-lane replicas, where L is the SIMD width
//     fixed once per process (8 with AVX-512F+DQ, 4 with AVX2, else 1; see
//     src/phase/trig.hpp). A group's per-node state is laid out node-major
//     with the lanes innermost (`x[i*L + lane]`), so the gather does one
//     L-wide load per CSR neighbour plus one edge-bit byte, the sin/cos pass
//     runs over N*L contiguous values, and the noise comes from an L-lane
//     xoshiro256** whose lane l is exactly rngs[l]'s stream. One kernel
//     template on L serves both the groups and the single-lane replicas.
//   * The order-2 SHIL term reuses the sin/cos pass through the double-angle
//     identity. A replica's own state is per oscillator only -- phases,
//     group labels, SHIL phases and detune -- because replicas diverge after
//     each readout; the enables, the SHIL level and J are the same for every
//     lane, as one chip runs one schedule.
//
// The lane layout is internal working state: phases(r) and theta_flat() stay
// replica-major (`theta[r*N + i]`). run() packs the groups' phases on entry
// and unpacks them on exit.
//
// Determinism contract: a lane computes exactly what a lone replica computes
// -- every transcendental runs at the process's one vector width on padded
// blocks, masked-off edges add nothing to a finite sum, and FP contraction
// is off -- and replica r only ever reads replica-r state and rngs[r]. So for
// finite phases a batch-of-R run is bit-identical to R batch-of-1
// runs (hard-gated by tests/core_batch_equivalence_test.cpp), and "serial"
// and "batched" share this single implementation.

#include <cstdint>
#include <span>
#include <vector>

#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::phase {

namespace detail {
struct SimdKernels;
}

/// Static parameters of a phase-domain simulation.
struct NetworkParams {
  double coupling_gain = 8.0e8;         ///< Kc [rad/s]
  double shil_gain = 1.2e9;             ///< Ks at full strength [rad/s]
  unsigned shil_order = 2;              ///< 2 for MSROPM
  double noise_stddev = 1.5e3;          ///< sigma [rad/sqrt(s)]
  /// Process-variation model: per-oscillator free-running frequency offsets
  /// are drawn i.i.d. normal with this stddev [Hz] at machine init (0 =
  /// matched oscillators, the paper's nominal simulation).
  double frequency_mismatch_stddev_hz = 0.0;
  double dt = 1.0e-11;                  ///< integration step [s]
};

/// Piecewise-linear gain envelope for SHIL ramp-in during a window.
struct GainRamp {
  double start_fraction = 0.0;  ///< ramp start within the window [0,1]
  double end_fraction = 0.3;    ///< full strength from here on
  [[nodiscard]] double value(double t_fraction) const noexcept;
};

class PhaseBatch {
 public:
  PhaseBatch(const graph::Graph& g, NetworkParams params,
             std::size_t num_replicas);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const NetworkParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_replicas() const noexcept { return r_; }

  // --- state (replica r) -------------------------------------------------
  [[nodiscard]] std::span<const double> phases(std::size_t r) const {
    check_replica(r);
    return {theta_.data() + r * n_, n_};
  }
  void set_phases(std::size_t r, std::span<const double> phases);
  /// Random uniform phases in [0, 2pi): the paper's random initialization.
  void randomize_phases(std::size_t r, util::Rng& rng);

  // --- couplings (B2B / P_EN / G_EN) -------------------------------------
  /// P_EN for replica r: edge (u, v) couples iff group[u] == group[v]. Every
  /// oscillator starts in group 0, so every edge starts on.
  void set_groups(std::size_t r, std::span<const std::uint8_t> group);
  /// Global coupling enable (G_EN), for every replica.
  void set_couplings_active(bool active) noexcept { couplings_active_ = active; }
  [[nodiscard]] bool couplings_active() const noexcept {
    return couplings_active_;
  }

  // --- SHIL (SHIL_EN / SHIL_SEL) ------------------------------------------
  /// SHIL_EN, for every replica.
  void set_shil_active(bool active) noexcept { shil_active_ = active; }
  [[nodiscard]] bool shil_active() const noexcept { return shil_active_; }
  void set_shil_phases(std::size_t r, std::span<const double> psi);
  void set_uniform_shil_phase(std::size_t r, double psi);
  [[nodiscard]] std::span<const double> shil_phases(std::size_t r) const {
    check_replica(r);
    return {shil_phase_.data() + r * n_, n_};
  }
  /// Instantaneous SHIL gain multiplier in [0,1] (ramp support), for every
  /// replica.
  void set_shil_level(double level) noexcept;
  [[nodiscard]] double shil_level() const noexcept { return shil_level_; }

  // --- detune (oscillator mismatch) ---------------------------------------
  void set_detune(std::size_t r, std::span<const double> detune_rad_per_s);

  // --- dynamics ------------------------------------------------------------
  /// Integrate every replica for a duration [s] by Euler-Maruyama steps of
  /// params.dt; rngs[r] supplies replica r's jitter (rngs.size() must equal
  /// num_replicas()). An optional ramp shapes the SHIL level across the
  /// window (scaling the level set on entry, which the window leaves as it
  /// was). An optional stop token is polled every 32 steps: when it fires
  /// the window ends early — state is a valid trajectory prefix and the
  /// batch stays fully usable — and run() returns false. A null/never-firing
  /// token changes nothing (bit-identical trajectories, the core determinism
  /// gate).
  bool run(double duration, std::span<util::Rng> rngs,
           const GainRamp* shil_ramp = nullptr,
           const util::StopToken* stop = nullptr);

  /// Replica r's energy E(theta) under its P_EN mask (excludes SHIL term).
  [[nodiscard]] double coupling_energy(std::size_t r) const;
  /// Replica r's SHIL pinning energy term.
  [[nodiscard]] double shil_energy(std::size_t r) const;

  /// Every replica's phases concatenated, replica-major (`[r*N + i]`).
  [[nodiscard]] const std::vector<double>& theta_flat() const noexcept {
    return theta_;
  }

 private:
  /// Where replica r's slice of a lane-layout array lives: element i at
  /// base + i * stride (stride L inside a lane group, 1 for a single).
  struct Slice {
    std::size_t base;
    std::size_t stride;
    [[nodiscard]] std::size_t at(std::size_t i) const noexcept {
      return base + i * stride;
    }
  };
  /// Slice of an array with `per_replica` elements per replica.
  [[nodiscard]] Slice slice(std::size_t r, std::size_t per_replica) const noexcept;

  void check_replica(std::size_t r) const;
  /// The lane group (or single) replica r steps in: groups first, then the
  /// singles, as run() orders its units.
  [[nodiscard]] std::size_t unit_of(std::size_t r) const noexcept;
  void rebuild_edge_bits(std::size_t r);
  void refresh_trig(const double* theta) const;
  void refresh_shil_trig(std::size_t r);
  /// One Euler-Maruyama step of replicas [first, first + lanes), lanes 1 or
  /// lanes_, whose phases are x in lane layout, at SHIL level `level`.
  void euler_step_lanes(std::size_t first, std::size_t lanes, double* x,
                        util::Rng* rngs, double noise_scale, double level);
  void pack_lanes();
  void unpack_lanes();

  const graph::Graph* graph_;
  NetworkParams params_;
  std::size_t n_ = 0;  ///< oscillators per replica
  std::size_t m_ = 0;  ///< edges
  std::size_t r_ = 0;  ///< replicas
  const detail::SimdKernels* simd_;  ///< W-wide kernels, fixed at construction
  std::size_t lanes_ = 1;   ///< L: lanes per group (the SIMD width W)
  std::size_t groups_ = 0;  ///< lane groups; replicas [0, groups_*L) are grouped

  // CSR neighbor structure: structural, shared by all replicas. Entry k in
  // [csr_offsets_[i], csr_offsets_[i+1]) is neighbor csr_neighbor_[k].
  std::vector<std::uint32_t> csr_offsets_;   // n+1
  std::vector<std::uint32_t> csr_neighbor_;  // 2m

  // Replica-major state behind the span API: slice r is [r*n_, (r+1)*n_).
  std::vector<double> theta_;              // R*N
  std::vector<std::uint8_t> group_;        // R*N: P_EN group labels
  std::vector<double> shil_phase_;         // R*N
  // Kernel-side per-node state in lane layout (see slice()): group g holds
  // [g*N*L, (g+1)*N*L) node-major with lanes innermost, then the singles
  // follow replica-major.
  std::vector<double> lanes_theta_;        // groups*N*L: packed theta mirror
  std::vector<double> shil_sin_;           // R*N: sin(order * psi)
  std::vector<double> shil_cos_;           // R*N: cos(order * psi)
  std::vector<double> detune_;             // R*N
  // Batch-wide switches: one chip, one schedule.
  bool couplings_active_ = true;
  bool shil_active_ = false;
  double shil_level_ = 1.0;

  // P_EN masks in CSR order, one byte per directed entry per unit
  // (units*2M, unit u at [u*2M, (u+1)*2M)): bit l is lane l's mask, bit 0 a
  // single's. Replica r's bit is rebuilt lazily from its group labels before
  // its next step after set_groups.
  std::vector<std::uint8_t> edge_bits_;
  std::vector<std::uint8_t> edge_bits_dirty_;  // R

  // Scratch, fully rewritten before each use, so no state leaks across
  // replicas or groups (sin_/cos_ are mutable: the const energy queries
  // share the step's sincos pass).
  mutable std::vector<double> sin_, cos_;  // N*L: the per-step snapshot
  std::vector<double> gsin_, gcos_;        // N*L: SHIL orders other than 2
  std::vector<double> zc_, zs_;  // kNoiseChunk/2*L: one noise chunk's normals
};

/// Wrap an angle into [0, 2pi).
[[nodiscard]] double wrap_angle(double theta) noexcept;

/// Smallest absolute angular distance between two angles (in [0, pi]).
[[nodiscard]] double angular_distance(double a, double b) noexcept;

}  // namespace msropm::phase
