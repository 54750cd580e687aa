#include "msropm/phase/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "msropm/obs/obs.hpp"
#include "trig.hpp"

namespace msropm::phase {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
/// Coupling sign of every edge: the couplings are B2B inverters.
constexpr double kJ = -1.0;

// Batched-stepping observability: one span per run() window plus replica
// throughput heartbeat gauges. All write-only behind obs::gate() -- the
// trajectory math never reads any of it (no-perturbation contract, pinned by
// the batch equivalence test which runs with obs both off and on).
struct PhaseMetrics {
  obs::MetricId t_batch_step = obs::timer("phase.batch_step");
  obs::MetricId c_steps = obs::counter("phase.steps");
  obs::MetricId c_replica_steps = obs::counter("phase.replica_steps");
  obs::MetricId g_hb_rate = obs::gauge("phase.hb.replica_steps_per_sec");
  obs::MetricId g_hb_replicas = obs::gauge("phase.hb.replicas");
};

const PhaseMetrics& pmetrics() {
  static const PhaseMetrics m;
  return m;
}

}  // namespace

double wrap_angle(double theta) noexcept {
  double w = std::fmod(theta, kTwoPi);
  if (w < 0.0) w += kTwoPi;
  return w;
}

double angular_distance(double a, double b) noexcept {
  double d = std::fabs(wrap_angle(a) - wrap_angle(b));
  return d > std::numbers::pi ? kTwoPi - d : d;
}

double GainRamp::value(double t_fraction) const noexcept {
  if (t_fraction <= start_fraction) return 0.0;
  if (t_fraction >= end_fraction) return 1.0;
  if (end_fraction <= start_fraction) return 1.0;
  return (t_fraction - start_fraction) / (end_fraction - start_fraction);
}

PhaseBatch::PhaseBatch(const graph::Graph& g, NetworkParams params,
                       std::size_t num_replicas)
    : graph_(&g),
      params_(params),
      n_(g.num_nodes()),
      m_(g.num_edges()),
      r_(num_replicas) {
  if (params_.dt <= 0.0) throw std::invalid_argument("PhaseBatch: dt > 0");
  if (params_.shil_order < 1) throw std::invalid_argument("PhaseBatch: order >= 1");
  if (r_ == 0) throw std::invalid_argument("PhaseBatch: num_replicas >= 1");

  // CSR: count directed entries per node, then fill the neighbors. The edge
  // list is canonical (u < v, lexicographic), so both the entry order within
  // a node and the edge-bit layout are deterministic.
  csr_offsets_.assign(n_ + 1, 0);
  const auto edges = g.edges();
  for (const graph::Edge& e : edges) {
    ++csr_offsets_[e.u + 1];
    ++csr_offsets_[e.v + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  csr_neighbor_.resize(2 * m_);
  std::vector<std::uint32_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (const graph::Edge& e : edges) {
    csr_neighbor_[cursor[e.u]++] = e.v;
    csr_neighbor_[cursor[e.v]++] = e.u;
  }

  // Lane groups only pay from two lanes up; with L = 1 every replica is a
  // single.
  simd_ = &detail::simd(detail::simd_width());
  lanes_ = simd_->width;
  groups_ = lanes_ > 1 ? r_ / lanes_ : 0;
  const std::size_t scratch = n_ * lanes_;
  const std::size_t units = groups_ + (r_ - groups_ * lanes_);

  theta_.assign(r_ * n_, 0.0);
  group_.assign(r_ * n_, 0);
  shil_phase_.assign(r_ * n_, 0.0);
  lanes_theta_.assign(groups_ * n_ * lanes_, 0.0);
  shil_sin_.assign(r_ * n_, 0.0);
  shil_cos_.assign(r_ * n_, 1.0);
  detune_.assign(r_ * n_, 0.0);
  edge_bits_.assign(units * 2 * m_, 0);
  edge_bits_dirty_.assign(r_, 1);
  sin_.assign(scratch, 0.0);
  cos_.assign(scratch, 0.0);
  if (params_.shil_order != 2) {
    gsin_.assign(scratch, 0.0);
    gcos_.assign(scratch, 0.0);
  }
  // Noise scratch: one chunk of the Euler kernel.
  zc_.assign(detail::kNoiseChunk / 2 * lanes_, 0.0);
  zs_.assign(detail::kNoiseChunk / 2 * lanes_, 0.0);
}

PhaseBatch::Slice PhaseBatch::slice(std::size_t r,
                                    std::size_t per_replica) const noexcept {
  const std::size_t grouped = groups_ * lanes_;
  if (r < grouped) {
    return {(r / lanes_) * per_replica * lanes_ + r % lanes_, lanes_};
  }
  return {grouped * per_replica + (r - grouped) * per_replica, 1};
}

void PhaseBatch::check_replica(std::size_t r) const {
  if (r >= r_) throw std::out_of_range("PhaseBatch: replica index out of range");
}

void PhaseBatch::set_phases(std::size_t r, std::span<const double> phases) {
  check_replica(r);
  if (phases.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_phases: size mismatch");
  }
  std::copy(phases.begin(), phases.end(), theta_.begin() + r * n_);
}

void PhaseBatch::randomize_phases(std::size_t r, util::Rng& rng) {
  check_replica(r);
  double* theta = theta_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) theta[i] = rng.uniform_phase();
}

void PhaseBatch::set_groups(std::size_t r, std::span<const std::uint8_t> group) {
  check_replica(r);
  if (group.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_groups: size mismatch");
  }
  std::copy(group.begin(), group.end(), group_.begin() + r * n_);
  edge_bits_dirty_[r] = 1;
}

void PhaseBatch::refresh_shil_trig(std::size_t r) {
  // Through the W-wide pass like every other transcendental, staged in the
  // step scratch (rewritten before each use).
  const double order = static_cast<double>(params_.shil_order);
  const double* psi = shil_phase_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) sin_[i] = order * psi[i];
  simd_->sincos(sin_.data(), sin_.data(), cos_.data(), n_);
  const Slice at = slice(r, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    shil_sin_[at.at(i)] = sin_[i];
    shil_cos_[at.at(i)] = cos_[i];
  }
}

void PhaseBatch::set_shil_phases(std::size_t r, std::span<const double> psi) {
  check_replica(r);
  if (psi.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_shil_phases: size mismatch");
  }
  std::copy(psi.begin(), psi.end(), shil_phase_.begin() + r * n_);
  refresh_shil_trig(r);
}

void PhaseBatch::set_uniform_shil_phase(std::size_t r, double psi) {
  check_replica(r);
  std::fill_n(shil_phase_.begin() + r * n_, n_, psi);
  refresh_shil_trig(r);
}

void PhaseBatch::set_shil_level(double level) noexcept {
  shil_level_ = std::clamp(level, 0.0, 1.0);
}

void PhaseBatch::set_detune(std::size_t r,
                            std::span<const double> detune_rad_per_s) {
  check_replica(r);
  if (detune_rad_per_s.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_detune: size mismatch");
  }
  const Slice at = slice(r, n_);
  for (std::size_t i = 0; i < n_; ++i) detune_[at.at(i)] = detune_rad_per_s[i];
}

std::size_t PhaseBatch::unit_of(std::size_t r) const noexcept {
  const std::size_t grouped = groups_ * lanes_;
  return r < grouped ? r / lanes_ : groups_ + (r - grouped);
}

void PhaseBatch::rebuild_edge_bits(std::size_t r) {
  // Replica r's bit in its unit's byte per directed CSR entry: set where the
  // entry's two endpoints carry the same group label.
  const std::size_t grouped = groups_ * lanes_;
  const auto bit = static_cast<std::uint8_t>(r < grouped ? 1u << (r % lanes_) : 1u);
  const std::uint8_t* group = group_.data() + r * n_;
  std::uint8_t* bits = edge_bits_.data() + unit_of(r) * 2 * m_;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = csr_offsets_[i]; k < csr_offsets_[i + 1]; ++k) {
      bits[k] = group[i] == group[csr_neighbor_[k]] ? bits[k] | bit
                                                    : bits[k] & ~bit;
    }
  }
  edge_bits_dirty_[r] = 0;
}

void PhaseBatch::refresh_trig(const double* theta) const {
  // One bulk sincos pass at the batch's vector width (see trig.hpp for the
  // determinism contract).
  simd_->sincos(theta, sin_.data(), cos_.data(), n_);
}

void PhaseBatch::euler_step_lanes(std::size_t first, std::size_t lanes,
                                  double* x, util::Rng* rngs,
                                  double noise_scale, double level) {
  // One kernel template on the lane count serves groups and singles alike
  // (simd_kernels.hpp); here only the raw views and the switches are set.
  detail::LaneStep step;
  step.trig = simd_;
  step.n = n_;
  step.csr_offsets = csr_offsets_.data();
  step.csr_neighbor = csr_neighbor_.data();
  step.x = x;
  const Slice node = slice(first, n_);
  step.edge_bits = edge_bits_.data() + unit_of(first) * 2 * m_;
  step.detune = detune_.data() + node.base;
  step.shil_sin = shil_sin_.data() + node.base;
  step.shil_cos = shil_cos_.data() + node.base;
  step.sin = sin_.data();
  step.cos = cos_.data();
  step.gsin = gsin_.data();
  step.gcos = gcos_.data();
  step.dt = params_.dt;
  step.noise_scale = noise_scale;
  step.shil_order = params_.shil_order;
  step.couple = couplings_active_;
  step.kcj = params_.coupling_gain * kJ;
  step.shil = shil_active_ && level > 0.0;
  step.ks = params_.shil_gain * level;
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t r = first + l;
    if (edge_bits_dirty_[r]) rebuild_edge_bits(r);
    step.psi[l] = shil_phase_.data() + r * n_;
  }
  // The kernel draws the noise chunk by chunk from the lanes' own streams;
  // zero noise draws nothing.
  std::uint64_t state[4 * detail::kMaxLanes] = {};
  const bool noisy = noise_scale > 0.0;
  if (noisy) {
    detail::pack_states({rngs, lanes}, state);
    step.rng_state = state;
    step.zc = zc_.data();
    step.zs = zs_.data();
  }
  (lanes == 1 ? detail::simd(1) : *simd_).euler_step(step);
  if (noisy) detail::unpack_states(state, {rngs, lanes});
}

void PhaseBatch::pack_lanes() {
  for (std::size_t r = 0; r < groups_ * lanes_; ++r) {
    const double* theta = theta_.data() + r * n_;
    const Slice at = slice(r, n_);
    for (std::size_t i = 0; i < n_; ++i) lanes_theta_[at.at(i)] = theta[i];
  }
}

void PhaseBatch::unpack_lanes() {
  for (std::size_t r = 0; r < groups_ * lanes_; ++r) {
    double* theta = theta_.data() + r * n_;
    const Slice at = slice(r, n_);
    for (std::size_t i = 0; i < n_; ++i) theta[i] = lanes_theta_[at.at(i)];
  }
}

bool PhaseBatch::run(double duration, std::span<util::Rng> rngs,
                     const GainRamp* shil_ramp,
                     const util::StopToken* stop) {
  if (duration <= 0.0) return true;
  if (rngs.size() != r_) {
    throw std::invalid_argument("PhaseBatch::run: one Rng per replica");
  }
  const double dt = params_.dt;
  // ceil with a relative guard so that duration = k*dt yields exactly k steps
  // despite the quotient landing epsilon above the integer.
  auto steps = static_cast<std::size_t>(std::ceil(duration / dt - 1e-9));
  if (steps == 0) steps = 1;

  // Units of work: the lane groups, then the single-lane rest.
  const std::size_t grouped = groups_ * lanes_;
  const std::size_t units = groups_ + (r_ - grouped);

  // Window span + throughput heartbeat: write-only observability, gated so a
  // disabled build/run never touches a clock.
  const std::uint32_t obs_gate = obs::gate();
  obs::Span span("phase.batch_step",
                 obs_gate != 0 ? pmetrics().t_batch_step : obs::kNoMetric);
  std::chrono::steady_clock::time_point obs_t0;
  if (obs_gate != 0) {
    span.arg("replicas", static_cast<std::uint64_t>(r_));
    span.arg("steps", static_cast<std::uint64_t>(steps));
    span.arg("oscillators", static_cast<std::uint64_t>(n_));
    span.arg("lanes", static_cast<std::uint64_t>(lanes_));
    span.arg("lane_groups", static_cast<std::uint64_t>(groups_));
    obs_t0 = std::chrono::steady_clock::now();
  }

  const double noise_scale = params_.noise_stddev * std::sqrt(dt);
  // Unit-major: a group's (or single's) whole window runs back-to-back,
  // keeping its state and edge bits cache-hot across steps. A lane only
  // ever touches its replica's state and rngs[r], so a unit's trajectory
  // does not depend on the others (pinned by phase_batch_test's batch-of-R
  // against batch-of-1 runs).
  bool interrupted = false;
  if (groups_ > 0) pack_lanes();
  for (std::size_t u = 0; u < units && !interrupted; ++u) {
    const std::size_t first = u < groups_ ? u * lanes_ : grouped + (u - groups_);
    const std::size_t lanes = u < groups_ ? lanes_ : 1;
    double* x = u < groups_ ? lanes_theta_.data() + u * n_ * lanes_
                            : theta_.data() + first * n_;
    for (std::size_t s = 0; s < steps; ++s) {
      // Stop poll, every 32 steps so the gate cost is off the step path.
      // With no token this is a counter test + a predictable branch per 32
      // steps — trajectories stay bit-identical.
      if ((s & 31u) == 0 && stop != nullptr && stop->stop_requested()) {
        interrupted = true;
        break;
      }
      double level = shil_level_;
      if (shil_ramp != nullptr) {
        const double frac = static_cast<double>(s) / static_cast<double>(steps);
        level = std::clamp(level * shil_ramp->value(frac), 0.0, 1.0);
      }
      euler_step_lanes(first, lanes, x, rngs.data() + first, noise_scale,
                       level);
    }
  }
  if (groups_ > 0) unpack_lanes();

  if (obs_gate != 0) {
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - obs_t0)
            .count();
    const auto replica_steps = static_cast<std::uint64_t>(steps) * r_;
    obs::add(pmetrics().c_steps, steps);
    obs::add(pmetrics().c_replica_steps, replica_steps);
    if (elapsed_s > 0.0) {
      const double rate = static_cast<double>(replica_steps) / elapsed_s;
      obs::set_gauge(pmetrics().g_hb_rate, rate);
      obs::set_gauge(pmetrics().g_hb_replicas, static_cast<double>(r_));
      obs::trace_counter("phase.hb.replica_steps_per_sec", rate);
    }
  }
  return !interrupted;
}

double PhaseBatch::coupling_energy(std::size_t r) const {
  check_replica(r);
  // One sincos pass per node, then cos(theta_u - theta_v) via the angle-
  // addition identity -- no per-edge std::cos (mirrors the step's gather).
  const double* theta = theta_.data() + r * n_;
  refresh_trig(theta);
  const std::uint8_t* group = group_.data() + r * n_;
  double e = 0.0;
  for (const graph::Edge& edge : graph_->edges()) {
    const auto u = edge.u;
    const auto v = edge.v;
    if (group[u] != group[v]) continue;
    e -= kJ * (cos_[u] * cos_[v] + sin_[u] * sin_[v]);
  }
  return e;
}

double PhaseBatch::shil_energy(std::size_t r) const {
  check_replica(r);
  if (!shil_active_) return 0.0;
  const double ks = params_.shil_gain * shil_level_;
  const double order = static_cast<double>(params_.shil_order);
  const double* theta = theta_.data() + r * n_;
  const Slice node = slice(r, n_);
  double e = 0.0;
  if (params_.shil_order == 2) {
    // cos(2(theta - psi)) = cos(2 theta) cos(2 psi) + sin(2 theta) sin(2 psi)
    // from the shared per-node sincos pass (see coupling_energy).
    refresh_trig(theta);
    for (std::size_t i = 0; i < n_; ++i) {
      const double s2 = 2.0 * sin_[i] * cos_[i];
      const double c2 = cos_[i] * cos_[i] - sin_[i] * sin_[i];
      e -= ks / order * (c2 * shil_cos_[node.at(i)] + s2 * shil_sin_[node.at(i)]);
    }
  } else {
    const double* psi = shil_phase_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      e -= ks / order * std::cos(order * (theta[i] - psi[i]));
    }
  }
  return e;
}

}  // namespace msropm::phase
