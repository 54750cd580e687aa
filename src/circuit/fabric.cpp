#include "msropm/circuit/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msropm::circuit {

namespace {

/// Locked phase (vs the uncorrected REF) of a single free oscillator under
/// SHIL 1, folded modulo pi. This is the systematic lobe offset phi0 the
/// REF edges must be shifted by so locked phases read {0, pi}.
double measure_shil_lock_offset_fraction(const FabricParams& params) {
  const graph::Graph g(1);
  RoscFabric fabric(g, params);
  fabric.run(6e-9);
  fabric.set_shil_enabled(true);
  fabric.run(25e-9);
  const double two_pi = 2.0 * 3.14159265358979323846;
  double frac = fabric.phase(0) / two_pi;  // in [0, 1)
  frac = std::fmod(frac, 0.5);             // lobes are pi apart
  if (frac < 0.0) frac += 0.5;
  return frac;
}

}  // namespace

double measure_ring_frequency(const InverterParams& p, unsigned stages,
                              double dt, double duration) {
  const graph::Graph g(1);
  FabricParams params;
  params.stages = stages;
  params.inverter = p;
  params.dt = dt;
  RoscFabric ring(g, params);  // couplings and SHIL start off
  // Warm up past the startup transient, then average the period over every
  // rising edge in the measurement window.
  const auto warmup_steps = static_cast<std::size_t>(0.25 * duration / dt);
  for (std::size_t s = 0; s < warmup_steps; ++s) ring.step();
  const auto steps = static_cast<std::size_t>(0.75 * duration / dt);
  const double mid = 0.5 * p.vdd;
  double t = 0.0;
  double prev = ring.output(0);
  double first_cross = -1.0;
  double last_cross = -1.0;
  std::size_t crossings = 0;
  for (std::size_t s = 0; s < steps; ++s) {
    ring.step();
    t += dt;
    const double cur = ring.output(0);
    if (prev < mid && cur >= mid) {
      const double tc = t - dt + dt * (mid - prev) / (cur - prev);
      if (first_cross < 0.0) first_cross = tc;
      last_cross = tc;
      ++crossings;
    }
    prev = cur;
  }
  if (crossings < 2) return 0.0;
  return static_cast<double>(crossings - 1) / (last_cross - first_cross);
}

InverterParams calibrate_for_frequency_simulated(double f_target_hz,
                                                 unsigned stages,
                                                 InverterParams base,
                                                 double dt) {
  InverterParams p = base;
  // Frequency scales almost exactly as 1/tau, so fixed-point iteration on
  // tau *= f/f_target converges in 2-3 rounds.
  for (int iter = 0; iter < 4; ++iter) {
    const double f = measure_ring_frequency(p, stages, dt);
    if (f <= 0.0) break;
    const double ratio = f / f_target_hz;
    if (std::abs(ratio - 1.0) < 1e-4) break;
    p.tau *= ratio;
  }
  return p;
}

FabricParams FabricParams::paper_defaults() {
  static const FabricParams cached = [] {
    FabricParams p;
    // Analytic seed, then simulate-calibrate tau so the ring free-runs at
    // exactly f_SHIL / 2 = 1.3 GHz (zero detuning; Sec. 3.3).
    p.inverter = calibrate_for_frequency(1.3e9, p.stages);
    p.inverter = calibrate_for_frequency_simulated(1.3e9, p.stages, p.inverter, p.dt);
    // Place the REF edge on the SHIL-1 lock lobe (Sec. 3.3 readout).
    p.reference_offset_s =
        measure_shil_lock_offset_fraction(p) * p.reference_period_s;
    return p;
  }();
  return cached;
}

RoscFabric::RoscFabric(const graph::Graph& g, FabricParams params)
    : graph_(&g),
      params_(params),
      v_(g.num_nodes() * params.stages, 0.0),
      edge_enable_(g.num_edges(), 1),
      shil_sel_(g.num_nodes(), 0),
      startup_delay_(g.num_nodes(), 0.0),
      detectors_(g.num_nodes(), EdgePhaseDetector(params.inverter.vdd * 0.5)) {
  if (params_.stages < 3 || params_.stages % 2 == 0) {
    throw std::invalid_argument("RoscFabric: stages must be odd and >= 3");
  }
  if (params_.dt <= 0.0) throw std::invalid_argument("RoscFabric: dt > 0");
  // Alternating-rail start so rings oscillate deterministically by default.
  for (std::size_t o = 0; o < g.num_nodes(); ++o) {
    for (std::size_t s = 0; s < params_.stages; ++s) {
      v_[index(o, s)] = (s % 2 == 0) ? params_.inverter.vdd : 0.0;
    }
  }
}

double RoscFabric::voltage(std::size_t osc, std::size_t stage) const {
  if (osc >= num_oscillators() || stage >= params_.stages) {
    throw std::out_of_range("RoscFabric::voltage");
  }
  return v_[index(osc, stage)];
}

double RoscFabric::output(std::size_t osc) const {
  if (osc >= num_oscillators()) throw std::out_of_range("RoscFabric::output");
  return v_[index(osc, kOutputTap)];
}

void RoscFabric::randomize(util::Rng& rng) {
  for (double& vi : v_) vi = rng.uniform(0.0, params_.inverter.vdd);
}

void RoscFabric::stagger_startup(util::Rng& rng, double max_delay_s) {
  for (std::size_t o = 0; o < num_oscillators(); ++o) {
    startup_delay_[o] = time_ + rng.uniform(0.0, max_delay_s);
    // Park at the reset pattern; the staggered release instants (mod the
    // oscillation period) are what randomize the phases, per the paper's
    // "turned on at random time instances" initialization (Sec. 4).
    for (std::size_t s = 0; s < params_.stages; ++s) {
      v_[index(o, s)] = (s % 2 == 0) ? params_.inverter.vdd : 0.0;
    }
  }
}

void RoscFabric::set_edge_enable(std::vector<std::uint8_t> mask) {
  if (mask.size() != edge_enable_.size()) {
    throw std::invalid_argument("RoscFabric::set_edge_enable: size mismatch");
  }
  edge_enable_ = std::move(mask);
}

void RoscFabric::set_shil_select(std::vector<std::uint8_t> sel) {
  if (sel.size() != shil_sel_.size()) {
    throw std::invalid_argument("RoscFabric::set_shil_select: size mismatch");
  }
  shil_sel_ = std::move(sel);
}

void RoscFabric::set_shil_select_uniform(std::uint8_t sel) {
  std::fill(shil_sel_.begin(), shil_sel_.end(), sel);
}

double RoscFabric::shil_wave(std::size_t osc, double t) const noexcept {
  // Square wave at 2*f0, 50% duty. SHIL 2 is delayed by half the SHIL
  // period (i.e. a quarter of the oscillator period), shifting the lock set
  // from {0, 180} deg to {90, 270} deg.
  const double period = 1.0 / params_.shil_frequency_hz;
  const double delay = shil_sel_[osc] ? 0.5 * period : 0.0;
  double frac = std::fmod((t - delay), period) / period;
  if (frac < 0.0) frac += 1.0;
  return frac < 0.5 ? 1.0 : 0.0;
}

void RoscFabric::derivative(const std::vector<double>& v, double t,
                            std::vector<double>& dvdt) const {
  const std::size_t n_osc = num_oscillators();
  const unsigned stages = params_.stages;
  const InverterParams& inv = params_.inverter;
  dvdt.assign(v.size(), 0.0);

  for (std::size_t o = 0; o < n_osc; ++o) {
    const bool on = t >= startup_delay_[o];
    for (std::size_t s = 0; s < stages; ++s) {
      const std::size_t i = index(o, s);
      if (on) {
        const std::size_t prev = index(o, (s + stages - 1) % stages);
        dvdt[i] = inverter_dvdt(v[prev], v[i], inv);
      } else {
        // Ring not yet released by stagger_startup(): enable gating parks the
        // loop at the alternating rail pattern (as a real gated ring does).
        // Releasing from this asymmetric state restarts oscillation
        // immediately; releasing from the all-equal state would leave the
        // ring on its symmetric invariant manifold, dead at the VTC fixed
        // point.
        const double target = (s % 2 == 0) ? inv.vdd : 0.0;
        dvdt[i] = (target - v[i]) / (4.0 * inv.tau);
      }
    }
  }

  if (couplings_enabled_) {
    // B2B inverters between output taps: each side weakly drives the other
    // with the inverted image of its partner (anti-phase coupling).
    const double g = params_.coupling_strength;
    const auto edges = graph_->edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!edge_enable_[e]) continue;
      const std::size_t iu = index(edges[e].u, kOutputTap);
      const std::size_t iv = index(edges[e].v, kOutputTap);
      dvdt[iu] += g * (inverter_vtc(v[iv], inv) - v[iu]) / inv.tau;
      dvdt[iv] += g * (inverter_vtc(v[iu], inv) - v[iv]) / inv.tau;
    }
  }

  if (shil_enabled_) {
    // PMOS injector: pulls the output tap toward VDD while the gating 2f
    // square wave is active.
    const double gs = params_.shil_strength;
    for (std::size_t o = 0; o < n_osc; ++o) {
      const std::size_t i = index(o, kOutputTap);
      const double wave = shil_wave(o, t);
      if (wave > 0.0) dvdt[i] += gs * wave * (inv.vdd - v[i]) / inv.tau;
    }
  }
}

void RoscFabric::step() {
  const double dt = params_.dt;
  const std::size_t n = v_.size();
  derivative(v_, time_, k1_);
  tmp_.resize(n);
  for (std::size_t i = 0; i < n; ++i) tmp_[i] = v_[i] + 0.5 * dt * k1_[i];
  derivative(tmp_, time_ + 0.5 * dt, k2_);
  for (std::size_t i = 0; i < n; ++i) tmp_[i] = v_[i] + 0.5 * dt * k2_[i];
  derivative(tmp_, time_ + 0.5 * dt, k3_);
  for (std::size_t i = 0; i < n; ++i) tmp_[i] = v_[i] + dt * k3_[i];
  derivative(tmp_, time_ + dt, k4_);
  for (std::size_t i = 0; i < n; ++i) {
    v_[i] += dt / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
  }
  time_ += dt;
  for (std::size_t o = 0; o < num_oscillators(); ++o) {
    detectors_[o].observe(time_, output(o));
  }
}

void RoscFabric::run(double duration,
                     const std::function<void(const RoscFabric&)>& observer) {
  if (duration <= 0.0) return;
  // ceil with a relative guard so duration = k*dt yields exactly k steps.
  auto steps = static_cast<std::size_t>(std::ceil(duration / params_.dt - 1e-9));
  if (steps == 0) steps = 1;
  for (std::size_t s = 0; s < steps; ++s) {
    step();
    if (observer) observer(*this);
  }
}

const EdgePhaseDetector& RoscFabric::detector(std::size_t osc) const {
  if (osc >= num_oscillators()) throw std::out_of_range("RoscFabric::detector");
  return detectors_[osc];
}

double RoscFabric::measured_frequency(std::size_t osc) const {
  return detector(osc).frequency();
}

double RoscFabric::phase(std::size_t osc) const {
  const double two_pi = 2.0 * 3.14159265358979323846;
  double ph = detector(osc).phase_vs_reference(time_, params_.reference_period_s) -
              two_pi * params_.reference_offset_fraction();
  ph = std::fmod(ph, two_pi);
  if (ph < 0.0) ph += two_pi;
  return ph;
}

std::vector<double> RoscFabric::phases() const {
  std::vector<double> out(num_oscillators());
  for (std::size_t o = 0; o < num_oscillators(); ++o) out[o] = phase(o);
  return out;
}

}  // namespace msropm::circuit
