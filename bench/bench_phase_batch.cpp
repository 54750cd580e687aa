// Paired A/B throughput bench for the batched SoA phase engine.
//
// Three engines step the same 40-replica workload on ablation-sized King's
// fabrics (20x20 / 32x32 / 46x46) across the machine's stage regimes
// (anneal: couplings only + noise; lock: couplings + SHIL, with and without
// noise):
//
//   legacy  -- the pre-refactor PhaseNetwork inner loops (edge-scatter
//              derivative, per-edge mask branch, separate per-node
//              sin/cos/SHIL-sin calls), embedded below verbatim so the
//              baseline cannot silently drift as the live engine evolves.
//   batch1  -- 40 independent PhaseBatch(R=1) instances, each driven
//              through run(): how a single trajectory runs today.
//   batch40 -- one PhaseBatch(R=40) driven through run(), i.e. the
//              lane-group path used by solve_batch: 5 groups of 8 lanes on
//              an AVX-512 host, 10 of 4 with AVX2.
//
// Hard gates (exit 1 on violation, so CI tracks the property):
//   1. batch-of-1 is never slower than the legacy engine on any row
//      (small tolerance for timer jitter).
//   2. batch-of-40 reaches >= 2x legacy serial throughput on at least one
//      ablation-sized fabric.
//   3. noise overhead, the batch-of-40 lock window's time with noise over
//      its time without, is at most 1.75x on every fabric (the aim is
//      1.3x): the per-step noise is one bulk Box-Muller pass, not a scalar
//      normal() per oscillator. Emitted as `noise_overhead` on each
//      lock_noiseless row.
//   4. batch-of-40 reaches >= 2x the replica throughput of batch-of-1 on at
//      least one 46x46 row: batch width pays through the SIMD lane groups.
//      Emitted as `batch40_over_batch1` (batch1_ms / batch40_ms) on every
//      row; the lane width is `lanes` in meta.
//
// On a host that runs width 4 or more, the 46x46 rows are repeated at a
// forced width of 4 (`kings_46x46/anneal@w4`, ...; no legacy column), so the
// AVX2 lane kernel has committed numbers even where AVX-512 is native. They
// are diffed by scripts/bench_diff.py like every row; the gates above do not
// read them.
//
// Results land in bench_results/bench_phase_batch.json via BenchJsonWriter.
//
// Usage: bench_phase_batch [--csv]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/phase/batch.hpp"
#include "../src/phase/trig.hpp"
#include "msropm/util/bench_json.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/table.hpp"

namespace {

using namespace msropm;

// ---------------------------------------------------------------------------
// The pre-refactor engine, frozen. Inner loops (refresh_trig / derivative /
// step) are copied verbatim from src/phase/network.cpp as it stood before
// the PhaseBatch rewrite: edge-scatter coupling with a per-edge mask branch
// and separate std::sin/std::cos calls per node per step.
// ---------------------------------------------------------------------------
class LegacyNetwork {
 public:
  LegacyNetwork(const graph::Graph& g, phase::NetworkParams params)
      : graph_(&g),
        params_(params),
        theta_(g.num_nodes(), 0.0),
        j_(g.num_edges(), -1.0),
        edge_mask_(g.num_edges(), 1),
        shil_enable_(g.num_nodes(), 1),
        shil_phase_(g.num_nodes(), 0.0),
        detune_(g.num_nodes(), 0.0),
        sin_(g.num_nodes(), 0.0),
        cos_(g.num_nodes(), 0.0) {}

  void randomize_phases(util::Rng& rng) {
    for (double& t : theta_) t = rng.uniform_phase();
  }
  void set_couplings_active(bool b) noexcept { couplings_active_ = b; }
  void set_shil_active(bool b) noexcept { shil_active_ = b; }

  void refresh_trig(const std::vector<double>& theta) const {
    const std::size_t n = theta.size();
    for (std::size_t i = 0; i < n; ++i) {
      sin_[i] = std::sin(theta[i]);
      cos_[i] = std::cos(theta[i]);
    }
  }

  void derivative(const std::vector<double>& theta,
                  std::vector<double>& dtheta) const {
    const std::size_t n = theta.size();
    dtheta.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) dtheta[i] = detune_[i];

    if (couplings_active_) {
      refresh_trig(theta);
      const auto edges = graph_->edges();
      const double kc = params_.coupling_gain;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (!edge_mask_[e]) continue;
        const auto u = edges[e].u;
        const auto v = edges[e].v;
        const double s = sin_[u] * cos_[v] - cos_[u] * sin_[v];
        const double w = kc * j_[e] * s;
        dtheta[u] -= w;
        dtheta[v] += w;
      }
    }

    if (shil_active_ && shil_level_ > 0.0) {
      const double ks = params_.shil_gain * shil_level_;
      const double order = static_cast<double>(params_.shil_order);
      for (std::size_t i = 0; i < n; ++i) {
        if (!shil_enable_[i]) continue;
        dtheta[i] -= ks * std::sin(order * (theta[i] - shil_phase_[i]));
      }
    }
  }

  void step(util::Rng& rng) {
    const double dt = params_.dt;
    derivative(theta_, k1_);
    const double noise_scale = params_.noise_stddev * std::sqrt(dt);
    for (std::size_t i = 0; i < theta_.size(); ++i) {
      theta_[i] += k1_[i] * dt;
      if (noise_scale > 0.0) theta_[i] += noise_scale * rng.normal();
    }
  }

  const std::vector<double>& phases() const noexcept { return theta_; }

 private:
  const graph::Graph* graph_;
  phase::NetworkParams params_;
  std::vector<double> theta_, j_;
  std::vector<std::uint8_t> edge_mask_, shil_enable_;
  std::vector<double> shil_phase_, detune_;
  bool couplings_active_ = true;
  bool shil_active_ = false;
  double shil_level_ = 1.0;
  mutable std::vector<double> sin_, cos_, k1_;
};

// ---------------------------------------------------------------------------

constexpr std::size_t kReplicas = 40;

struct Workload {
  std::size_t side;
  const char* regime;  // "anneal" | "lock" | "lock_noiseless"
  double noise;
  bool shil;
  int steps;
};

phase::NetworkParams tuned_params(double noise) {
  phase::NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = noise;
  p.dt = 2.0e-11;
  return p;
}

double seconds(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measurement {
  double legacy_s = 0.0;
  double batch1_s = 0.0;
  double batch40_s = 0.0;
  // Keeps the optimizer honest: every engine's final phases fold into this.
  double checksum = 0.0;
};

Measurement measure(const graph::Graph& g, const Workload& w, int reps,
                    bool legacy = true) {
  const phase::NetworkParams p = tuned_params(w.noise);
  Measurement best;
  best.legacy_s = best.batch1_s = best.batch40_s = 1e100;

  for (int rep = 0; rep < reps; ++rep) {
    // Legacy: 40 serial networks, stepped replica-major like the old runner.
    if (legacy) {
      std::vector<LegacyNetwork> nets;
      std::vector<util::Rng> rngs;
      nets.reserve(kReplicas);
      for (std::size_t r = 0; r < kReplicas; ++r) {
        nets.emplace_back(g, p);
        rngs.emplace_back(r + 1);
        nets[r].randomize_phases(rngs[r]);
        nets[r].set_couplings_active(true);
        nets[r].set_shil_active(w.shil);
      }
      best.legacy_s = std::min(best.legacy_s, seconds([&] {
        for (std::size_t r = 0; r < kReplicas; ++r) {
          for (int s = 0; s < w.steps; ++s) nets[r].step(rngs[r]);
        }
      }));
      for (const auto& net : nets) best.checksum += net.phases().front();
    }
    // Batch-of-1 x 40: the facade configuration.
    {
      std::vector<phase::PhaseBatch> nets;
      std::vector<util::Rng> rngs;
      nets.reserve(kReplicas);
      for (std::size_t r = 0; r < kReplicas; ++r) {
        nets.emplace_back(g, p, 1);
        rngs.emplace_back(r + 1);
        nets[r].randomize_phases(0, rngs[r]);
        nets[r].set_couplings_active(true);
        nets[r].set_shil_active(w.shil);
      }
      const double duration = static_cast<double>(w.steps) * p.dt;
      best.batch1_s = std::min(best.batch1_s, seconds([&] {
        for (std::size_t r = 0; r < kReplicas; ++r) {
          nets[r].run(duration, {&rngs[r], 1});
        }
      }));
      for (const auto& net : nets) best.checksum += net.phases(0).front();
    }
    // Batch-of-40 through run(): the lane-group solve_batch path.
    {
      phase::PhaseBatch batch(g, p, kReplicas);
      batch.set_couplings_active(true);
      batch.set_shil_active(w.shil);
      std::vector<util::Rng> rngs;
      for (std::size_t r = 0; r < kReplicas; ++r) {
        rngs.emplace_back(r + 1);
        batch.randomize_phases(r, rngs[r]);
      }
      best.batch40_s = std::min(best.batch40_s, seconds([&] {
        batch.run(static_cast<double>(w.steps) * p.dt, rngs);
      }));
      best.checksum += batch.phases(0).front();
    }
  }
  return best;
}

// batch40 time of the lock regime with noise over without. Its own paired
// A/B: the two windows alternate back to back, so each pair sees the same
// host load, and the median ratio drops the pairs a load burst split.
double noise_overhead(const graph::Graph& g, int steps) {
  constexpr int kPairs = 9;
  const auto lock_batch = [&](double noise, std::vector<util::Rng>& rngs) {
    phase::PhaseBatch batch(g, tuned_params(noise), kReplicas);
    batch.set_couplings_active(true);
    batch.set_shil_active(true);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      rngs.emplace_back(r + 1);
      batch.randomize_phases(r, rngs[r]);
    }
    return batch;
  };
  std::vector<util::Rng> noisy_rngs, quiet_rngs;
  phase::PhaseBatch noisy = lock_batch(2.0e3, noisy_rngs);
  phase::PhaseBatch quiet = lock_batch(0.0, quiet_rngs);
  const double duration = static_cast<double>(steps) * tuned_params(0.0).dt;
  std::vector<double> ratios;
  for (int k = 0; k < kPairs; ++k) {
    const double a = seconds([&] { noisy.run(duration, noisy_rngs); });
    const double b = seconds([&] { quiet.run(duration, quiet_rngs); });
    ratios.push_back(a / b);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[kPairs / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;

  const std::vector<Workload> workloads = {
      {20, "anneal", 2.0e3, false, 250},         {20, "lock", 2.0e3, true, 250},
      {20, "lock_noiseless", 0.0, true, 250},    {32, "anneal", 2.0e3, false, 160},
      {32, "lock", 2.0e3, true, 160},            {32, "lock_noiseless", 0.0, true, 160},
      {46, "anneal", 2.0e3, false, 120},         {46, "lock", 2.0e3, true, 120},
      {46, "lock_noiseless", 0.0, true, 120},
  };
  constexpr int kReps = 3;
  // Timer-jitter allowance for gate 1; the measured margin is far larger.
  constexpr double kSlowdownTolerance = 1.05;
  constexpr double kBatchSpeedupGate = 2.0;
  constexpr double kNoiseOverheadGate = 1.75;
  constexpr double kLaneGainGate = 2.0;

  util::TextTable table({"fabric", "regime", "steps", "legacy_ms", "batch1_ms",
                         "batch40_ms", "b1_speedup", "b40_speedup",
                         "b40_over_b1", "b40_rsteps_per_s"});
  util::BenchJsonWriter json("bench_phase_batch");
  json.meta("replicas", static_cast<double>(kReplicas));
  json.meta("lanes", static_cast<double>(phase::detail::simd_width()));
  json.meta("gate",
            "batch1 >= legacy on every row (1.05 jitter tolerance); "
            "batch40 >= 2x legacy on at least one fabric; "
            "noise_overhead <= 1.75x on every fabric; "
            "batch40_over_batch1 >= 2x on at least one 46x46 row");

  bool batch1_ok = true;
  double best_b40_speedup = 0.0;
  std::string best_b40_row;
  std::string noise_report;
  bool noise_ok = true;
  double best_lane_gain = 0.0;
  double sink = 0.0;

  for (const Workload& w : workloads) {
    const auto g = graph::kings_graph_square(w.side);
    const Measurement m = measure(g, w, kReps);
    sink += m.checksum;

    const std::string fabric =
        "kings_" + std::to_string(w.side) + "x" + std::to_string(w.side);
    const double b1_speedup = m.legacy_s / m.batch1_s;
    const double b40_speedup = m.legacy_s / m.batch40_s;
    const double b40_over_b1 = m.batch1_s / m.batch40_s;
    if (w.side == 46) best_lane_gain = std::max(best_lane_gain, b40_over_b1);
    const double rsteps = static_cast<double>(kReplicas) *
                          static_cast<double>(w.steps) / m.batch40_s;

    if (m.batch1_s > m.legacy_s * kSlowdownTolerance) batch1_ok = false;
    if (b40_speedup > best_b40_speedup) {
      best_b40_speedup = b40_speedup;
      best_b40_row = fabric + "/" + w.regime;
    }

    table.add_row({fabric, w.regime, std::to_string(w.steps),
                   util::format_double(m.legacy_s * 1e3),
                   util::format_double(m.batch1_s * 1e3),
                   util::format_double(m.batch40_s * 1e3),
                   util::format_double(b1_speedup, 2),
                   util::format_double(b40_speedup, 2),
                   util::format_double(b40_over_b1, 2),
                   util::format_sci(rsteps)});

    json.begin_row(fabric + "/" + w.regime);
    json.metric("side", static_cast<std::uint64_t>(w.side));
    json.metric("nodes", static_cast<std::uint64_t>(g.num_nodes()));
    json.metric("edges", static_cast<std::uint64_t>(g.num_edges()));
    json.metric("regime", w.regime);
    json.metric("noise_stddev", w.noise);
    json.metric("steps", static_cast<std::uint64_t>(w.steps));
    json.metric("legacy_ms", m.legacy_s * 1e3);
    json.metric("batch1_ms", m.batch1_s * 1e3);
    json.metric("batch40_ms", m.batch40_s * 1e3);
    json.metric("batch1_speedup", b1_speedup);
    json.metric("batch40_speedup", b40_speedup);
    json.metric("batch40_over_batch1", b40_over_b1);
    json.metric("batch40_replica_steps_per_sec", rsteps);
    if (std::strcmp(w.regime, "lock_noiseless") == 0) {
      const double overhead = noise_overhead(g, w.steps);
      json.metric("noise_overhead", overhead);
      if (overhead > kNoiseOverheadGate) noise_ok = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, " %s %.2fx", fabric.c_str(), overhead);
      noise_report += buf;
    }
  }

  if (phase::detail::simd_width() >= 4) {
    const phase::detail::ScopedSimdWidth width4(4);
    for (const Workload& w : workloads) {
      if (w.side != 46) continue;
      const auto g = graph::kings_graph_square(w.side);
      const Measurement m = measure(g, w, kReps, /*legacy=*/false);
      sink += m.checksum;
      const std::string regime = std::string(w.regime) + "@w4";
      const double rsteps = static_cast<double>(kReplicas) *
                            static_cast<double>(w.steps) / m.batch40_s;
      table.add_row({"kings_46x46", regime, std::to_string(w.steps), "-",
                     util::format_double(m.batch1_s * 1e3),
                     util::format_double(m.batch40_s * 1e3), "-", "-",
                     util::format_double(m.batch1_s / m.batch40_s, 2),
                     util::format_sci(rsteps)});
      json.begin_row("kings_46x46/" + regime);
      json.metric("side", static_cast<std::uint64_t>(w.side));
      json.metric("lanes", static_cast<std::uint64_t>(4));
      json.metric("regime", w.regime);
      json.metric("steps", static_cast<std::uint64_t>(w.steps));
      json.metric("batch1_ms", m.batch1_s * 1e3);
      json.metric("batch40_ms", m.batch40_s * 1e3);
      json.metric("batch40_over_batch1", m.batch1_s / m.batch40_s);
      json.metric("batch40_replica_steps_per_sec", rsteps);
    }
  }
  json.meta("best_batch40_speedup", best_b40_speedup);
  json.meta("best_batch40_row", best_b40_row);
  json.meta("best_46x46_batch40_over_batch1", best_lane_gain);

  std::printf("%s\n", csv ? table.render_csv().c_str()
                          : table.render().c_str());
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  if (sink == 12345.6789) std::printf("\n");  // defeat dead-code elimination

  bool failed = false;
  if (!batch1_ok) {
    std::fprintf(stderr,
                 "FAIL: batch-of-1 slower than the pre-refactor engine on at "
                 "least one row\n");
    failed = true;
  }
  if (best_b40_speedup < kBatchSpeedupGate) {
    std::fprintf(stderr,
                 "FAIL: best batch-of-40 speedup %.2fx (%s) below the %.1fx "
                 "gate\n",
                 best_b40_speedup, best_b40_row.c_str(), kBatchSpeedupGate);
    failed = true;
  }
  if (!noise_ok) {
    std::fprintf(stderr, "FAIL: noise overhead above %.2fx:%s\n",
                 kNoiseOverheadGate, noise_report.c_str());
    failed = true;
  }
  if (best_lane_gain < kLaneGainGate) {
    std::fprintf(stderr,
                 "FAIL: best 46x46 batch-of-40 over batch-of-1 throughput "
                 "%.2fx below the %.1fx gate\n",
                 best_lane_gain, kLaneGainGate);
    failed = true;
  }
  if (failed) return 1;
  std::printf("gates passed: batch1 never slower; batch40 %.2fx on %s; "
              "noise overhead%s; batch40 over batch1 %.2fx on 46x46\n",
              best_b40_speedup, best_b40_row.c_str(), noise_report.c_str(),
              best_lane_gain);
  return 0;
}
