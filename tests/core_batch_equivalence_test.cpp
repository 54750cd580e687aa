// THE batched-solve equivalence gate: a MultiStagePottsMachine::solve_batch
// of R replicas must be bit-identical to R runs of an independent
// single-network implementation (reference_solve below) consuming the same
// per-replica RNG streams -- final colorings, per-stage bits/cuts/residuals,
// AND the full phase vectors at every stage boundary. Exercised across R in
// {1, 3, 40}, at the SIMD lane-group boundaries R in {7, 8, 9, 16, 17} and
// at every dispatched width, with and without jitter/mismatch, and at K = 8
// (three stages, so the SHIL_SEL register accumulates two bits).
// Also gates core::run_iterations: summaries are invariant to batch_size and
// thread count, and the stop token truncates to a clean completed prefix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../src/phase/trig.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/phase/lock.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace {

using namespace msropm;
using core::MsropmConfig;
using core::MsropmResult;
using core::MultiStagePottsMachine;
using core::StageOutcome;

MsropmConfig machine_config(double noise, double mismatch_hz,
                            unsigned num_colors = 4) {
  MsropmConfig config;
  config.num_colors = num_colors;
  config.schedule = core::StageSchedule::paper_default();
  config.network.coupling_gain = 8.0e8;
  config.network.shil_gain = 1.6e9;
  config.network.shil_order = 2;
  config.network.noise_stddev = noise;
  config.network.frequency_mismatch_stddev_hz = mismatch_hz;
  config.network.dt = 2.0e-11;
  config.shil_ramp = phase::GainRamp{0.0, 0.5};
  return config;
}

// --- Frozen per-bit SHIL plan ----------------------------------------------
// Kept verbatim, so the reference shares no code with the machine's SHIL_SEL
// register.

using StageBits = std::vector<std::uint8_t>;

double shil_phase_for_bits(const StageBits& bits) {
  double psi = 0.0;
  double weight = 0.5;
  for (std::uint8_t b : bits) {
    if (b > 1) throw std::invalid_argument("shil_phase_for_bits: bit > 1");
    psi += static_cast<double>(b) * weight;
    weight *= 0.5;
  }
  return std::numbers::pi * psi;
}

double final_phase_from_bits(const StageBits& bits) {
  if (bits.empty()) throw std::invalid_argument("final_phase_from_bits: no bits");
  StageBits prefix(bits.begin(), bits.end() - 1);
  return shil_phase_for_bits(prefix) +
         std::numbers::pi * static_cast<double>(bits.back());
}

std::uint8_t color_from_bits(const StageBits& bits) {
  const auto m = static_cast<unsigned>(bits.size());
  if (m == 0 || m > 7) throw std::invalid_argument("color_from_bits: 1..7 stages");
  const unsigned k = 1u << m;
  const double slot = 2.0 * std::numbers::pi / static_cast<double>(k);
  const double theta = final_phase_from_bits(bits);
  auto idx = static_cast<long>(std::lround(theta / slot));
  idx %= static_cast<long>(k);
  if (idx < 0) idx += static_cast<long>(k);
  return static_cast<std::uint8_t>(idx);
}

/// P_EN group labels for the reference's register files: oscillators share a
/// label iff their accumulated bits are equal, labels numbered by first
/// appearance (not by register value). Throws unless the labels imply
/// exactly `edge_mask`, i.e. coupled iff the endpoints share a label.
std::vector<std::uint8_t> groups_for_mask(
    const graph::Graph& g, const std::vector<StageBits>& bits,
    const std::vector<std::uint8_t>& edge_mask) {
  // Keyed by the bits as a string: a std::vector<std::uint8_t> key makes
  // GCC 12 print a false -Wstringop-overread for the map's comparison.
  std::map<std::string, std::uint8_t> label_of;
  std::vector<std::uint8_t> groups(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const auto next = static_cast<std::uint8_t>(label_of.size());
    const std::string key(bits[i].begin(), bits[i].end());
    groups[i] = label_of.emplace(key, next).first->second;
  }
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const bool same = groups[edges[e].u] == groups[edges[e].v];
    if (same != (edge_mask[e] != 0)) {
      throw std::logic_error("groups_for_mask: labels disagree with edge " +
                             std::to_string(e));
    }
  }
  return groups;
}

/// Stage-boundary callback of the reference: (stage, label, network state).
using ReferenceObserver =
    std::function<void(unsigned, const char*, const phase::PhaseBatch&)>;

/// Frozen reference: the single-network stage schedule that
/// MultiStagePottsMachine::solve() ran before it became a batch of one,
/// kept verbatim (members read through the machine's accessors; the
/// network is a batch of one, replica 0) so the batch path is compared
/// against an independent implementation.
MsropmResult reference_solve(const MultiStagePottsMachine& machine,
                             util::Rng& rng,
                             const ReferenceObserver& observer) {
  const MsropmConfig& config_ = machine.config();
  const graph::Graph& g = machine.graph();
  const unsigned num_stages = config_.num_stages();
  const std::size_t n = g.num_nodes();

  phase::PhaseBatch net(g, config_.network, 1);
  const std::span<util::Rng> rngs(&rng, 1);
  net.set_couplings_active(false);
  net.set_shil_active(false);
  if (config_.network.frequency_mismatch_stddev_hz > 0.0) {
    // Process variation: each ROSC free-runs slightly off nominal; the SHIL
    // must overcome this residual detune to capture the oscillator.
    std::vector<double> detune(n);
    const double two_pi = 2.0 * 3.14159265358979323846;
    for (double& d : detune) {
      d = two_pi * config_.network.frequency_mismatch_stddev_hz * rng.normal();
    }
    net.set_detune(0, detune);
  }

  // --- init: random startup phases ------------------------------------
  net.randomize_phases(0, rng);
  net.run(config_.schedule.init_s, rngs);
  if (observer) observer(0, "init", net);

  // Accumulated per-oscillator readout bits (the SHIL_SEL register file).
  std::vector<StageBits> bits(n);
  // P_EN register file: edge enabled while endpoints share every bit so far.
  std::vector<std::uint8_t> edge_mask(g.num_edges(), 1);

  MsropmResult result;

  for (unsigned stage = 1; stage <= num_stages; ++stage) {
    // SHIL phases for the current grouping.
    std::vector<double> psi(n);
    for (std::size_t i = 0; i < n; ++i) psi[i] = shil_phase_for_bits(bits[i]);
    net.set_shil_phases(0, psi);

    // --- anneal: couplings on within groups, SHIL off -------------------
    net.set_groups(0, groups_for_mask(g, bits, edge_mask));
    net.set_couplings_active(true);
    net.set_shil_active(false);
    net.run(config_.schedule.anneal_s, rngs);
    if (observer) observer(stage, "anneal", net);

    // --- lock: ramped SHIL binarizes each group ----------------------
    net.set_couplings_active(true);
    net.set_shil_active(true);
    net.set_shil_level(1.0);
    net.run(config_.schedule.discretize_s, rngs, &config_.shil_ramp);
    if (observer) observer(stage, "lock", net);

    // --- readout: latch the lock lobe as bit b_stage ----------------------
    StageOutcome outcome;
    outcome.bits.resize(n);
    const std::vector<double> theta(net.phases(0).begin(), net.phases(0).end());
    for (std::size_t i = 0; i < n; ++i) {
      outcome.bits[i] = static_cast<std::uint8_t>(
          phase::nearest_lock_index(theta[i], psi[i], 2));
      bits[i].push_back(outcome.bits[i]);
    }
    outcome.max_lock_residual = phase::max_lock_residual(theta, psi, 2);

    // Update P_EN: cut couplings whose endpoints read out different bits.
    const auto edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!edge_mask[e]) continue;
      ++outcome.active_edges;
      if (outcome.bits[edges[e].u] != outcome.bits[edges[e].v]) {
        ++outcome.cut_edges;
        edge_mask[e] = 0;
      }
    }
    result.stages.push_back(std::move(outcome));

    // --- reinit between stages -------------------------------------------
    if (stage < num_stages) {
      net.set_shil_active(false);
      net.set_couplings_active(false);
      // Free-running drift (jitter + mismatch) decorrelates the phases; the
      // stage memory lives in the bits/edge_mask registers.
      net.randomize_phases(0, rng);
      net.run(config_.schedule.reinit_s, rngs);
      if (observer) observer(stage, "reinit", net);
    }
  }

  result.colors.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.colors[i] = static_cast<graph::Color>(color_from_bits(bits[i]));
  }
  return result;
}

/// Stage-boundary phase snapshots keyed by (stage, label) in callback order.
using Snapshots = std::vector<std::pair<std::string, std::vector<double>>>;

void expect_results_identical(const MsropmResult& a, const MsropmResult& b,
                              std::size_t replica) {
  ASSERT_EQ(a.colors.size(), b.colors.size());
  for (std::size_t i = 0; i < a.colors.size(); ++i) {
    ASSERT_EQ(a.colors[i], b.colors[i]) << "replica " << replica << " node " << i;
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    ASSERT_EQ(a.stages[s].bits, b.stages[s].bits) << "replica " << replica;
    ASSERT_EQ(a.stages[s].active_edges, b.stages[s].active_edges);
    ASSERT_EQ(a.stages[s].cut_edges, b.stages[s].cut_edges);
    // Bit-exact, not approximate: the batch path must run the identical
    // instruction sequence per replica.
    ASSERT_EQ(a.stages[s].max_lock_residual, b.stages[s].max_lock_residual)
        << "replica " << replica << " stage " << s;
  }
}

void expect_batch_equals_serial(std::size_t replicas, double noise,
                                double mismatch_hz, std::uint64_t seed,
                                unsigned num_colors = 4) {
  const auto g = graph::kings_graph_square(7);  // the paper's 49-node fabric
  const MultiStagePottsMachine machine(
      g, machine_config(noise, mismatch_hz, num_colors));

  // Serial reference: R independent reference_solve() calls, each capturing
  // the phase vector at every stage boundary.
  std::vector<MsropmResult> serial_results;
  std::vector<Snapshots> serial_snaps(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Rng rng(seed + 17 * r);
    Snapshots& snaps = serial_snaps[r];
    serial_results.push_back(reference_solve(
        machine, rng, [&snaps](unsigned stage, const char* label,
                               const phase::PhaseBatch& net) {
          const auto theta = net.phases(0);
          snaps.emplace_back(std::to_string(stage) + ":" + label,
                             std::vector<double>(theta.begin(), theta.end()));
        }));
  }

  // Batched run over the same streams.
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) rngs.emplace_back(seed + 17 * r);
  std::vector<Snapshots> batch_snaps(replicas);
  const std::vector<MsropmResult> batch_results = machine.solve_batch(
      rngs, [&batch_snaps](unsigned stage, const char* label,
                           const phase::PhaseBatch& batch) {
        for (std::size_t r = 0; r < batch.num_replicas(); ++r) {
          const auto theta = batch.phases(r);
          batch_snaps[r].emplace_back(
              std::to_string(stage) + ":" + label,
              std::vector<double>(theta.begin(), theta.end()));
        }
      });

  ASSERT_EQ(batch_results.size(), replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    expect_results_identical(serial_results[r], batch_results[r], r);
    ASSERT_EQ(serial_snaps[r].size(), batch_snaps[r].size());
    for (std::size_t k = 0; k < serial_snaps[r].size(); ++k) {
      ASSERT_EQ(serial_snaps[r][k].first, batch_snaps[r][k].first);
      const auto& ref = serial_snaps[r][k].second;
      const auto& got = batch_snaps[r][k].second;
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], got[i]) << "replica " << r << " boundary "
                                  << serial_snaps[r][k].first << " node " << i;
      }
    }
  }
}

TEST(BatchEquivalence, BatchOfOneNoiseEuler) {
  expect_batch_equals_serial(1, 2.0e3, 0.0, 101);
}

TEST(BatchEquivalence, BatchOfThreeNoiseEuler) {
  expect_batch_equals_serial(3, 2.0e3, 0.0, 202);
}

TEST(BatchEquivalence, BatchOfFortyNoiseEuler) {
  expect_batch_equals_serial(40, 2.0e3, 0.0, 303);
}

TEST(BatchEquivalence, LaneGroupBoundariesNoiseEuler) {
  // floor(R/8) groups of 8 plus R mod 8 singles (or the same around 4 on an
  // AVX2 host) on the 49-node fabric, whose N leaves a tail in every pass.
  for (const std::size_t replicas : {7, 8, 9, 16, 17}) {
    SCOPED_TRACE(replicas);
    expect_batch_equals_serial(replicas, 2.0e3, 2.0e6, 900 + replicas);
  }
}

TEST(BatchEquivalence, EveryDispatchedWidthNoiseEuler) {
  for (const std::size_t width : {8, 4, 1}) {
    if (width > phase::detail::simd_width()) continue;
    SCOPED_TRACE(width);
    const phase::detail::ScopedSimdWidth scope(width);
    expect_batch_equals_serial(width + 1, 2.0e3, 0.0, 950 + width);
  }
}

TEST(BatchEquivalence, BatchOfThreeNoiselessEuler) {
  expect_batch_equals_serial(3, 0.0, 0.0, 404);
}

TEST(BatchEquivalence, BatchOfThreeMismatchEuler) {
  // Mismatch draws detune from each replica's stream BEFORE the initial
  // phases; the batch path must preserve that consumption order.
  expect_batch_equals_serial(3, 2.0e3, 2.0e6, 505);
}

TEST(BatchEquivalence, EightColorsThreeStagesNoiseEuler) {
  // K = 4 carries a one-bit register into its last stage; K = 8 shifts a
  // second bit in, so the stage-3 SHIL phases and P_EN masks come from a
  // two-bit register. 9 replicas leave a single beside the lane groups at
  // width 8 or 4.
  expect_batch_equals_serial(9, 2.0e3, 2.0e6, 606, 8);
}

TEST(BatchEquivalence, SolveIsBatchOfOneAndConsumesTheSameStream) {
  const auto g = graph::kings_graph_square(7);
  const MultiStagePottsMachine machine(g, machine_config(2.0e3, 2.0e6));
  util::Rng ref_rng(808);
  util::Rng rng(808);
  const MsropmResult ref = reference_solve(machine, ref_rng, {});
  expect_results_identical(ref, machine.solve(rng), 0);
  // Callers that reuse one stream across solve() calls see the same draws.
  EXPECT_EQ(ref_rng(), rng());
  EXPECT_EQ(ref_rng.normal(), rng.normal());
}

// --- run_iterations invariance ---------------------------------------------

core::RunSummary run_with(const MultiStagePottsMachine& machine,
                          std::size_t batch_size, std::size_t threads) {
  core::RunnerOptions options;
  options.iterations = 12;
  options.seed = 99;
  options.batch_size = batch_size;
  options.num_threads = threads;
  return core::run_iterations(machine, options);
}

void expect_summaries_identical(const core::RunSummary& a,
                                const core::RunSummary& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    ASSERT_EQ(a.iterations[i].result.colors, b.iterations[i].result.colors);
    ASSERT_EQ(a.iterations[i].coloring_accuracy,
              b.iterations[i].coloring_accuracy);
    ASSERT_EQ(a.iterations[i].result.stages.front().cut_edges,
              b.iterations[i].result.stages.front().cut_edges);
  }
  ASSERT_EQ(a.best_index, b.best_index);
  ASSERT_EQ(a.best_accuracy, b.best_accuracy);
  ASSERT_EQ(a.mean_accuracy, b.mean_accuracy);
  ASSERT_EQ(a.worst_accuracy, b.worst_accuracy);
  ASSERT_EQ(a.exact_solutions, b.exact_solutions);
  ASSERT_EQ(a.completed, b.completed);
}

TEST(BatchEquivalence, RunIterationsInvariantToBatchSizeAndThreads) {
  const auto g = graph::kings_graph_square(5);
  const MultiStagePottsMachine machine(g, machine_config(2.0e3, 0.0));
  const core::RunSummary reference = run_with(machine, 1, 1);
  EXPECT_EQ(reference.completed, 12u);
  EXPECT_FALSE(reference.cancelled);
  expect_summaries_identical(reference, run_with(machine, 5, 1));
  expect_summaries_identical(reference, run_with(machine, 12, 1));
  expect_summaries_identical(reference, run_with(machine, 64, 1));
  expect_summaries_identical(reference, run_with(machine, 4, 3));
}

TEST(BatchEquivalence, RunIterationsStopTokenTruncatesToPrefix) {
  const auto g = graph::kings_graph_square(5);
  const MultiStagePottsMachine machine(g, machine_config(2.0e3, 0.0));

  // Pre-tripped token: no iteration may run.
  util::StopSource source;
  source.request_stop();
  core::RunnerOptions options;
  options.iterations = 12;
  options.seed = 99;
  options.batch_size = 4;
  options.num_threads = 1;
  options.stop = source.token();
  const core::RunSummary none = core::run_iterations(machine, options);
  EXPECT_EQ(none.completed, 0u);
  EXPECT_TRUE(none.cancelled);
  EXPECT_TRUE(none.iterations.empty());
  EXPECT_EQ(none.mean_accuracy, 0.0);

  // An already-expired deadline behaves the same way.
  options.stop = util::StopToken::at_deadline(util::StopToken::Clock::now());
  const core::RunSummary expired = core::run_iterations(machine, options);
  EXPECT_EQ(expired.completed, 0u);
  EXPECT_TRUE(expired.cancelled);

  // An inert token completes everything; completed iterations match the
  // uncancelled reference prefix (iterations are keyed by (seed, index)).
  options.stop = util::StopToken();
  const core::RunSummary all = core::run_iterations(machine, options);
  EXPECT_EQ(all.completed, 12u);
  EXPECT_FALSE(all.cancelled);
  expect_summaries_identical(all, run_with(machine, 4, 1));
}

}  // namespace
