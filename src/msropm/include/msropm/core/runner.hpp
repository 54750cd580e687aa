#pragma once
// Best-of-N iteration harness (paper Sec. 4: "an Ising/Potts solver is
// typically run multiple times, with the best solution among the iterations
// being selected as the final solution"; all experiments use 40 iterations).
//
// Iterations are embarrassingly parallel: iteration i runs on the stream
// util::Rng(seed).split(i), a pure function of (seed, i). Workers claim
// contiguous index ranges of up to `batch_size` iterations and drive each
// range through ONE MultiStagePottsMachine::solve_batch call, so the fabric
// is integrated as a replica batch instead of once per trajectory. Because
// replica r of a solve_batch is bit-identical to solve() on the same stream
// (itself a batch of one) at any width, determinism holds for a fixed
// (seed, iteration) pair regardless of thread count AND batch size.

#include <cstddef>
#include <vector>

#include "msropm/core/machine.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::core {

/// Largest iteration count run_iterations accepts. It sizes one result
/// record per requested iteration before it runs any, so a larger count is
/// rejected up front instead of failing to allocate.
inline constexpr std::size_t kMaxIterations = 100000;

struct IterationOutcome {
  MsropmResult result;
  double coloring_accuracy = 0.0;  ///< satisfied edges / total edges
};

struct RunSummary {
  std::vector<IterationOutcome> iterations;
  std::size_t best_index = 0;
  double best_accuracy = 0.0;
  double mean_accuracy = 0.0;
  double worst_accuracy = 0.0;
  std::size_t exact_solutions = 0;  ///< iterations with accuracy == 1.0
  /// Iterations that actually ran (== options.iterations unless cancelled;
  /// always a prefix of the iteration index space, so `iterations` holds
  /// exactly the completed prefix).
  std::size_t completed = 0;
  /// The stop token (or a fired `step` fault, see util/fault_injector.hpp)
  /// ended the run before all iterations ran.
  bool cancelled = false;

  [[nodiscard]] const graph::Coloring& best_coloring() const {
    return iterations.at(best_index).result.colors;
  }
  /// Accuracy series in iteration order (Fig. 5a traces).
  [[nodiscard]] std::vector<double> accuracy_series() const;
  /// Stage-1 cut series (each iteration's stages.front().cut_edges, the
  /// stage-1 max-cut value) in iteration order (Fig. 5b traces).
  [[nodiscard]] std::vector<double> stage1_cut_series() const;
};

struct RunnerOptions {
  std::size_t iterations = 40;    ///< the paper's iteration count
  std::uint64_t seed = 1;
  std::size_t num_threads = 0;    ///< 0 = hardware concurrency
  /// Replicas per solve_batch call (clamped to >= 1). Results are invariant
  /// to this knob; it only trades scheduling granularity against the batch
  /// engine's throughput, which grows with whole multiples of the SIMD lane
  /// width (8 on AVX-512 hosts, 4 with AVX2; see phase/batch.hpp): a batch
  /// of 8 steps as one lane group, while the remainder of a batch steps
  /// replica by replica.
  std::size_t batch_size = 8;
  /// Cooperative cancellation, polled between batches together with the
  /// `step` fault site (a started batch runs to completion). Default token
  /// is inert.
  util::StopToken stop{};
};

/// Run the machine `options.iterations` times and summarize. Throws
/// std::invalid_argument when `options.iterations` exceeds kMaxIterations.
/// An exception in a worker thread (e.g. std::bad_alloc) stops the other
/// workers and is rethrown here once all of them have joined.
[[nodiscard]] RunSummary run_iterations(const MultiStagePottsMachine& machine,
                                        const RunnerOptions& options);

}  // namespace msropm::core
