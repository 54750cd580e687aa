#include "msropm/core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "msropm/util/fault_injector.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::core {

std::vector<double> RunSummary::accuracy_series() const {
  std::vector<double> s;
  s.reserve(iterations.size());
  for (const auto& it : iterations) s.push_back(it.coloring_accuracy);
  return s;
}

std::vector<double> RunSummary::stage1_cut_series() const {
  std::vector<double> s;
  s.reserve(iterations.size());
  for (const auto& it : iterations) {
    s.push_back(static_cast<double>(it.result.stages.front().cut_edges));
  }
  return s;
}

RunSummary run_iterations(const MultiStagePottsMachine& machine,
                          const RunnerOptions& options) {
  const std::size_t iters = options.iterations;
  if (iters > kMaxIterations) {
    throw std::invalid_argument("run_iterations: more than " +
                                std::to_string(kMaxIterations) + " iterations");
  }
  const std::size_t batch = std::max<std::size_t>(1, options.batch_size);
  RunSummary summary;
  summary.iterations.resize(iters);

  std::size_t workers = options.num_threads != 0
                            ? options.num_threads
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, std::max<std::size_t>(1, (iters + batch - 1) / batch));

  // Workers claim contiguous [i, i+batch) windows; every claimed window runs
  // to completion even if the stop token fires mid-batch, so the completed
  // iterations always form the prefix [0, next) of the index space. A fired
  // `step` fault ends the run exactly like a stop: it is polled at the same
  // point and, through `cancelled`, stops every worker. An exception in a
  // worker (std::bad_alloc in solve_batch) also stops every worker; the
  // first one is rethrown to the caller after the join.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  const util::Rng master(options.seed);
  auto batches = [&]() {
    std::vector<util::Rng> rngs;
    for (;;) {
      if (cancelled.load(std::memory_order_relaxed) ||
          options.stop.stop_requested() ||
          util::fault::fire(util::FaultSite::kBatchStep)) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t begin = next.fetch_add(batch);
      if (begin >= iters) return;
      const std::size_t count = std::min(batch, iters - begin);
      // Independent, deterministic stream per iteration: split(i) is a pure
      // function of (seed, i), so results are invariant to batch/thread
      // counts.
      rngs.clear();
      for (std::size_t k = 0; k < count; ++k) {
        rngs.push_back(master.split(begin + k));
      }
      std::vector<MsropmResult> results = machine.solve_batch(rngs);
      for (std::size_t k = 0; k < count; ++k) {
        IterationOutcome out;
        out.result = std::move(results[k]);
        out.coloring_accuracy =
            graph::coloring_accuracy(machine.graph(), out.result.colors);
        summary.iterations[begin + k] = std::move(out);
      }
    }
  };
  auto work = [&]() {
    try {
      batches();
    } catch (...) {
      cancelled.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);

  summary.completed = std::min(next.load(std::memory_order_relaxed), iters);
  summary.cancelled =
      cancelled.load(std::memory_order_relaxed) && summary.completed < iters;
  summary.iterations.resize(summary.completed);

  const std::size_t done = summary.completed;
  summary.best_accuracy = 0.0;
  summary.worst_accuracy = 1.0;
  double total = 0.0;
  for (std::size_t i = 0; i < done; ++i) {
    const double acc = summary.iterations[i].coloring_accuracy;
    total += acc;
    if (acc > summary.best_accuracy) {
      summary.best_accuracy = acc;
      summary.best_index = i;
    }
    summary.worst_accuracy = std::min(summary.worst_accuracy, acc);
    if (acc >= 1.0) ++summary.exact_solutions;
  }
  summary.mean_accuracy = done ? total / static_cast<double>(done) : 0.0;
  if (done == 0) summary.worst_accuracy = 0.0;
  return summary;
}

}  // namespace msropm::core
