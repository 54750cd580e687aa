// Ablation: schedule-window lengths (paper Sec. 4.1).
//
// The paper fixes 5 ns init / 20 ns anneal / 5 ns lock "empirically
// determined to be enough". This bench sweeps the anneal and lock windows on
// the 400-node instance to show where those durations sit on the
// quality-vs-time curve, and verifies that total solve time is independent
// of problem size (the constant-time scaling claim).
//
// Section (4) is the integration step-size study behind
// default_machine_config().network.dt: best-of-40 runs on the 4 paper
// graphs at seeds 7-12 (1 thread) for each Euler-Maruyama step. Noise is
// scaled as sigma*sqrt(dt), so this is a convergence check, not a retuning.
// Per step it reports the mean accuracy over all seeds and graphs, the
// worst seed's top accuracy minus the paper's per graph, the fewest exact
// 7x7 colorings of any seed, the steps per trajectory and the wall time.
// Results land in bench_results/bench_ablation_schedule.json via
// BenchJsonWriter.
//
// Hard gate (exit 1): at the default step every seed reaches the paper's
// top accuracy - 0.01 on every graph.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/bench_json.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

namespace {

constexpr double kPaperTop[] = {1.00, 0.98, 0.97, 0.97};
constexpr double kTolerance = 0.01;

/// Steps PhaseBatch::run takes for one window (same rounding).
std::size_t window_steps(double duration_s, double dt) {
  const auto steps = static_cast<std::size_t>(std::ceil(duration_s / dt - 1e-9));
  return std::max<std::size_t>(steps, 1);
}

std::size_t steps_per_trajectory(const core::MsropmConfig& cfg) {
  const auto& s = cfg.schedule;
  const double dt = cfg.network.dt;
  const unsigned stages = cfg.num_stages();
  return window_steps(s.init_s, dt) +
         stages * (window_steps(s.anneal_s, dt) +
                   window_steps(s.discretize_s, dt)) +
         (stages - 1) * window_steps(s.reinit_s, dt);
}

/// Section (4); returns false when the default step misses the paper.
bool step_size_study() {
  std::printf("(4) accuracy vs integration step (best-of-40, seeds 7-12, "
              "1 thread)\n\n");
  const auto problems = analysis::paper_problems();
  std::vector<graph::Graph> graphs;
  for (const auto& problem : problems) {
    graphs.push_back(analysis::build_paper_graph(problem));
  }
  const double default_dt = analysis::default_machine_config().network.dt;
  constexpr std::uint64_t kSeeds[] = {7, 8, 9, 10, 11, 12};

  util::TextTable table({"dt [ps]", "steps", "mean acc", "top-paper 49",
                         "top-paper 400", "top-paper 1024", "top-paper 2116",
                         "min exact 7x7", "wall [s]"});
  util::BenchJsonWriter json("bench_ablation_schedule");
  json.meta("seeds", "7-12");
  json.meta("iterations", 40.0);
  json.meta("threads", 1.0);
  bool default_seen = false;
  bool default_ok = true;
  for (const double dt : {20e-12, 40e-12, 50e-12, 80e-12, 160e-12, 320e-12}) {
    auto cfg = analysis::default_machine_config();
    cfg.network.dt = dt;
    double accuracy_sum = 0.0;
    double min_margin[4] = {1.0, 1.0, 1.0, 1.0};
    std::size_t min_exact = SIZE_MAX;
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::uint64_t seed : kSeeds) {
      for (std::size_t p = 0; p < problems.size(); ++p) {
        const core::MultiStagePottsMachine machine(graphs[p], cfg);
        core::RunnerOptions opts;
        opts.iterations = 40;
        opts.seed = seed;
        opts.num_threads = 1;
        const auto summary = core::run_iterations(machine, opts);
        accuracy_sum += summary.mean_accuracy;
        min_margin[p] =
            std::min(min_margin[p], summary.best_accuracy - kPaperTop[p]);
        if (p == 0) min_exact = std::min(min_exact, summary.exact_solutions);
      }
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const double mean =
        accuracy_sum / static_cast<double>(std::size(kSeeds) * problems.size());
    const std::size_t steps = steps_per_trajectory(cfg);
    const bool is_default = std::abs(dt - default_dt) < 1e-15;
    if (is_default) {
      default_seen = true;
      for (const double margin : min_margin) {
        default_ok = default_ok && margin >= -kTolerance;
      }
    }

    const std::string ps = util::format_double(dt * 1e12, 0);
    table.add_row({ps + (is_default ? " (default)" : ""), std::to_string(steps),
                   util::format_double(mean, 4),
                   util::format_double(min_margin[0], 3),
                   util::format_double(min_margin[1], 3),
                   util::format_double(min_margin[2], 3),
                   util::format_double(min_margin[3], 3),
                   std::to_string(min_exact), util::format_double(wall_s, 2)});
    json.begin_row("dt_" + ps + "ps");
    json.metric("mean_accuracy", mean);
    for (std::size_t p = 0; p < problems.size(); ++p) {
      json.metric("min_top_minus_paper_" + std::to_string(problems[p].nodes),
                  min_margin[p]);
    }
    json.metric("min_exact_7x7", static_cast<std::uint64_t>(min_exact));
    json.metric("steps_per_trajectory", static_cast<std::uint64_t>(steps));
    json.metric("wall_s", wall_s);
  }
  std::printf("%s\n", table.render().c_str());
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n\n", path.c_str());

  if (!default_seen) {
    std::printf("FAIL: the default step is not in the sweep\n");
    return false;
  }
  if (!default_ok) {
    std::printf("FAIL: at the default step a seed is below the paper's top "
                "accuracy - %.2f\n", kTolerance);
  }
  return default_ok;
}

}  // namespace

int main() {
  std::printf("=== Ablation: schedule windows ===\n\n");

  const auto g = graph::kings_graph_square(20);

  std::printf("(1) accuracy vs anneal window (lock fixed at 5 ns)\n\n");
  util::TextTable anneal({"anneal [ns]", "total run [ns]", "best acc",
                          "mean acc"});
  for (double t : {1e-9, 2e-9, 5e-9, 10e-9, 20e-9, 40e-9, 80e-9}) {
    auto cfg = analysis::default_machine_config();
    cfg.schedule.anneal_s = t;
    core::MultiStagePottsMachine machine(g, cfg);
    core::RunnerOptions opts;
    opts.iterations = 12;
    opts.seed = 3;
    const auto summary = core::run_iterations(machine, opts);
    anneal.add_row({util::format_double(t * 1e9, 0),
                    util::format_double(cfg.total_time_s() * 1e9, 0),
                    util::format_double(summary.best_accuracy, 3),
                    util::format_double(summary.mean_accuracy, 3)});
  }
  std::printf("%s\n", anneal.render().c_str());

  std::printf("(2) accuracy vs lock window (anneal fixed at 20 ns)\n\n");
  util::TextTable lock({"lock [ns]", "best acc", "mean acc"});
  for (double t : {1e-9, 2e-9, 5e-9, 10e-9}) {
    auto cfg = analysis::default_machine_config();
    cfg.schedule.discretize_s = t;
    core::MultiStagePottsMachine machine(g, cfg);
    core::RunnerOptions opts;
    opts.iterations = 12;
    opts.seed = 3;
    const auto summary = core::run_iterations(machine, opts);
    lock.add_row({util::format_double(t * 1e9, 0),
                  util::format_double(summary.best_accuracy, 3),
                  util::format_double(summary.mean_accuracy, 3)});
  }
  std::printf("%s\n", lock.render().c_str());

  std::printf("(3) total solve time vs problem size (constant-time claim)\n\n");
  util::TextTable scaling({"instance", "nodes", "total run [ns]"});
  for (const auto& problem : analysis::paper_problems()) {
    const auto cfg = analysis::default_machine_config();
    scaling.add_row({problem.name, std::to_string(problem.nodes),
                     util::format_double(cfg.total_time_s() * 1e9, 0)});
  }
  std::printf("%s\n", scaling.render().c_str());
  std::printf("Expected shape: quality saturates near the paper's 20 ns anneal\n"
              "and 5 ns lock; run time is 60 ns for every instance size.\n\n");
  return step_size_study() ? 0 : 1;
}
