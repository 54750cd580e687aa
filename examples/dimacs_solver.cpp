// DIMACS coloring CLI: read a standard DIMACS .col graph, 4-color it on the
// MSROPM, and compare against the DSATUR greedy and (optionally) the SAT
// exact baseline. This is the tool a downstream user points at their own
// instances.
//
// Usage:
//   dimacs_solver <graph.col> [colors=4] [iterations=40] [seed=1] [--sat]
//                 [--chromatic] [--trace FILE] [--metrics]
//                 [--metrics-json FILE] [--metrics-prom FILE]
//                 [--fault-spec SPEC]
//
// --trace records msropm::obs spans (solver phases, incremental rounds) and
// writes a Chrome trace-event JSON on exit; --metrics enables the obs
// registry and prints the merged counter/timer report — the sat.* counters
// there match the SolverStats tables below it one-for-one.
// --metrics-json / --metrics-prom additionally export the SAME snapshot as a
// JSON document / Prometheus text format (both imply --metrics). All of the
// observability outputs are emitted on EVERY exit path once the flags parsed
// — including input errors, kUnknown verdicts, and cancellations — so an
// instrumented run never silently loses its data. Repeating any of these
// flags is allowed: the last value wins (with a warning).
//
// --sat runs the exact CDCL baseline on the direct encoding and prints the
// search statistics as a table (copy-pasteable into bench notes).
//
// --chromatic runs the incremental assumption-based chromatic search
// (sat::chromatic_search) with max_k = the requested color count: one
// multi-shot solver sweeps K from the clique lower bound reusing learnt
// clauses between rounds, and the exit code reflects whether the chromatic
// number fits the palette.
//
// --fault-spec installs a util::FaultInjector schedule (grammar in
// src/util/include/msropm/util/fault_injector.hpp) for chaos drills; the
// MSROPM_FAULT environment variable does the same without touching the
// command line.
//
// Exit codes follow the DIMACS solver convention so scripted sweeps can trust
// the status: 10 = a proper K-coloring exists (found by any engine), 20 = no
// K-coloring exists (proved by the --sat CDCL baseline), 0 = unknown (no
// proper coloring found and no proof). Usage/input errors exit 2; an escaped
// exception (including std::bad_alloc) exits 3 with a diagnostic, so a
// scripted sweep can tell "crashed" from "unknown".

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cli_harness.hpp"
#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/io.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/incremental_coloring.hpp"
#include "msropm/solvers/dsatur.hpp"
#include "msropm/util/table.hpp"

namespace {

void print_sat_stats(const msropm::sat::ExactColoringOutcome& outcome) {
  using msropm::util::TextTable;
  const auto& s = outcome.solver_stats;
  TextTable search({"search", "decisions", "propagations", "conflicts",
                    "restarts", "learnts"});
  search.add_row({"cdcl", std::to_string(s.decisions),
                  std::to_string(s.propagations), std::to_string(s.conflicts),
                  std::to_string(s.restarts), std::to_string(s.learnt_clauses)});
  std::printf("%s", search.render().c_str());
  // Hot-path counters of the watcher/heap design: how often a satisfied
  // blocker skipped the clause dereference, how many propagations came from
  // implicit binaries (no arena traffic at all), and how many decisions the
  // VSIDS order heap served (0 on conflict-free runs — the heap only
  // engages once conflict analysis starts bumping activities).
  TextTable hot({"hot_path", "blocker_skips", "binary_propagations",
                 "heap_decisions"});
  hot.add_row({"cdcl", std::to_string(s.blocker_skips),
               std::to_string(s.binary_propagations),
               std::to_string(s.heap_decisions)});
  std::printf("%s", hot.render().c_str());
}

int run_solver_cli(int argc, char** argv) {
  using namespace msropm;

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <graph.col> [colors=4] [iterations=40] [seed=1] "
                 "[--sat] [--chromatic] [--trace FILE] [--metrics] "
                 "[--metrics-json FILE] [--metrics-prom FILE] "
                 "[--fault-spec SPEC]\n",
                 argv[0]);
    return 2;
  }
  cli::ObsHarness harness;
  if (!cli::ObsHarness::configure_fault_env()) return 2;
  const std::string path = argv[1];
  unsigned colors = 4;
  std::size_t iterations = 40;
  std::uint64_t seed = 1;
  bool run_sat = false;
  bool run_chromatic = false;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const cli::ObsHarness::Arg shared = harness.consume(argc, argv, i);
    if (shared == cli::ObsHarness::Arg::kError) return 2;
    if (shared == cli::ObsHarness::Arg::kConsumed) continue;
    if (std::strcmp(argv[i], "--sat") == 0) {
      run_sat = true;
    } else if (std::strcmp(argv[i], "--chromatic") == 0) {
      run_chromatic = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unrecognized flag: %s\n", argv[i]);
      return 2;
    } else if (positional == 0) {
      colors = static_cast<unsigned>(std::atoi(argv[i]));
      ++positional;
    } else if (positional == 1) {
      iterations = static_cast<std::size_t>(std::atoll(argv[i]));
      ++positional;
    } else if (positional == 2) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
      ++positional;
    } else {
      std::fprintf(stderr, "unrecognized argument: %s\n", argv[i]);
      return 2;
    }
  }

  // Every exit from here on goes through harness.finish(): an instrumented
  // run emits its metrics report, exports and trace on ALL paths -- input
  // errors and kUnknown included.
  if (!harness.start()) return 2;

  graph::Graph g;
  try {
    g = graph::read_dimacs_file(path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), ex.what());
    return harness.finish(2);
  }
  std::printf("%s: %zu nodes, %zu edges, max degree %zu\n", path.c_str(),
              g.num_nodes(), g.num_edges(), g.max_degree());

  if (!core::valid_color_count(colors)) {
    std::fprintf(stderr,
                 "error: the multi-stage SHIL plan needs a power-of-two "
                 "color count in [2, 128], got %u\n",
                 colors);
    return harness.finish(2);
  }

  core::MsropmConfig config = analysis::default_machine_config();
  config.num_colors = colors;
  const core::MultiStagePottsMachine machine(g, config);
  core::RunnerOptions opts;
  opts.iterations = iterations;
  opts.seed = seed;
  const auto summary = core::run_iterations(machine, opts);
  const auto& best = summary.best_coloring();
  std::printf("MSROPM (K=%u, %zu iterations, %.0f ns each): accuracy best "
              "%.4f mean %.4f, conflicts %zu\n",
              colors, iterations, config.total_time_s() * 1e9,
              summary.best_accuracy, summary.mean_accuracy,
              graph::count_conflicts(g, best));

  const auto greedy = solvers::solve_dsatur(g);
  std::printf("DSATUR greedy: %u colors (proper)\n", greedy.colors_used);

  // DIMACS-convention status: 10 = SAT (proper coloring in hand), 20 = UNSAT
  // (CDCL proof), 0 = unknown. The MSROPM and DSATUR colorings are SAT
  // witnesses; only the exact baseline can prove UNSAT.
  int status = 0;
  if (graph::count_conflicts(g, best) == 0) status = 10;
  if (greedy.colors_used <= colors) status = 10;

  if (run_sat) {
    const auto outcome = sat::solve_exact_coloring_detailed(g, colors);
    const char* answer = "UNKNOWN (conflict limit hit)";
    if (outcome.result == sat::SolveResult::kSat) {
      answer = "exists";
      status = 10;
    } else if (outcome.result == sat::SolveResult::kUnsat) {
      answer = "does NOT exist";
      status = 20;
    }
    std::printf("SAT: %u-coloring %s\n", colors, answer);
    print_sat_stats(outcome);
  }

  if (run_chromatic) {
    const auto outcome = sat::chromatic_search(g, colors);
    if (outcome.chromatic) {
      std::printf("chromatic number: %u (bounds [%u, %u], %zu incremental "
                  "solves)\n",
                  *outcome.chromatic, outcome.lower_bound, outcome.upper_bound,
                  outcome.solve_calls);
      status = 10;
    } else if (!outcome.incomplete) {
      std::printf("chromatic number: > %u (clique lower bound %u)\n", colors,
                  outcome.lower_bound);
      status = 20;
    } else {
      std::printf("chromatic number: unknown (search %s)\n",
                  outcome.cancelled ? "cancelled" : "hit its conflict budget");
      status = 0;
    }
    const auto& s = outcome.stats;
    util::TextTable sweep({"chromatic_sweep", "solves", "decisions",
                           "conflicts", "learnts", "propagations"});
    sweep.add_row({"incremental", std::to_string(outcome.solve_calls),
                   std::to_string(s.decisions), std::to_string(s.conflicts),
                   std::to_string(s.learnt_clauses),
                   std::to_string(s.propagations)});
    std::printf("%s", sweep.render().c_str());
  }

  return harness.finish(status);
}

}  // namespace

int main(int argc, char** argv) {
  return msropm::cli::guarded_main(run_solver_cli, argc, argv);
}
