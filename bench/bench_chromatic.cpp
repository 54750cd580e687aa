// Chromatic-search bench: incremental assumption-based sweep vs the
// fresh-solver-per-K from-scratch baseline (both clique-seeded, both plain
// CDCL on the direct encoding).
//
// Two row families:
//   - King's grids (the paper's instances): the clique seed starts the sweep
//     at K = omega = 4, so both modes issue ONE SAT query and the gate is
//     parity — the incremental machinery (activation literals, selector
//     assumptions, multi-shot solver) must cost nothing when there is
//     nothing to reuse.
//   - Random G(n, p) graphs whose chromatic number sits above the greedy
//     clique bound: the sweep passes through real UNSAT rounds, and the
//     incremental mode reuses one encoding and every learnt clause across
//     rounds, which is where it must win.
//
// Hard gates (exit nonzero): chromatic values identical in both modes on
// every row, and the TOTAL incremental sweep time never slower than
// from-scratch beyond a 10% noise margin. Learnt-clause reuse is evidenced
// in the emitted stats (conflicts_inc vs conflicts_scratch per row).
//
// Emits bench_results/bench_chromatic.json (schema: util::BenchJsonWriter).
//
// Usage: bench_chromatic [repetitions=3]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/sat/incremental_coloring.hpp"
#include "msropm/util/bench_json.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/table.hpp"

namespace {

using namespace msropm;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string name;
  graph::Graph graph;
  unsigned max_k = 8;
};

struct Measurement {
  double wall_ms = std::numeric_limits<double>::max();  ///< best of reps
  sat::ChromaticSearchOutcome outcome;                  ///< last rep
};

void measure_once(const Row& row, bool incremental, Measurement& m) {
  sat::ChromaticSearchOptions options;
  options.incremental = incremental;
  const auto t0 = Clock::now();
  auto outcome = sat::chromatic_search(row.graph, row.max_k, options);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  m.wall_ms = std::min(m.wall_ms, ms);
  m.outcome = std::move(outcome);
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  std::vector<Row> rows;
  // The paper's King's grids: clique-seeded single-round sweeps.
  for (const std::size_t side : {16, 20, 24, 32, 40, 46}) {
    rows.push_back({"kings_" + std::to_string(side) + "x" +
                        std::to_string(side),
                    graph::kings_graph_square(side), 8});
  }
  // Random graphs with chromatic number above the clique seed: multi-round
  // sweeps with genuine UNSAT rounds to reuse learnt clauses across.
  util::Rng rng(1234);
  for (const auto& [n, p] : std::vector<std::pair<std::size_t, double>>{
           {40, 0.30}, {50, 0.25}, {60, 0.22}, {70, 0.20}}) {
    rows.push_back({"gnp_" + std::to_string(n), graph::erdos_renyi(n, p, rng),
                    10});
  }

  util::TextTable table({"instance", "chi", "rounds", "inc_ms", "scratch_ms",
                         "speedup", "conflicts_inc", "conflicts_scratch"});
  util::BenchJsonWriter json("bench_chromatic");

  bool ok = true;
  double total_inc = 0.0;
  double total_scratch = 0.0;
  for (const Row& row : rows) {
    // Interleave the A/B reps so allocator/cache drift biases neither mode.
    Measurement inc;
    Measurement scratch;
    for (int rep = 0; rep < reps; ++rep) {
      measure_once(row, /*incremental=*/true, inc);
      measure_once(row, /*incremental=*/false, scratch);
    }
    if (inc.outcome.chromatic != scratch.outcome.chromatic) {
      std::fprintf(stderr,
                   "FATAL: %s: incremental chromatic (%d) != from-scratch "
                   "(%d)\n",
                   row.name.c_str(),
                   inc.outcome.chromatic ? static_cast<int>(*inc.outcome.chromatic)
                                         : -1,
                   scratch.outcome.chromatic
                       ? static_cast<int>(*scratch.outcome.chromatic)
                       : -1);
      ok = false;
    }
    total_inc += inc.wall_ms;
    total_scratch += scratch.wall_ms;
    std::string chi;
    if (inc.outcome.chromatic) {
      chi = std::to_string(*inc.outcome.chromatic);
    } else {
      chi = ">";
      chi += std::to_string(row.max_k);
    }
    table.add_row(
        {row.name, chi, std::to_string(inc.outcome.solve_calls),
         util::format_double(inc.wall_ms, 2),
         util::format_double(scratch.wall_ms, 2),
         util::format_double(scratch.wall_ms / inc.wall_ms, 2),
         std::to_string(inc.outcome.stats.conflicts),
         std::to_string(scratch.outcome.stats.conflicts)});
    json.begin_row(row.name);
    json.metric("chromatic", chi);
    json.metric("solve_calls",
                static_cast<std::uint64_t>(inc.outcome.solve_calls));
    json.metric("incremental_ms", inc.wall_ms);
    json.metric("scratch_ms", scratch.wall_ms);
    json.metric("speedup", scratch.wall_ms / inc.wall_ms);
    json.metric("conflicts_incremental", inc.outcome.stats.conflicts);
    json.metric("conflicts_scratch", scratch.outcome.stats.conflicts);
    json.metric("learnts_incremental", inc.outcome.stats.learnt_clauses);
    json.metric("learnts_scratch", scratch.outcome.stats.learnt_clauses);
  }

  std::printf("%s", table.render().c_str());
  std::printf(
      "totals (best-of-%d): incremental %.2f ms vs from-scratch %.2f ms -> "
      "%.2fx\n",
      reps, total_inc, total_scratch, total_scratch / total_inc);
  json.begin_row("summary");
  json.metric("total_incremental_ms", total_inc);
  json.metric("total_scratch_ms", total_scratch);
  json.metric("speedup", total_scratch / total_inc);
  json.metric("reps", static_cast<std::int64_t>(reps));
  const std::string json_path = json.write();
  if (!json_path.empty()) std::printf("json: %s\n", json_path.c_str());

  // Never-slower gate: single-round rows are parity by construction, the
  // multi-round rows must pull the total firmly below from-scratch; 10%
  // covers container timing noise without letting a real regression through.
  if (total_inc > total_scratch * 1.10) {
    std::fprintf(stderr,
                 "FAIL: incremental sweep total (%.2f ms) slower than "
                 "from-scratch (%.2f ms) beyond the 10%% noise margin\n",
                 total_inc, total_scratch);
    return 1;
  }
  return ok ? 0 : 1;
}
