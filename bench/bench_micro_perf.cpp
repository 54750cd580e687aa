// google-benchmark microbenchmarks of the simulation substrates: phase-engine
// step throughput (the cost driver of every experiment), circuit-engine
// transient cost, SAT exact-coloring baseline and SA kernels. Also the
// observability overhead gate: BM_ObsSpanOverhead hard-fails the whole binary
// if a dynamically-disabled msropm::obs span costs more than a few ns.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "msropm/analysis/experiments.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/circuit/fabric.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/solvers/maxcut_sa.hpp"
#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/fault_injector.hpp"

using namespace msropm;

namespace {

void BM_PhaseEngineStep(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  phase::PhaseBatch net(g, analysis::default_machine_config().network, 1);
  net.set_couplings_active(0, true);
  util::Rng rng(1);
  net.randomize_phases(0, rng);
  for (auto _ : state) {
    net.step({&rng, 1});
    benchmark::DoNotOptimize(net.phases(0).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_PhaseEngineStep)->Arg(7)->Arg(20)->Arg(32)->Arg(46);

void BM_MsropmFullSolve(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  core::MultiStagePottsMachine machine(g, analysis::default_machine_config());
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.solve(rng).colors.data());
  }
}
BENCHMARK(BM_MsropmFullSolve)->Arg(7)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_CircuitFabricStep(benchmark::State& state) {
  const auto g = graph::kings_graph(3, 3);
  circuit::RoscFabric fabric(g, circuit::FabricParams::paper_defaults());
  fabric.set_couplings_enabled(true);
  for (auto _ : state) {
    fabric.step();
    benchmark::DoNotOptimize(fabric.output(0));
  }
}
BENCHMARK(BM_CircuitFabricStep);

void BM_SatExactColoring(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  for (auto _ : state) {
    auto coloring = sat::solve_exact_coloring(g, 4);
    benchmark::DoNotOptimize(coloring);
  }
}
BENCHMARK(BM_SatExactColoring)->Arg(7)->Arg(20)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Propagation/decision hot-path microbench: CDCL on the direct encoding,
// surfacing the watcher/heap counters — blocker_skips
// (satisfied-blocker visits that skipped the arena), binary_propagations
// (enqueues straight from implicit binary watchers) and heap_decisions
// (decisions served by the VSIDS order heap after it engages at the first
// conflict).
void BM_SatPropagationHotPath(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  const auto enc = sat::encode_coloring(g, 4);
  sat::SolverStats last{};
  for (auto _ : state) {
    sat::Solver solver(enc.cnf, sat::SolverOptions{});
    auto result = solver.solve();
    benchmark::DoNotOptimize(result);
    last = solver.stats();
  }
  state.counters["propagations"] = static_cast<double>(last.propagations);
  state.counters["blocker_skips"] = static_cast<double>(last.blocker_skips);
  state.counters["binary_props"] = static_cast<double>(last.binary_propagations);
  state.counters["heap_decisions"] = static_cast<double>(last.heap_decisions);
}
BENCHMARK(BM_SatPropagationHotPath)->Arg(20)->Arg(46)
    ->Unit(benchmark::kMillisecond);

void BM_SaPotts(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  util::Rng rng(3);
  for (auto _ : state) {
    auto result = solvers::solve_sa_potts(g, solvers::SaPottsOptions{}, rng);
    benchmark::DoNotOptimize(result.conflicts);
  }
}
BENCHMARK(BM_SaPotts)->Arg(7)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_MaxCutSa(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::kings_graph_square(side);
  util::Rng rng(4);
  for (auto _ : state) {
    auto result = solvers::solve_maxcut_sa(g, solvers::MaxCutSaOptions{}, rng);
    benchmark::DoNotOptimize(result.cut);
  }
}
BENCHMARK(BM_MaxCutSa)->Arg(7)->Arg(20)->Unit(benchmark::kMillisecond);

// Overhead gate of the observability contract (src/obs/README.md): with obs
// compiled in but dynamically disabled, constructing + destroying a Span must
// cost at most one relaxed atomic load and a branch — single-digit ns. The
// benchmark reports the measured cost and HARD-FAILS (exit 1) past the
// threshold, so a regression that sneaks work onto the disabled path cannot
// land silently. A second chrono-timed loop (independent of the benchmark
// timer) feeds the gate, immune to google-benchmark's own reporting quirks.
void BM_ObsSpanOverhead(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);
  static const obs::MetricId timer_id = obs::timer("bench.obs_span");
  for (auto _ : state) {
    obs::Span span("bench.span", timer_id);
    span.arg("k", 1);
    benchmark::DoNotOptimize(&span);
  }

  constexpr std::size_t kSpans = 1u << 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    obs::Span span("bench.span", timer_id);
    span.arg("k", i);
    benchmark::DoNotOptimize(&span);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_span =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      static_cast<double>(kSpans);
  state.counters["disabled_ns_per_span"] = ns_per_span;

  // ~8 ns is generous: one relaxed load + branch measures well under 2 ns on
  // any x86-64 this repo targets; the slack absorbs CI-machine noise without
  // letting real work (a clock read, a map lookup) through.
  constexpr double kMaxDisabledNsPerSpan = 8.0;
  if (ns_per_span > kMaxDisabledNsPerSpan) {
    std::fprintf(stderr,
                 "FAIL: disabled obs::Span costs %.2f ns (budget %.1f ns) — "
                 "the dynamically-disabled path must stay one branch\n",
                 ns_per_span, kMaxDisabledNsPerSpan);
    std::exit(1);
  }
}
BENCHMARK(BM_ObsSpanOverhead);

// Same gate for the histogram path: a disabled obs::observe() is one relaxed
// gate load + branch, and compiling histograms in must not add work to it.
void BM_ObsHistogramOverhead(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);
  static const obs::MetricId hist_id = obs::histogram("bench.obs_hist");
  for (auto _ : state) {
    obs::observe(hist_id, 42);
    benchmark::DoNotOptimize(&hist_id);
  }

  constexpr std::size_t kObserves = 1u << 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kObserves; ++i) {
    obs::observe(hist_id, i);
    benchmark::DoNotOptimize(&hist_id);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_observe =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      static_cast<double>(kObserves);
  state.counters["disabled_ns_per_observe"] = ns_per_observe;

  constexpr double kMaxDisabledNsPerObserve = 8.0;
  if (ns_per_observe > kMaxDisabledNsPerObserve) {
    std::fprintf(stderr,
                 "FAIL: disabled obs::observe costs %.2f ns (budget %.1f ns) "
                 "— the bit_width/bucket work must stay behind the gate\n",
                 ns_per_observe, kMaxDisabledNsPerObserve);
    std::exit(1);
  }
}
BENCHMARK(BM_ObsHistogramOverhead);

// Same gate for the fault injector: every engine hot loop carries fault
// points (propagate/analyze/GC/alloc/step), so an UNCONFIGURED injector must
// cost exactly what the obs gate costs — one relaxed atomic load and a
// predicted branch. All counting lives behind should_fire(), which
// util::fault::fire() only reaches when armed.
void BM_FaultGateOverhead(benchmark::State& state) {
  util::fault::disarm();
  for (auto _ : state) {
    bool fired = util::fault::fire(util::FaultSite::kPropagate);
    benchmark::DoNotOptimize(fired);
  }

  constexpr std::size_t kChecks = 1u << 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChecks; ++i) {
    bool fired = util::fault::fire(util::FaultSite::kPropagate);
    benchmark::DoNotOptimize(fired);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_check =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      static_cast<double>(kChecks);
  state.counters["disabled_ns_per_check"] = ns_per_check;

  constexpr double kMaxDisabledNsPerCheck = 8.0;
  if (ns_per_check > kMaxDisabledNsPerCheck) {
    std::fprintf(stderr,
                 "FAIL: disarmed fault gate costs %.2f ns (budget %.1f ns) — "
                 "arrival counting must stay behind the armed() gate\n",
                 ns_per_check, kMaxDisabledNsPerCheck);
    std::exit(1);
  }
}
BENCHMARK(BM_FaultGateOverhead);

// Companion number for the README: what a span costs when tracing IS on
// (two clock reads + a ring push). Not gated — enabled-path cost is a
// documented price, not a contract.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  obs::set_thread_lane("bench");
  for (auto _ : state) {
    obs::Span span("bench.span.on");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_tracing_enabled(false);
  obs::reset();
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_KingsGraphConstruction(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto g = graph::kings_graph_square(side);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_KingsGraphConstruction)->Arg(20)->Arg(46);

}  // namespace
