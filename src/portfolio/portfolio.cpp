#include "msropm/portfolio/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "msropm/core/runner.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/solvers/dsatur.hpp"
#include "msropm/solvers/tabucol.hpp"
#include "msropm/util/fault_injector.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::portfolio {

const char* to_string(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kDsatur:
      return "dsatur";
    case StrategyKind::kCdcl:
      return "cdcl";
    case StrategyKind::kTabucol:
      return "tabucol";
    case StrategyKind::kMsropm:
      return "msropm";
  }
  return "?";
}

std::optional<StrategyKind> strategy_from_string(std::string_view name) noexcept {
  if (name == "dsatur") return StrategyKind::kDsatur;
  if (name == "cdcl") return StrategyKind::kCdcl;
  if (name == "tabucol") return StrategyKind::kTabucol;
  if (name == "msropm") return StrategyKind::kMsropm;
  return std::nullopt;
}

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kColored:
      return "colored";
    case Verdict::kUnsat:
      return "UNSAT";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

std::vector<StrategyConfig> default_strategies() {
  std::vector<StrategyConfig> strategies(3);
  strategies[0].kind = StrategyKind::kDsatur;
  strategies[1].kind = StrategyKind::kCdcl;
  strategies[2].kind = StrategyKind::kTabucol;
  return strategies;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Tabucol iteration budget per attempt (the README's lineup table was
/// measured with it).
constexpr std::size_t kTabuIterations = 50000;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Raw result of one strategy attempt, before the engine arbitrates.
struct StrategyRun {
  Verdict verdict = Verdict::kUnknown;
  graph::Coloring coloring;  ///< valid when verdict == kColored
  std::size_t conflicts = StrategyOutcome::kNoColoring;
  bool cancelled = false;
  std::string error;
  util::LimitReason limit = util::LimitReason::kNone;
};

/// Accept a heuristic/decoded coloring only after re-verifying it, so a
/// buggy or raced strategy can never publish a definitive verdict that is
/// wrong (part of the verdict-identity argument). One O(E) conflict scan
/// plus the O(V) palette-bound check.
void accept_if_proper(const graph::Graph& g, unsigned num_colors,
                      graph::Coloring&& colors, StrategyRun& run) {
  run.conflicts = graph::count_conflicts(g, colors);
  if (run.conflicts != 0) return;
  for (const graph::Color color : colors) {
    if (color >= num_colors) return;
  }
  run.verdict = Verdict::kColored;
  run.coloring = std::move(colors);
}

StrategyRun run_cdcl(const graph::Graph& g, unsigned num_colors,
                     const util::StopToken& token,
                     const util::ResourceBudget& budget) {
  StrategyRun run;
  if (token.stop_requested()) {  // encoding is not cancellable; skip it whole
    run.cancelled = true;
    return run;
  }
  const auto encoding = sat::encode_coloring(g, num_colors);
  sat::SolverOptions options;
  options.budget = budget;
  options.stop = token;
  sat::Solver solver(encoding.cnf, options);
  const sat::SolveResult result = solver.solve();
  run.cancelled = solver.cancelled();
  run.limit = solver.stats().limit_reason;
  if (result == sat::SolveResult::kSat) {
    accept_if_proper(g, num_colors, encoding.decode(solver.model()), run);
  } else if (result == sat::SolveResult::kUnsat) {
    run.verdict = Verdict::kUnsat;
  }
  return run;
}

StrategyRun run_msropm(const graph::Graph& g, unsigned num_colors,
                       const StrategyConfig& config,
                       const util::StopToken& token, util::Rng& rng) {
  StrategyRun run;
  if (token.stop_requested()) {
    run.cancelled = true;
    return run;
  }
  // The machine encodes colors as log2(K) readout bits, so it natively
  // supports power-of-two palettes only; run it at the largest 2^m <= K and
  // grade the result against the caller's K (a proper 2^m-coloring is a
  // proper K-coloring).
  unsigned machine_colors = 2;
  while (machine_colors * 2 <= num_colors && machine_colors < 128) {
    machine_colors *= 2;
  }

  core::MsropmConfig machine_config;
  machine_config.num_colors = machine_colors;
  machine_config.schedule = core::StageSchedule::paper_default();
  // The tuned physics design point of the analysis experiments (strong
  // coupling within the 20 ns anneal, SHIL above the discretization
  // threshold, jitter that anneals without washing out lock).
  machine_config.network.natural_frequency_hz = 1.3e9;
  machine_config.network.coupling_gain = 8.0e8;   // rad/s
  machine_config.network.shil_gain = 1.6e9;       // rad/s
  machine_config.network.shil_order = 2;
  machine_config.network.noise_stddev = 2.0e3;    // rad/sqrt(s)
  machine_config.network.dt = 2.0e-11;            // 1000 steps / 20 ns anneal
  machine_config.shil_ramp = phase::GainRamp{0.0, 0.5};
  machine_config.couplings_during_lock = true;

  const core::MultiStagePottsMachine machine(g, machine_config);
  core::RunnerOptions runner_options;
  runner_options.iterations = std::max<std::size_t>(1, config.msropm_iterations);
  runner_options.seed = rng();  // task-stream seeded: slots auto-diversify
  runner_options.num_threads = 1;  // stay inside this portfolio worker
  runner_options.stop = token;
  const core::RunSummary summary = core::run_iterations(machine, runner_options);
  run.cancelled = summary.cancelled;
  if (summary.completed == 0) return run;  // cancelled before any iteration
  accept_if_proper(g, num_colors, graph::Coloring(summary.best_coloring()), run);
  return run;
}

StrategyRun run_strategy(const graph::Graph& g, unsigned num_colors,
                         const StrategyConfig& config,
                         const util::StopToken& token, util::Rng& rng,
                         const util::ResourceBudget& budget) {
  StrategyRun run;
  switch (config.kind) {
    case StrategyKind::kDsatur: {
      auto result = solvers::solve_dsatur_bounded(g, num_colors);
      accept_if_proper(g, num_colors, std::move(result.colors), run);
      return run;
    }
    case StrategyKind::kCdcl:
      return run_cdcl(g, num_colors, token, budget);
    case StrategyKind::kTabucol: {
      solvers::TabucolOptions options;
      options.num_colors = num_colors;
      options.max_iterations = kTabuIterations;
      options.stop = token;
      auto result = solvers::solve_tabucol(g, options, rng);
      run.cancelled = result.cancelled;
      accept_if_proper(g, num_colors, std::move(result.colors), run);
      return run;
    }
    case StrategyKind::kMsropm:
      return run_msropm(g, num_colors, config, token, rng);
  }
  return run;
}

/// Per-instance shared state: the result under construction, the decided
/// latch, and the StopSource whose tokens all of the instance's tasks carry.
struct InstanceState {
  std::mutex mu;
  util::StopSource stop;
  bool decided = false;
  PortfolioResult result;
};

// Attempt-lifecycle metrics: one timer for attempt duration, a log-bucketed
// histogram (µs) for the cancellation latency (StopToken trip -> worker exit
// from the strategy; a histogram rather than a timer so the p99 tail is
// exact-bucketed and exported via both exposition formats), counters for
// each way an attempt can end, and batch-level heartbeat gauges.
struct PortfolioMetrics {
  obs::MetricId t_attempt = obs::timer("portfolio.attempt");
  obs::MetricId h_cancel_latency = obs::histogram("portfolio.cancel_latency_us");
  obs::MetricId c_attempts = obs::counter("portfolio.attempts");
  obs::MetricId c_wins = obs::counter("portfolio.wins");
  obs::MetricId c_cancelled = obs::counter("portfolio.cancelled");
  obs::MetricId c_timeouts = obs::counter("portfolio.timeouts");
  obs::MetricId c_skipped = obs::counter("portfolio.skipped");
  // Resource-governance / fault-injection telemetry. limit.* counts attempts
  // ended by each LimitReason; the retry histogram records retries consumed
  // per slot that needed any; degraded counts ladder invocations.
  obs::MetricId c_limit_memory = obs::counter("limit.memory");
  obs::MetricId c_limit_conflicts = obs::counter("limit.conflicts");
  obs::MetricId c_limit_propagations = obs::counter("limit.propagations");
  obs::MetricId c_limit_deadline = obs::counter("limit.deadline");
  obs::MetricId c_fault_injected = obs::counter("fault.injected");
  obs::MetricId c_fault_stalls = obs::counter("fault.stalls");
  obs::MetricId c_retries = obs::counter("portfolio.retries");
  obs::MetricId h_retry_count = obs::histogram("portfolio.retry_count");
  obs::MetricId c_degraded = obs::counter("portfolio.degraded");
  obs::MetricId g_hb_queue = obs::gauge("portfolio.hb.queue_depth");
  obs::MetricId g_hb_in_flight = obs::gauge("portfolio.hb.in_flight");
  obs::MetricId g_hb_wins = obs::gauge("portfolio.hb.wins");
  obs::MetricId g_hb_timeouts = obs::gauge("portfolio.hb.timeouts");
};

const PortfolioMetrics& pm() {
  static const PortfolioMetrics m;
  return m;
}

void note_limit_obs(util::LimitReason reason) {
  switch (reason) {
    case util::LimitReason::kNone:
      return;
    case util::LimitReason::kMemory:
      obs::add(pm().c_limit_memory, 1);
      return;
    case util::LimitReason::kConflicts:
      obs::add(pm().c_limit_conflicts, 1);
      return;
    case util::LimitReason::kPropagations:
      obs::add(pm().c_limit_propagations, 1);
      return;
    case util::LimitReason::kDeadline:
      obs::add(pm().c_limit_deadline, 1);
      return;
    case util::LimitReason::kInjected:
      obs::add(pm().c_fault_injected, 1);
      return;
  }
}

// Static span/marker names per strategy so trace events never allocate.
const char* attempt_span_name(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kDsatur: return "attempt:dsatur";
    case StrategyKind::kCdcl: return "attempt:cdcl";
    case StrategyKind::kTabucol: return "attempt:tabucol";
    case StrategyKind::kMsropm: return "attempt:msropm";
  }
  return "attempt:?";
}

const char* win_marker_name(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kDsatur: return "win:dsatur";
    case StrategyKind::kCdcl: return "win:cdcl";
    case StrategyKind::kTabucol: return "win:tabucol";
    case StrategyKind::kMsropm: return "win:msropm";
  }
  return "win:?";
}

}  // namespace

std::vector<PortfolioResult> run_portfolio_batch(
    const std::vector<PortfolioJob>& jobs, const PortfolioOptions& options,
    Schedule schedule) {
  if (options.strategies.empty()) {
    throw std::invalid_argument("portfolio: strategy list is empty");
  }
  for (const PortfolioJob& job : jobs) {
    if (job.graph == nullptr) {
      throw std::invalid_argument("portfolio: null graph in job list");
    }
    if (job.num_colors < 2 || job.num_colors > 255) {
      throw std::invalid_argument("portfolio: num_colors must be in [2, 255]");
    }
  }

  const std::size_t num_strategies = options.strategies.size();
  std::vector<InstanceState> states(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    states[i].result.outcomes.resize(num_strategies);
    for (std::size_t s = 0; s < num_strategies; ++s) {
      states[i].result.outcomes[s].kind = options.strategies[s].kind;
    }
  }

  const Clock::time_point engine_start = Clock::now();
  const util::Rng master(options.master_seed);

  // Batch-level heartbeat state: sampled by each worker between attempts (and
  // when a win/timeout lands), published as gauges + per-lane counter tracks.
  // Pure observability — never read back by the scheduling logic.
  std::atomic<std::size_t> hb_in_flight{0};
  std::atomic<std::uint64_t> hb_wins{0};
  std::atomic<std::uint64_t> hb_timeouts{0};
  const auto publish_hb = [&](std::size_t queue_depth) {
    const auto in_flight = static_cast<double>(hb_in_flight.load(std::memory_order_relaxed));
    const auto wins = static_cast<double>(hb_wins.load(std::memory_order_relaxed));
    const auto timeouts = static_cast<double>(hb_timeouts.load(std::memory_order_relaxed));
    obs::set_gauge(pm().g_hb_queue, static_cast<double>(queue_depth));
    obs::set_gauge(pm().g_hb_in_flight, in_flight);
    obs::set_gauge(pm().g_hb_wins, wins);
    obs::set_gauge(pm().g_hb_timeouts, timeouts);
    obs::trace_counter("portfolio.hb.queue_depth", static_cast<double>(queue_depth));
    obs::trace_counter("portfolio.hb.in_flight", in_flight);
    obs::trace_counter("portfolio.hb.wins", wins);
    obs::trace_counter("portfolio.hb.timeouts", timeouts);
  };

  const auto run_task = [&](std::size_t i, std::size_t s) {
    InstanceState& state = states[i];
    const StrategyConfig& config = options.strategies[s];
    // One gate load per task; every per-event obs call below hangs off it so
    // the disabled path pays nothing beyond this (obs-gate contract).
    const std::uint32_t obs_gate = obs::gate();
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.decided) {
        if (obs_gate != 0) obs::add(pm().c_skipped, 1);
        return;  // outcome stays ran == false (skipped)
      }
    }
    // Attempt span: queued->running->done, one per (instance, strategy) pair
    // that actually runs, in the lane of the worker that popped it.
    obs::Span attempt_span(attempt_span_name(config.kind), pm().t_attempt);
    attempt_span.arg("instance", i);
    attempt_span.arg(
        "queued_us",
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                       Clock::now() - engine_start)
                                       .count()));
    // Cap the deadline arithmetic: steady_clock counts nanoseconds in an
    // int64, so an "effectively infinite" timeout_ms would overflow the
    // addition and wrap the deadline into the past. A year is indistinguishable
    // from forever for a solver attempt.
    constexpr std::uint64_t kMaxTimeoutMs = 365ull * 24 * 60 * 60 * 1000;
    util::StopToken token =
        options.timeout_ms > 0
            ? state.stop.token_with_deadline(
                  Clock::now() + std::chrono::milliseconds(std::min(
                                     options.timeout_ms, kMaxTimeoutMs)))
            : state.stop.token();
    // Stream id = task position in the instance-major grid: stable across
    // schedules and worker counts, so every task sees the same RNG stream.
    util::Rng rng = master.split(i * num_strategies + s);
    const Clock::time_point task_start = Clock::now();
    StrategyRun run;
    unsigned retries = 0;
    for (;;) {
      if (util::fault::fire(util::FaultSite::kWorkerStall)) {
        // The stall fault models a descheduled / wedged worker, not a dead
        // one: sleep, then run the attempt normally. Siblings keep racing.
        if (obs_gate != 0) obs::add(pm().c_fault_stalls, 1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(util::fault::stall_ms()));
      }
      try {
        run = run_strategy(*jobs[i].graph, jobs[i].num_colors, config, token,
                           rng, options.budget);
      } catch (const std::exception& ex) {
        // Count as inconclusive, never kill the pool — but keep the reason so
        // a real defect or OOM is distinguishable from an ordinary exhausted
        // budget in the outcome record.
        run = StrategyRun{};
        run.error = ex.what();
      } catch (...) {
        run = StrategyRun{};
        run.error = "unknown exception";
      }
      if (run.limit == util::LimitReason::kNone && run.cancelled &&
          token.deadline_expired()) {
        run.limit = util::LimitReason::kDeadline;  // heuristics hit timeout_ms
      }
      // Watchdog: retry attempts an injected fault or an exception killed —
      // transient by definition. Resource/deadline breaches are NOT retried
      // (the same budget would breach identically), and a decided instance
      // (stop token without deadline) makes any retry pointless.
      const bool transient =
          !run.error.empty() || run.limit == util::LimitReason::kInjected;
      if (!transient || retries >= kMaxRetries ||
          token.stop_requested()) {
        break;
      }
      ++retries;
      if (obs_gate != 0) obs::add(pm().c_retries, 1);
      if (options.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<std::uint64_t>(options.retry_backoff_ms)
            << (retries - 1)));
      }
    }
    if (retries > 0 && obs_gate != 0) obs::observe(pm().h_retry_count, retries);
    note_limit_obs(run.limit);
    const double task_millis = millis_since(task_start);
    if (obs_gate != 0) obs::add(pm().c_attempts, 1);
    if (run.cancelled) {
      if (const auto trip = token.flag_trip_time()) {
        if (obs_gate != 0) {
          // Sibling cancellation: latency from the StopSource trip to this
          // worker actually exiting the strategy.
          const auto latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      Clock::now() - *trip)
                                      .count();
          obs::add(pm().c_cancelled, 1);
          obs::observe(pm().h_cancel_latency,
                       static_cast<std::uint64_t>(latency_ns / 1000));
          obs::trace_instant("cancelled", "latency_us",
                             static_cast<std::uint64_t>(latency_ns / 1000));
        }
      } else if (token.deadline_expired()) {
        if (obs_gate != 0) {
          obs::add(pm().c_timeouts, 1);
          obs::trace_instant("timeout", "instance", i);
        }
        hb_timeouts.fetch_add(1, std::memory_order_relaxed);
      }
    }

    std::lock_guard<std::mutex> lock(state.mu);
    StrategyOutcome& outcome = state.result.outcomes[s];
    outcome.ran = true;
    outcome.verdict = run.verdict;
    outcome.cancelled = run.cancelled;
    outcome.limit = run.limit;
    outcome.retries = retries;
    outcome.conflicts = run.conflicts;
    if (run.conflicts != StrategyOutcome::kNoColoring) {
      const std::size_t edges = jobs[i].graph->num_edges();
      outcome.quality =
          edges == 0 ? 1.0
                     : static_cast<double>(edges - run.conflicts) /
                           static_cast<double>(edges);
    }
    outcome.millis = task_millis;
    outcome.error = std::move(run.error);
    if (!state.decided && run.verdict != Verdict::kUnknown) {
      state.decided = true;
      state.result.verdict = run.verdict;
      state.result.winner = static_cast<int>(s);
      state.result.millis = millis_since(engine_start);
      if (run.verdict == Verdict::kColored) {
        state.result.coloring = std::move(run.coloring);
      }
      state.stop.request_stop();  // cancel sibling strategies cooperatively
      if (obs_gate != 0) {
        obs::add(pm().c_wins, 1);
        obs::trace_instant(win_marker_name(config.kind), "instance", i);
      }
      hb_wins.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Drain one fixed task list through an atomic cursor: the 1-worker run is
  // exactly the sequential execution of the list, and multi-worker runs pop
  // the same order.
  const auto drain = [&](const std::vector<std::pair<std::size_t, std::size_t>>&
                             tasks) {
    std::atomic<std::size_t> cursor{0};
    const auto worker = [&]() {
      for (;;) {
        const std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks.size()) return;
        if (obs::gate() != 0) {
          hb_in_flight.fetch_add(1, std::memory_order_relaxed);
          publish_hb(tasks.size() - std::min(t + 1, tasks.size()));
          run_task(tasks[t].first, tasks[t].second);
          hb_in_flight.fetch_sub(1, std::memory_order_relaxed);
          publish_hb(tasks.size() -
                     std::min(cursor.load(std::memory_order_relaxed), tasks.size()));
        } else {
          run_task(tasks[t].first, tasks[t].second);
        }
      }
    };
    if (options.num_workers <= 1) {
      worker();  // inline: no threads, bit-deterministic
    } else {
      std::vector<std::thread> pool;
      const std::size_t spawned = std::min(options.num_workers, tasks.size());
      pool.reserve(spawned);
      for (std::size_t w = 0; w < spawned; ++w) {
        pool.emplace_back([&worker, w]() {
          // Lanes are keyed by name, so worker slot w keeps ONE trace lane
          // across waves even though strategy-major re-spawns the pool.
          if (obs::tracing_enabled()) {
            obs::set_thread_lane("worker-" + std::to_string(w));
          }
          worker();
        });
      }
      for (std::thread& t : pool) t.join();
    }
  };

  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  tasks.reserve(jobs.size());
  if (schedule == Schedule::kStrategyMajor) {
    // Screening pipeline: one wave per strategy slot, with a barrier between
    // waves. The barrier is what makes the cheap-probe-first lineup pay off:
    // a heavyweight slot never starts while an earlier, cheaper slot of the
    // same instance is still running, so an instance the probe decides costs
    // exactly one probe — later slots are skipped, not raced and cancelled.
    // (Without the barrier, workers spill into the next wave right when the
    // largest probes are finishing and burn doomed duplicate work on them.)
    for (std::size_t s = 0; s < num_strategies; ++s) {
      tasks.clear();
      for (std::size_t i = 0; i < jobs.size(); ++i) tasks.emplace_back(i, s);
      drain(tasks);
    }
  } else {
    // Racing: all strategies of an instance are in flight together and the
    // first definitive verdict cancels the rest mid-run via the stop token.
    tasks.reserve(jobs.size() * num_strategies);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t s = 0; s < num_strategies; ++s) tasks.emplace_back(i, s);
    }
    drain(tasks);
  }

  // Terminal-status pass (after the drain, so no locks needed): annotate
  // every still-unknown instance with the limit that ended its attempts, and
  // — unless disabled — run the graceful-degradation ladder so the caller
  // gets a best-effort coloring instead of a bare unknown. The ladder never
  // touches the verdict: promoting a best-effort answer to a definitive one
  // is the exact strategies' job, not the fallback's.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    PortfolioResult& result = states[i].result;
    if (result.verdict != Verdict::kUnknown) continue;
    for (const StrategyOutcome& outcome : result.outcomes) {
      if (outcome.limit != util::LimitReason::kNone) {
        result.limit = outcome.limit;
        break;
      }
    }
    if (!options.degrade) continue;
    if (obs::metrics_enabled()) obs::add(pm().c_degraded, 1);
    const graph::Graph& g = *jobs[i].graph;
    const std::size_t edges = g.num_edges();
    const auto quality_of = [&](const graph::Coloring& colors) {
      const std::size_t conflicts = graph::count_conflicts(g, colors);
      return edges == 0 ? 1.0
                        : static_cast<double>(edges - conflicts) /
                              static_cast<double>(edges);
    };
    // Rung 1: bounded DSATUR — deterministic, microseconds, always yields a
    // full (possibly improper) coloring within the palette.
    auto dsatur = solvers::solve_dsatur_bounded(g, jobs[i].num_colors);
    graph::Coloring best = std::move(dsatur.colors);
    double best_quality = quality_of(best);
    // Rung 2: a short, deterministically seeded tabucol polish when DSATUR
    // left conflicts. The stream id sits past every task stream, so ladder
    // randomness never perturbs strategy attempts.
    if (best_quality < 1.0) {
      solvers::TabucolOptions tabu_options;
      tabu_options.num_colors = jobs[i].num_colors;
      tabu_options.max_iterations = 2000;
      util::Rng ladder_rng = master.split(jobs.size() * num_strategies + i);
      auto tabu = solvers::solve_tabucol(g, tabu_options, ladder_rng);
      const double tabu_quality = quality_of(tabu.colors);
      if (tabu_quality > best_quality) {
        best_quality = tabu_quality;
        best = std::move(tabu.colors);
      }
    }
    result.best_effort = std::move(best);
    result.best_effort_quality = best_quality;
  }

  std::vector<PortfolioResult> results;
  results.reserve(jobs.size());
  for (InstanceState& state : states) {
    results.push_back(std::move(state.result));
  }
  return results;
}

PortfolioResult solve_portfolio(const graph::Graph& g, unsigned num_colors,
                                const PortfolioOptions& options) {
  std::vector<PortfolioJob> jobs(1);
  jobs[0].graph = &g;
  jobs[0].num_colors = num_colors;
  auto results = run_portfolio_batch(jobs, options, Schedule::kInstanceMajor);
  return std::move(results[0]);
}

}  // namespace msropm::portfolio
