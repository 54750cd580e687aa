// Portfolio sweep CLI: run the msropm::portfolio solver portfolio over a grid
// of K-coloring instances (King's graphs and/or DIMACS .col files) on a
// worker pool, and print the per-instance winner/verdict/time/quality report.
//
// Usage:
//   portfolio_sweep [--kings S1,S2,...] [--colors K] [--kings-unsat S1,S2,...]
//                   [--dimacs graph.col]... [--jobs N] [--timeout-ms T]
//                   [--strategies dsatur,cdcl,tabucol,msropm[:N]]
//                   [--seed S] [--schedule strategy|instance] [--csv]
//
//   --kings        side lengths of King's-graph instances colored with
//                  --colors (default grid: 10,14,18,22,26,30 at K=4)
//   --kings-unsat  side lengths added as K=3 instances; King's graphs contain
//                  4-cliques, so these are UNSAT and exercise the CDCL proof
//                  path of the portfolio
//   --jobs         worker threads (default 1; 1 = fully deterministic)
//   --timeout-ms   wall-clock cap per strategy attempt (default 0 = none;
//                  breaks strict determinism, see src/portfolio/README.md)
//   --strategies   comma list (default dsatur,cdcl,tabucol); a kind may
//                  repeat (each slot gets its own seed stream). "msropm" runs
//                  the paper's machine as a strategy (best-of-40 batched
//                  Monte-Carlo iterations; "msropm:N" overrides the iteration
//                  budget, N in [1, 100000]), so the report compares machine
//                  rows against the SAT-side strategies on the same instances
//   --schedule     queue order: "strategy" (cheap probes first, default) or
//                  "instance" (all strategies of an instance race)
//   --csv          emit the report as CSV instead of an aligned table
//   --trace FILE   record msropm::obs spans and write a Chrome trace-event
//                  JSON (open in Perfetto / chrome://tracing; one lane per
//                  worker with attempt + solver-phase spans and heartbeat
//                  counter tracks)
//   --metrics      enable the msropm::obs metrics registry and print the
//                  merged counter/timer report after the sweep (plus the
//                  cancellation-latency summary line)
//   --metrics-json FILE  export the same snapshot as a JSON document
//   --metrics-prom FILE  export the same snapshot in Prometheus text format
//                  (both imply --metrics)
//   --fault-spec SPEC    install a util::FaultInjector schedule (grammar in
//                  fault_injector.hpp) — chaos drills; MSROPM_FAULT in the
//                  environment does the same
//   --budget-mb M / --budget-conflicts C / --budget-props P   per-attempt
//                  ResourceBudget caps (0 = unlimited); a breach ends that
//                  attempt with its LimitReason in the report's limit column
//   --no-degrade   skip the post-drain DSATUR/tabucol best-effort ladder for
//                  unknown instances
//
// The observability outputs are emitted on every exit path once the flags
// parsed — instance-loading errors and undecided sweeps included — and
// repeating any observability flag keeps the last value (with a warning).
//
// Exit code: 0 when every instance reached a definitive verdict (colored or
// UNSAT), 1 when any stayed unknown, 2 on usage errors, 3 when an exception
// (including std::bad_alloc) escaped the sweep.

#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_harness.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/portfolio/portfolio.hpp"
#include "msropm/portfolio/sweep.hpp"
#include "msropm/util/strings.hpp"

namespace {

using namespace msropm;

/// Parse "10,14,18" into side lengths; rejects junk and trailing garbage.
bool parse_size_list(const char* arg, std::vector<std::size_t>& out) {
  const auto tokens = util::split(arg, ',', /*skip_empty=*/false);
  if (tokens.empty()) return false;
  for (const std::string& token : tokens) {
    const auto value = util::parse_int(util::trim(token));
    if (!value || *value < 1) return false;
    out.push_back(static_cast<std::size_t>(*value));
  }
  return true;
}

/// Parse one strategy token: a kind name, optionally with an "msropm:N"
/// iteration budget (the machine's best-of-N count).
bool parse_strategy_token(const std::string& token,
                          portfolio::StrategyConfig& out) {
  std::string name = token;
  std::optional<long long> budget;
  if (const auto colon = token.find(':'); colon != std::string::npos) {
    name = token.substr(0, colon);
    budget = util::parse_int(util::trim(token.substr(colon + 1)));
    if (!budget || *budget < 1) return false;
  }
  const auto kind = portfolio::strategy_from_string(util::trim(name));
  if (!kind) return false;
  if (budget && *kind != portfolio::StrategyKind::kMsropm) return false;
  if (budget && *budget > cli::kMaxIterations) {
    std::fprintf(stderr, "error: msropm iterations must be at most %lld\n",
                 cli::kMaxIterations);
    return false;
  }
  out.kind = *kind;
  if (budget) out.msropm_iterations = static_cast<std::size_t>(*budget);
  return true;
}

bool parse_strategy_list(const char* arg,
                         std::vector<portfolio::StrategyConfig>& out) {
  const auto tokens = util::split(arg, ',', /*skip_empty=*/false);
  if (tokens.empty()) return false;
  for (const std::string& token : tokens) {
    portfolio::StrategyConfig config;
    if (!parse_strategy_token(token, config)) {
      std::fprintf(stderr, "invalid strategy: '%s'\n", token.c_str());
      return false;
    }
    out.push_back(config);
  }
  return true;
}

/// Parse a numeric flag value in [lo, hi]; rejects trailing garbage.
std::optional<long long> parse_flag_int(const char* value, long long lo,
                                        long long hi) {
  if (value == nullptr) return std::nullopt;
  const auto parsed = util::parse_int(util::trim(value));
  if (!parsed || *parsed < lo || *parsed > hi) return std::nullopt;
  return parsed;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kings S1,S2,...] [--colors K] "
               "[--kings-unsat S1,S2,...] [--dimacs graph.col]... [--jobs N] "
               "[--timeout-ms T] [--strategies "
               "dsatur,cdcl,tabucol,msropm[:N]] "
               "[--seed S] [--schedule strategy|instance] [--csv] "
               "[--trace FILE] [--metrics] [--metrics-json FILE] "
               "[--metrics-prom FILE] [--fault-spec SPEC] [--budget-mb M] "
               "[--budget-conflicts C] [--budget-props P] [--no-degrade]\n",
               argv0);
  return 2;
}

int run_sweep_cli(int argc, char** argv) {
  std::vector<std::size_t> kings_sides;
  std::vector<std::size_t> unsat_sides;
  std::vector<std::string> dimacs_paths;
  unsigned colors = 4;
  portfolio::SweepOptions options;
  std::vector<portfolio::StrategyConfig> strategies;
  bool csv = false;
  // The cancellation-latency summary reads the same snapshot as the report.
  cli::ObsHarness harness([](const obs::MetricsSnapshot& snap) {
    if (const auto* lat = snap.find_histogram("portfolio.cancel_latency_us");
        lat != nullptr && lat->count > 0) {
      std::printf(
          "cancellation latency: %llu cancelled, p50 %.0f us, p99 %.0f us\n",
          static_cast<unsigned long long>(lat->count), lat->percentile(50.0),
          lat->percentile(99.0));
    }
  });
  if (!cli::ObsHarness::configure_fault_env()) return 2;

  for (int i = 1; i < argc; ++i) {
    const cli::ObsHarness::Arg shared = harness.consume(argc, argv, i);
    if (shared == cli::ObsHarness::Arg::kError) return usage(argv[0]);
    if (shared == cli::ObsHarness::Arg::kConsumed) continue;
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--kings") == 0) {
      const char* v = need_value("--kings");
      if (!v || !parse_size_list(v, kings_sides)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--kings-unsat") == 0) {
      const char* v = need_value("--kings-unsat");
      if (!v || !parse_size_list(v, unsat_sides)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--colors") == 0) {
      const auto v = parse_flag_int(need_value("--colors"), 2, 255);
      if (!v) {
        std::fprintf(stderr, "--colors must be an integer in [2, 255]\n");
        return 2;
      }
      colors = static_cast<unsigned>(*v);
    } else if (std::strcmp(argv[i], "--dimacs") == 0) {
      const char* v = need_value("--dimacs");
      if (!v) return usage(argv[0]);
      dimacs_paths.emplace_back(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      const auto v = parse_flag_int(need_value("--jobs"), 1, 4096);
      if (!v) return usage(argv[0]);
      options.portfolio.num_workers = static_cast<std::size_t>(*v);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      const auto v = parse_flag_int(need_value("--timeout-ms"), 0,
                                    std::numeric_limits<long long>::max());
      if (!v) return usage(argv[0]);
      options.portfolio.timeout_ms = static_cast<std::uint64_t>(*v);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const auto v = parse_flag_int(need_value("--seed"), 0,
                                    std::numeric_limits<long long>::max());
      if (!v) return usage(argv[0]);
      options.portfolio.master_seed = static_cast<std::uint64_t>(*v);
    } else if (std::strcmp(argv[i], "--strategies") == 0) {
      const char* v = need_value("--strategies");
      if (!v || !parse_strategy_list(v, strategies)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--schedule") == 0) {
      const char* v = need_value("--schedule");
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "strategy") == 0) {
        options.schedule = portfolio::Schedule::kStrategyMajor;
      } else if (std::strcmp(v, "instance") == 0) {
        options.schedule = portfolio::Schedule::kInstanceMajor;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--budget-mb") == 0) {
      const auto v = parse_flag_int(need_value("--budget-mb"), 0,
                                    std::numeric_limits<long long>::max() >> 20);
      if (!v) return usage(argv[0]);
      options.portfolio.budget.max_memory_bytes =
          static_cast<std::uint64_t>(*v) << 20;
    } else if (std::strcmp(argv[i], "--budget-conflicts") == 0) {
      const auto v = parse_flag_int(need_value("--budget-conflicts"), 0,
                                    std::numeric_limits<long long>::max());
      if (!v) return usage(argv[0]);
      options.portfolio.budget.max_conflicts = static_cast<std::uint64_t>(*v);
    } else if (std::strcmp(argv[i], "--budget-props") == 0) {
      const auto v = parse_flag_int(need_value("--budget-props"), 0,
                                    std::numeric_limits<long long>::max());
      if (!v) return usage(argv[0]);
      options.portfolio.budget.max_propagations =
          static_cast<std::uint64_t>(*v);
    } else if (std::strcmp(argv[i], "--no-degrade") == 0) {
      options.portfolio.degrade = false;
    } else {
      std::fprintf(stderr, "unrecognized argument: %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (!strategies.empty()) options.portfolio.strategies = std::move(strategies);
  if (kings_sides.empty() && unsat_sides.empty() && dimacs_paths.empty()) {
    kings_sides = {10, 14, 18, 22, 26, 30};
  }

  // Enable observability BEFORE instance construction so even an instance
  // that fails to load leaves a report behind (via harness.finish).
  if (!harness.start()) return 2;

  std::vector<portfolio::InstanceSpec> instances;
  for (const std::size_t side : kings_sides) {
    instances.push_back(portfolio::kings_instance(side, colors));
  }
  for (const std::size_t side : unsat_sides) {
    instances.push_back(portfolio::kings_instance(side, 3));
  }
  for (const std::string& path : dimacs_paths) {
    try {
      instances.push_back(portfolio::dimacs_instance(path, colors));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), ex.what());
      return harness.finish(2);
    }
  }

  const portfolio::SweepRunner runner(options);
  const portfolio::SweepResult result = runner.run(instances);
  const auto table = runner.report(instances, result);
  std::printf("%s", csv ? table.render_csv().c_str() : table.render().c_str());
  const auto summary = runner.strategy_summary(result);
  std::printf("%s",
              csv ? summary.render_csv().c_str() : summary.render().c_str());
  std::printf(
      "sweep: %zu/%zu instances decided in %.2f ms (%zu workers, %zu "
      "strategies, seed %llu)\n",
      result.decided(), instances.size(), result.wall_ms,
      options.portfolio.num_workers, options.portfolio.strategies.size(),
      static_cast<unsigned long long>(options.portfolio.master_seed));

  return harness.finish(result.decided() == instances.size() ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  return msropm::cli::guarded_main(run_sweep_cli, argc, argv);
}
