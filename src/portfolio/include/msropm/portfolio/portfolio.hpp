#pragma once
// Parallel solver portfolio for K-coloring instances.
//
// A portfolio runs several diversified strategies — bounded DSATUR, CDCL,
// Tabucol, the MSROPM machine — against the same instance over a fixed-size
// worker pool. The first strategy to reach a DEFINITIVE verdict (a verified
// proper coloring, or a CDCL UNSAT proof) wins and cancels its siblings
// through the cooperative util::StopToken that is threaded into every
// solver's inner loop. Strategies that merely exhaust their budget without a
// proper coloring are inconclusive and do NOT cancel anyone.
//
// Determinism contract (see src/portfolio/README.md for the argument):
//   - With num_workers == 1 and timeout_ms == 0, results are bit-identical
//     across runs: task order, per-task RNG streams (Rng::split of the master
//     seed) and budgets are all fixed.
//   - At any worker count (still timeout_ms == 0), VERDICTS are identical to
//     the serial run. Winner identity and timings may differ — racing is the
//     point — but a definitive verdict can never flip, because all verdicts
//     are sound (colorings are re-verified, UNSAT comes only from the
//     complete solver) and cancellation is only triggered by definitive
//     verdicts.
//   - timeout_ms > 0 introduces wall-clock deadlines and therefore genuine
//     nondeterminism; use it in services, not in reproducibility tests.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/util/resource_budget.hpp"

namespace msropm::portfolio {

enum class StrategyKind : std::uint8_t {
  kDsatur,          ///< bounded DSATUR greedy (deterministic, microseconds)
  kCdcl,            ///< CDCL on the direct encoding (complete)
  kTabucol,         ///< tabu search (seeded, fixed iteration budget): colors
                    ///< instances DSATUR cannot and CDCL does not finish
                    ///< within a deadline or conflict budget
  kMsropm,          ///< the paper's machine: best-of-N MSROPM Monte-Carlo
                    ///< iterations on the batched phase engine. Runs at the
                    ///< largest power-of-two palette <= num_colors (hardware
                    ///< stages encode log2(K) bits). Not in
                    ///< default_strategies(); opt in explicitly.
};

[[nodiscard]] const char* to_string(StrategyKind kind) noexcept;
/// Parse "dsatur", "cdcl", "tabucol", "msropm"; nullopt otherwise.
[[nodiscard]] std::optional<StrategyKind> strategy_from_string(
    std::string_view name) noexcept;

/// One strategy slot of a portfolio. The same kind may appear several times;
/// every slot draws an independent RNG stream from the master seed, so
/// duplicated slots are automatically seed-diversified.
struct StrategyConfig {
  StrategyKind kind = StrategyKind::kDsatur;
  /// MSROPM: Monte-Carlo iteration budget (the paper's best-of-40), driven
  /// through core::run_iterations' batched solve path in one worker thread.
  /// At most core::kMaxIterations (run_portfolio_batch rejects more).
  std::size_t msropm_iterations = 40;
};

/// The default lineup: DSATUR, CDCL, Tabucol. DSATUR decides the easy
/// colorable instances in microseconds, CDCL everything it can finish, and
/// Tabucol colors what DSATUR cannot when CDCL is cut short by a deadline or
/// conflict budget (src/portfolio/README.md has the evidence). The order
/// doubles as the queue order of the strategy-major sweep schedule, so each
/// slot only runs on instances the cheaper ones before it left undecided.
[[nodiscard]] std::vector<StrategyConfig> default_strategies();

/// Watchdog retry cap for attempts killed by an injected fault or an
/// exception: up to this many re-runs per (instance, strategy) slot, with
/// exponential backoff. Resource/deadline breaches are NOT retried (the same
/// budget would just breach again).
inline constexpr unsigned kMaxRetries = 2;

enum class Verdict : std::uint8_t {
  kColored,  ///< verified proper num_colors-coloring found
  kUnsat,    ///< CDCL proved no such coloring exists
  kUnknown,  ///< every strategy exhausted its budget or was cancelled
};

[[nodiscard]] const char* to_string(Verdict verdict) noexcept;

/// What one strategy slot did on one instance.
struct StrategyOutcome {
  /// Sentinel for conflicts: the strategy produced no coloring to grade
  /// (CDCL without a model, skipped, or cancelled before it started).
  static constexpr std::size_t kNoColoring = ~std::size_t{0};

  StrategyKind kind = StrategyKind::kDsatur;
  Verdict verdict = Verdict::kUnknown;
  bool ran = false;        ///< false = skipped (instance already decided)
  bool cancelled = false;  ///< stop token fired mid-run
  std::size_t conflicts = kNoColoring;  ///< conflicts of the returned coloring
  /// Solution quality of the returned coloring: satisfied edges / total
  /// edges, in [0, 1] (1.0 = proper). Negative when the strategy produced no
  /// coloring to grade. Inconclusive heuristics still report the quality of
  /// their best attempt, which is what the sweep report's quality column
  /// compares across strategies.
  double quality = -1.0;
  double millis = 0.0;                  ///< wall time of this strategy run
  std::string error;  ///< non-empty when the strategy threw (counts unknown)
  /// Why the attempt stopped short (kNone for definitive or plain-cancelled
  /// runs): a ResourceBudget breach, an expired deadline, or an injected
  /// fault. Reflects the FINAL attempt when retries happened.
  util::LimitReason limit = util::LimitReason::kNone;
  /// Retries consumed by the watchdog (attempts beyond the first; bounded by
  /// kMaxRetries). Only injected-fault and thrown attempts are retried.
  unsigned retries = 0;
};

/// Portfolio result for one instance. The engine guarantees a TERMINAL
/// status for every job: a definitive verdict, a best-effort coloring from
/// the degradation ladder, or an unknown annotated with the limit that ended
/// the attempts — never a silently lost row.
struct PortfolioResult {
  Verdict verdict = Verdict::kUnknown;
  std::optional<graph::Coloring> coloring;  ///< set when verdict == kColored
  int winner = -1;      ///< index into PortfolioOptions::strategies, -1 = none
  double millis = 0.0;  ///< wall time from engine start to this verdict
  std::vector<StrategyOutcome> outcomes;  ///< one per strategy slot
  /// First non-kNone limit among the outcomes when the verdict stayed
  /// unknown: why the exact attempts fell short.
  util::LimitReason limit = util::LimitReason::kNone;
  /// Degradation ladder output (verdict == kUnknown and degrade enabled):
  /// the best coloring bounded DSATUR + a short deterministic tabucol could
  /// produce. NOT a verdict — it may be improper (see best_effort_quality) —
  /// but every instance gets an answer. Never set for definitive verdicts.
  std::optional<graph::Coloring> best_effort;
  /// Satisfied-edge fraction of best_effort in [0, 1]; -1 when unset.
  double best_effort_quality = -1.0;
  /// True when the instance reached a terminal status (see struct comment).
  [[nodiscard]] bool terminal() const noexcept {
    return verdict != Verdict::kUnknown || best_effort.has_value() ||
           limit != util::LimitReason::kNone;
  }
};

/// Order in which a batch of instances x strategies is fed to the pool.
enum class Schedule : std::uint8_t {
  /// Screening pipeline: one wave per strategy slot (all instances), with a
  /// barrier between waves. With the default cheapest-first lineup the cheap
  /// probes decide most instances before any heavyweight starts, so later
  /// tasks are skipped, not raced-and-cancelled. This is the fast choice for
  /// sweeps.
  kStrategyMajor,
  /// All strategies of instance 0 first, then instance 1, ... Maximizes
  /// intra-instance racing (and therefore cancellation); what
  /// solve_portfolio uses, and what the cancellation stress test hammers.
  kInstanceMajor,
};

struct PortfolioOptions {
  std::vector<StrategyConfig> strategies = default_strategies();
  /// Worker threads draining the task queue. 1 = run inline on the calling
  /// thread (fully deterministic, no threads spawned).
  std::size_t num_workers = 1;
  /// Master seed; per-task RNGs are Rng(master).split(task_stream_id).
  std::uint64_t master_seed = 1;
  /// Wall-clock cap per strategy attempt, 0 = none. Nondeterministic by
  /// nature (see determinism contract above).
  std::uint64_t timeout_ms = 0;
  /// Per-attempt resource budget forwarded to every CDCL-family strategy
  /// (memory / conflicts / propagations; wall time is timeout_ms). A breach
  /// ends that attempt with its LimitReason — it never cancels siblings.
  util::ResourceBudget budget = {};
  /// Base backoff before the first watchdog retry (see kMaxRetries); doubles
  /// per retry. 0 disables the sleep (retries stay immediate and
  /// deterministic-ish for tests).
  unsigned retry_backoff_ms = 1;
  /// Graceful-degradation ladder: when every strategy left an instance
  /// unknown, run bounded DSATUR + a short deterministic tabucol post-drain
  /// and publish the best coloring as PortfolioResult::best_effort. Never
  /// changes the verdict.
  bool degrade = true;
};

/// One instance of a batch: a graph plus the palette size to decide.
struct PortfolioJob {
  const graph::Graph* graph = nullptr;
  unsigned num_colors = 4;
};

/// Run the portfolio over a batch of instances on one shared worker pool.
/// Returns one PortfolioResult per job, in job order. Throws
/// std::invalid_argument on an empty strategy list, an msropm slot whose
/// msropm_iterations exceeds core::kMaxIterations, a null graph, or
/// num_colors outside [2, 255].
[[nodiscard]] std::vector<PortfolioResult> run_portfolio_batch(
    const std::vector<PortfolioJob>& jobs, const PortfolioOptions& options,
    Schedule schedule = Schedule::kStrategyMajor);

/// Single-instance convenience wrapper: all strategies race (instance-major).
[[nodiscard]] PortfolioResult solve_portfolio(const graph::Graph& g,
                                              unsigned num_colors,
                                              const PortfolioOptions& options = {});

}  // namespace msropm::portfolio
