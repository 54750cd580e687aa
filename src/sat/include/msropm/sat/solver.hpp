#pragma once
// CDCL SAT solver: two-watched-literal propagation with blocking literals
// and inlined binary clauses, 1-UIP conflict-driven clause learning, VSIDS
// variable activity on an indexed max-heap with phase saving, Luby restarts,
// activity-based learnt-clause reduction, and MiniSat-style incremental
// solving (multi-shot solve(assumptions) with failed-assumption cores;
// learnt clauses, activities and phases survive across calls).
//
// It is the "generic SAT solver" baseline of the paper, used to compute the
// exact colorings against which MSROPM accuracy is normalized. The King's
// graph 4-coloring instances (up to 2116 nodes = 8464 variables) solve in
// milliseconds.
//
// The clause database lives in a flat ClauseArena (arena.hpp): one uint32
// buffer holds every clause of length >= 3, watch lists hold
// Watcher{ClauseRef, blocker} entries (watcher.hpp), and learnt-clause
// reduction is followed by a compacting garbage collection that rewrites
// live clauses into a fresh buffer and remaps every holder. Binary clauses
// never touch the arena at all: they live implicitly in the watch lists
// (the other literal inline in the watcher), propagate without a single
// clause dereference, and are invisible to GC. On the paper's coloring
// encodings (~90% binary edge clauses) this removes the arena from most
// propagation traffic entirely.

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "msropm/sat/arena.hpp"
#include "msropm/sat/cnf.hpp"
#include "msropm/sat/order_heap.hpp"
#include "msropm/sat/watcher.hpp"
#include "msropm/util/resource_budget.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::sat {

enum class SolveResult : std::uint8_t { kSat, kUnsat, kUnknown };

/// Clause counts before and after preprocessing. Nothing fills it: the
/// solver has no preprocessor. Kept only because the frozen perfbench/ reads
/// it (ROADMAP "Benchmark hygiene").
struct PreprocessStats {
  std::size_t original_clauses = 0;
  std::size_t simplified_clauses = 0;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_learnts = 0;
  // Hot-path counters for the watcher/heap overhaul.
  std::uint64_t blocker_skips = 0;        ///< satisfied-blocker watch visits
                                          ///< that skipped the arena deref
  std::uint64_t binary_propagations = 0;  ///< enqueues from implicit binaries
  std::uint64_t heap_decisions = 0;       ///< decisions served by VarOrderHeap
  // Clause-arena accounting (all in 4-byte words).
  std::uint64_t gc_runs = 0;           ///< compacting garbage collections
  std::uint64_t gc_freed_words = 0;    ///< words reclaimed across all GCs
  std::uint64_t arena_alloc_words = 0; ///< lifetime words handed to clauses
  std::uint64_t arena_peak_words = 0;  ///< high-water mark of the live buffer
  /// Why the LAST solve() call returned kUnknown (kNone for definitive
  /// results and for plain sibling-cancellation): which ResourceBudget limit
  /// breached, kDeadline for an expired StopToken deadline, or kInjected for
  /// a FaultInjector trip. Reset at every solve() entry.
  util::LimitReason limit_reason = util::LimitReason::kNone;
};

struct SolverOptions {
  /// Give up after this many conflicts PER solve() call (0 = unlimited).
  std::uint64_t conflict_limit = 0;
  /// Base interval (conflicts) of the Luby restart sequence.
  std::uint64_t restart_base = 64;
  /// Multiplicative VSIDS decay applied after each conflict.
  double activity_decay = 0.95;
  /// Initial cap on learnt clauses before reduction (grows geometrically).
  std::size_t learnt_cap = 4096;
  /// Default polarity for first-time decisions (false mirrors MiniSat).
  bool default_polarity = false;
  /// Per-call resource budget (memory / conflicts / propagations; wall time
  /// rides the stop token's deadline). A breach returns kUnknown with
  /// stats().limit_reason set; the solver stays usable for the next call.
  /// The default (unlimited) budget leaves the search path untouched.
  util::ResourceBudget budget = {};
  /// Cooperative cancellation: polled during clause ingestion and every few
  /// dozen decisions/conflicts of the search. When it fires, solve() returns
  /// kUnknown and cancelled() turns true. The default token never fires.
  util::StopToken stop = {};
  /// Observability heartbeat cadence: when the obs gate is open, publish a
  /// progress sample (conflicts/sec, decisions/sec, props/conflict, learnt-DB
  /// occupancy, restart interval, recent avg LBD) every this many conflicts,
  /// plus at every restart and learnt reduction. 0 disables the conflict
  /// cadence (restart/reduction samples still fire). The heartbeat reads
  /// search state but never writes it: trajectories are bit-identical with
  /// observability enabled, disabled, or compiled out.
  std::uint64_t heartbeat_interval = 1024;
};

/// Multi-shot, assumption-complete CDCL solver (MiniSat incremental style).
///
/// solve() / solve(assumptions) may be called any number of times on one
/// Solver. Between calls the solver backtracks to the root level but KEEPS
/// everything worth keeping: learnt clauses (arena records and implicit
/// binary watchers), variable activities, saved phases, and the restart/
/// reduction cadence — which is the whole point of incremental solving.
///
/// Assumptions are asserted as decision levels 1..N (never as permanent
/// units), so an UNSAT-under-assumptions verdict does not poison the solver:
/// the next call simply re-solves under different assumptions. After such a
/// verdict failed_assumptions() holds a subset of the assumptions whose
/// conjunction with the formula is unsatisfiable (MiniSat's analyzeFinal);
/// formula_unsat() distinguishes "the formula itself is refuted" from
/// "these assumptions are".
class Solver {
 public:
  explicit Solver(const Cnf& cnf, SolverOptions options = {});

  // Non-copyable, non-movable: order_heap_ holds a pointer to activity_, so
  // a compiler-generated copy/move would leave the new heap reading the old
  // solver's activities (dangling once it is destroyed). Construct in place.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  Solver(Solver&&) = delete;
  Solver& operator=(Solver&&) = delete;

  /// Run the search. kSat fills model(); kUnknown when conflict_limit was
  /// hit for this call or options.stop fired. Callable repeatedly.
  [[nodiscard]] SolveResult solve();

  /// Solve under assumptions. kUnsat means the formula is unsatisfiable
  /// together with the assumptions — consult failed_assumptions() /
  /// formula_unsat() to tell which. Callable repeatedly; learnt clauses are
  /// shared across calls. Throws std::invalid_argument for an assumption on
  /// an out-of-range variable.
  [[nodiscard]] SolveResult solve(const std::vector<Lit>& assumptions);

  /// After solve(assumptions) returned kUnsat: the subset of the assumptions
  /// that conflict analysis found responsible. Empty when the formula itself
  /// is UNSAT (see formula_unsat()).
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const noexcept {
    return failed_assumptions_;
  }

  /// True once the formula has been refuted WITHOUT assumptions: every
  /// subsequent solve() call returns kUnsat no matter the assumptions.
  [[nodiscard]] bool formula_unsat() const noexcept { return !ok_; }

  /// Model indexed by var (0/1). Valid after a solve() that returned kSat,
  /// until the next solve() call.
  [[nodiscard]] const std::vector<std::uint8_t>& model() const noexcept {
    return model_;
  }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

  /// True when options.stop interrupted construction or search; the
  /// corresponding solve() returned (or will return) kUnknown.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

  /// Always empty. Kept only because the frozen perfbench/ compiles against
  /// it (ROADMAP "Benchmark hygiene").
  [[nodiscard]] std::optional<PreprocessStats> preprocess_stats()
      const noexcept {
    return std::nullopt;
  }

  /// Watcher-integrity invariant: no watch list, reason slot, or learnt-list
  /// entry references a deleted or out-of-bounds arena record; every long
  /// watcher's blocker is a literal of its clause; every binary watcher's
  /// inline literal is in range (binary watchers have no arena record and
  /// must survive GC untouched). Holds between any two solver steps outside
  /// propagate()/reduce_learnts() internals; asserted after every
  /// reduce_learnts() in debug builds and checked post-solve by the growth
  /// regression test.
  [[nodiscard]] bool clause_refs_clean() const noexcept;

  /// Words currently occupied by the clause arena (live + not-yet-collected).
  [[nodiscard]] std::size_t arena_used_words() const noexcept {
    return arena_.used_words();
  }

 private:
  enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };
  using BinaryClause = std::pair<Lit, Lit>;

  void setup_arrays(std::size_t num_vars);
  /// Add one problem clause; stored long (>= 3 lits) clauses are appended to
  /// `stored`, binary clauses to `binaries` — both for deferred,
  /// exactly-reserved watch construction.
  void ingest_clause(Clause&& lits, std::vector<ClauseRef>& stored,
                     std::vector<BinaryClause>& binaries);
  void init_from(const Cnf& cnf);
  /// Count every watcher (two per long clause, two per binary) in a
  /// literal-occurrence pass, reserve each watch list exactly once, then
  /// attach binaries first and long clauses after: ingestion allocates per
  /// non-empty literal list, never per clause, and no watch list reallocates
  /// mid-ingest.
  void build_watches(const std::vector<ClauseRef>& refs,
                     const std::vector<BinaryClause>& binaries);

  [[nodiscard]] LBool value(Lit l) const noexcept {
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef) return LBool::kUndef;
    const bool b = (v == LBool::kTrue) != l.negated();
    return b ? LBool::kTrue : LBool::kFalse;
  }

  void attach_clause(ClauseRef cr);
  void attach_binary(Lit a, Lit b);
  void enqueue(Lit l, Reason reason);
  /// Returns the conflict: Reason::none() when propagation completed,
  /// Reason::clause(cref) for a long-clause conflict, or a binary-tagged
  /// Reason whose two literals propagate() left in bin_conflict_.
  [[nodiscard]] Reason propagate();
  void analyze(Reason conflict, std::vector<Lit>& learnt_out,
               std::uint32_t& backtrack_level);
  void backtrack(std::uint32_t level);
  /// The actual CDCL search behind solve(assumptions); the public entry is a
  /// thin dispatcher so fully-disabled observability costs one branch per
  /// solve() call, not per search step.
  [[nodiscard]] SolveResult solve_internal(const std::vector<Lit>& assumptions);
  /// Instrumented path: wraps solve_internal in an obs span annotated with
  /// the call's conflict/restart deltas and republishes the SolverStats
  /// deltas as msropm::obs registry counters (the struct stays the façade —
  /// both views always agree).
  [[nodiscard]] SolveResult solve_obs(const std::vector<Lit>& assumptions);
  /// MiniSat analyzeFinal: starting from falsified assumption p, walk the
  /// trail backwards through reasons and collect the assumption decisions
  /// that imply ~p into failed_assumptions_.
  void analyze_final(Lit p);
  /// Heapify the full variable set and switch pick_branch_lit to the heap.
  /// Called at the first conflict: before any conflict the activities are
  /// the static ingest occurrence counts (VSIDS only bumps in analyze), so
  /// the pre-heap linear scan provably picks the same decisions — and on
  /// zero-conflict instances (the paper's King's encodings) the heap's
  /// O(V log V) churn is never paid at all.
  void activate_heap();
  /// Observability-only conflict bookkeeping (called when the obs gate is
  /// open): records the learnt clause's LBD/length and the conflict trail
  /// depth into obs histograms, accumulates the recent-LBD window, and
  /// publishes a heartbeat every options_.heartbeat_interval conflicts.
  /// Reads search state, writes only hb_* members — never the search.
  void note_conflict_obs(const std::vector<Lit>& learnt, std::size_t trail_depth);
  /// Publish one heartbeat sample as obs gauges + trace counter-track events
  /// and reset the rate window.
  void publish_heartbeat();
  [[nodiscard]] std::optional<Lit> pick_branch_lit();
  void bump_var(Var v);
  void bump_clause(ClauseRef cr);
  void decay_activities();
  void reduce_learnts();
  /// Drop every deleted ref from every watch list (order-preserving; binary
  /// watchers are never deleted). Runs after each reduce_learnts so the
  /// stale-reference invariant holds eagerly instead of decaying lazily
  /// through propagate().
  void purge_watches();
  /// Compacting GC: rewrite live clauses into a fresh arena and remap watch
  /// lists, reason slots, and the learnt list through forwarding refs.
  /// Implicit binaries hold no refs, so they are untouched — shrinking GC
  /// work by exactly the binary fraction of the database.
  void garbage_collect();
  void note_arena_peak() noexcept;
  [[nodiscard]] static std::uint64_t luby(std::uint64_t i) noexcept;
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);

  std::size_t num_vars_;
  ClauseArena arena_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index
  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;  // saved phase per var
  std::vector<std::uint32_t> level_;
  std::vector<Reason> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  VarOrderHeap order_heap_{&activity_};  // VSIDS decision order, O(log V) pops
  bool heap_active_ = false;  // heap engages at the first conflict
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<std::uint8_t> seen_;
  std::vector<ClauseRef> learnt_refs_;  // long learnts only; binaries are implicit
  std::size_t learnt_binaries_ = 0;     // implicit learnt binaries ever attached
  std::array<Lit, 2> bin_conflict_{};   // lits of a binary conflict (propagate)
  // Scratch buffers reused across calls so the search hot path (analyze /
  // minimize / reduce) performs no per-conflict heap allocations.
  Clause ingest_scratch_;
  std::vector<Var> analyze_cleanup_;
  std::vector<Lit> minimize_stack_;
  std::vector<Var> minimize_clear_;
  std::vector<ClauseRef> reduce_candidates_;
  std::vector<Lit> assumptions_;         // per-call, set at solve() entry
  std::vector<Lit> failed_assumptions_;  // set on kUnsat
  // Heartbeat window state (observability only — nothing below is ever read
  // by the search, so mutating it cannot perturb the trajectory).
  std::int64_t hb_last_ns_ = 0;          // wall clock at last sample
  std::uint64_t hb_last_conflicts_ = 0;  // rate-window baselines
  std::uint64_t hb_last_decisions_ = 0;
  std::uint64_t hb_last_propagations_ = 0;
  std::uint64_t hb_lbd_sum_ = 0;         // recent-LBD window (reset per sample)
  std::uint64_t hb_lbd_count_ = 0;
  std::uint64_t hb_conflicts_since_ = 0; // conflicts since last sample
  std::uint64_t hb_restart_interval_ = 0;  // current Luby restart target
  std::vector<std::uint32_t> lbd_scratch_;  // LBD distinct-level scratch
  std::size_t learnt_cap_ = 0;  // reduction threshold, persists across calls
  bool ok_ = true;          // false once a top-level conflict is derived
  bool db_incomplete_ = false;  // cancelled during ingest: SAT never provable
  bool cancelled_ = false;      // last call was interrupted by options_.stop
  // Resource-governance state. attached_watchers_ counts every live watcher
  // ever attached minus purges (8 bytes each in the accounting model);
  // memory_model_bytes() = arena words * 4 + watchers * 8. db_limit_ records
  // a breach that happened during CONSTRUCTION (ingest) so every
  // subsequent solve() reports it. The per-call fields are set at solve entry.
  std::uint64_t attached_watchers_ = 0;
  util::LimitReason db_limit_ = util::LimitReason::kNone;
  std::uint64_t prop_budget_ = 0;  // per-call: stats_.propagations cap
  bool budget_active_ = false;     // hoisted limited() for the hot path
  [[nodiscard]] std::uint64_t memory_model_bytes() const noexcept {
    return (static_cast<std::uint64_t>(arena_.used_words())) * 4 +
           attached_watchers_ * 8;
  }
  /// kNone, or the first budget limit currently breached. Cheap enough for
  /// the conflict branch; callers gate on budget_active_.
  [[nodiscard]] util::LimitReason budget_breach() const noexcept;
  SolverOptions options_;
  SolverStats stats_;
  std::vector<std::uint8_t> model_;
};

/// Convenience wrapper: solve a CNF and return the model if SAT.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> solve_cnf(
    const Cnf& cnf, SolverOptions options = {});

}  // namespace msropm::sat
