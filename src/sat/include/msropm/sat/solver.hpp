#pragma once
// CDCL SAT solver: two-watched-literal propagation with blocking literals
// and inlined binary clauses, 1-UIP conflict-driven clause learning, VSIDS
// variable activity on an indexed max-heap with phase saving, Luby restarts,
// and activity-based learnt-clause reduction. A Solver solves one formula
// once.
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
#include <span>
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
  /// Why solve() returned kUnknown (kNone for definitive results and for
  /// plain sibling-cancellation): which ResourceBudget limit breached,
  /// kDeadline for an expired StopToken deadline, or kInjected for a
  /// FaultInjector trip. Set during construction when ingest was cut short.
  util::LimitReason limit_reason = util::LimitReason::kNone;
};

/// Multiplicative VSIDS decay applied after each conflict.
inline constexpr double kVarActivityDecay = 0.95;
/// Polarity of first-time decisions (false mirrors MiniSat).
inline constexpr bool kDefaultPolarity = false;

struct SolverOptions {
  /// Base interval (conflicts) of the Luby restart sequence.
  std::uint64_t restart_base = 64;
  /// Initial cap on learnt clauses before reduction (grows geometrically).
  std::size_t learnt_cap = 4096;
  /// Resource budget (memory / conflicts / propagations; wall time rides the
  /// stop token's deadline). A breach returns kUnknown with
  /// stats().limit_reason set. The default (unlimited) budget leaves the
  /// search path untouched.
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

/// Single-shot CDCL solver: construct it on a formula, call solve() once.
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

  /// Run the search. kSat fills model(); kUnknown when a budget limit was
  /// hit or options.stop fired. A second call throws std::logic_error.
  [[nodiscard]] SolveResult solve();

  /// Model indexed by var (0/1). Valid after solve() returned kSat.
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
  /// `stored`, binary clauses to `binaries` — both for deferred watch
  /// construction — and every literal l of a stored clause counts one
  /// ingest-block slot for list ~l.
  void ingest_clause(std::span<const Lit> clause, std::vector<ClauseRef>& stored,
                     std::vector<BinaryClause>& binaries);
  void init_from(const Cnf& cnf);
  /// Carve every watch list's slice out of one ingest block (the slots
  /// ingest_clause counted), then attach binaries first and long clauses
  /// after: ingestion makes one watch allocation in total, and neither it nor
  /// any later move of an original clause's watcher reallocates a list.
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
  /// The actual CDCL search behind solve(); the public entry is a thin
  /// dispatcher so fully-disabled observability costs one branch per solve,
  /// not per search step.
  [[nodiscard]] SolveResult solve_internal();
  /// Instrumented path: wraps solve_internal in an obs span annotated with
  /// the conflict/restart counts and publishes the SolverStats totals as
  /// msropm::obs registry counters (the struct stays the façade — both views
  /// always agree).
  [[nodiscard]] SolveResult solve_obs();
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
  // Indexed by Lit::index. Original clauses' watchers live in one ingest
  // block; a list that outgrows its slice (learnt watchers) moves to its
  // own heap buffer.
  WatchLists watches_;
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
  // Scratch buffers reused across conflicts so the search hot path (analyze /
  // minimize / reduce) performs no per-conflict heap allocations.
  Clause ingest_scratch_;
  std::vector<Var> analyze_cleanup_;
  std::vector<Lit> minimize_stack_;
  std::vector<Var> minimize_clear_;
  std::vector<ClauseRef> reduce_candidates_;
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
  std::size_t learnt_cap_ = 0;  // reduction threshold (grows geometrically)
  bool ok_ = true;          // false once ingest derives a top-level conflict
  bool cancelled_ = false;  // construction or search was cut short
  bool solved_ = false;     // solve() has run
  // Resource-governance state. attached_watchers_ counts every live watcher
  // ever attached minus purges (8 bytes each in the accounting model);
  // memory_model_bytes() = arena words * 4 + watchers * 8.
  std::uint64_t attached_watchers_ = 0;
  bool budget_active_ = false;  // hoisted limited() for the hot path
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

}  // namespace msropm::sat
