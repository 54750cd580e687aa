#include "msropm/sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>

#include "msropm/obs/obs.hpp"
#include "msropm/util/fault_injector.hpp"

namespace msropm::sat {

using util::FaultSite;
using util::LimitReason;

namespace {

// The stale-reference invariant is verified after every reduce_learnts()/GC
// in debug builds and in sanitizer builds (MSROPM_SAT_CHECK_INVARIANTS is
// defined by the MSROPM_SANITIZE CMake presets, which otherwise compile with
// NDEBUG): a violation here is exactly the use-after-free class ASan/TSan
// hunt for, so it must not be compiled out of those builds.
#if !defined(NDEBUG) || defined(MSROPM_SAT_CHECK_INVARIANTS)
constexpr bool kCheckInvariants = true;
#else
constexpr bool kCheckInvariants = false;
#endif

// Metric ids for the solver's phase timers and SolverStats counters,
// interned once per process. The counters mirror the SolverStats struct
// field-for-field: solve_obs() publishes each solver's totals once, so
// registry totals and the struct façade always agree.
struct SolverMetrics {
  obs::MetricId t_ingest = obs::timer("sat.ingest");
  obs::MetricId t_solve = obs::timer("sat.solve");
  obs::MetricId t_propagate = obs::timer("sat.propagate");
  obs::MetricId t_analyze = obs::timer("sat.analyze");
  obs::MetricId t_reduce = obs::timer("sat.reduce_gc");
  obs::MetricId c_decisions = obs::counter("sat.decisions");
  obs::MetricId c_propagations = obs::counter("sat.propagations");
  obs::MetricId c_conflicts = obs::counter("sat.conflicts");
  obs::MetricId c_restarts = obs::counter("sat.restarts");
  obs::MetricId c_learnt = obs::counter("sat.learnt_clauses");
  obs::MetricId c_removed = obs::counter("sat.removed_learnts");
  obs::MetricId c_blocker_skips = obs::counter("sat.blocker_skips");
  obs::MetricId c_binary_props = obs::counter("sat.binary_propagations");
  obs::MetricId c_heap_decisions = obs::counter("sat.heap_decisions");
  obs::MetricId c_gc_runs = obs::counter("sat.gc_runs");
  obs::MetricId c_gc_freed = obs::counter("sat.gc_freed_words");
  obs::MetricId g_arena_alloc = obs::gauge("sat.arena_alloc_words");
  obs::MetricId g_arena_peak = obs::gauge("sat.arena_peak_words");
  // Search-quality histograms (log-bucketed; feed the clause-tier tuning).
  obs::MetricId h_lbd = obs::histogram("sat.lbd");
  obs::MetricId h_learnt_len = obs::histogram("sat.learnt_len");
  obs::MetricId h_trail_depth = obs::histogram("sat.trail_depth_at_conflict");
  // Heartbeat gauges: latest progress sample (also emitted as trace counter
  // tracks so Perfetto graphs them per worker lane).
  obs::MetricId g_hb_cps = obs::gauge("sat.hb.conflicts_per_sec");
  obs::MetricId g_hb_dps = obs::gauge("sat.hb.decisions_per_sec");
  obs::MetricId g_hb_ppc = obs::gauge("sat.hb.props_per_conflict");
  obs::MetricId g_hb_learnt_live = obs::gauge("sat.hb.learnt_live");
  obs::MetricId g_hb_arena_words = obs::gauge("sat.hb.arena_words");
  obs::MetricId g_hb_restart = obs::gauge("sat.hb.restart_interval");
  obs::MetricId g_hb_avg_lbd = obs::gauge("sat.hb.avg_recent_lbd");
};

// Heartbeat wall clock. Deliberately NOT the obs trace epoch: that helper
// only exists in obs-enabled builds, and the heartbeat is only ever taken
// when the gate is open, so absolute origin does not matter — only deltas.
std::int64_t hb_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const SolverMetrics& sm() {
  static const SolverMetrics m;
  return m;
}

}  // namespace

Solver::Solver(const Cnf& cnf, SolverOptions options) : options_(options) {
  obs::Span ingest_span("sat.ingest", sm().t_ingest);
  ingest_span.arg("vars", cnf.num_vars());
  ingest_span.arg("clauses", cnf.num_clauses());
  learnt_cap_ = options_.learnt_cap;
  init_from(cnf);
  if (!cancelled_ && ok_ && options_.budget.max_memory_bytes != 0 &&
      memory_model_bytes() > options_.budget.max_memory_bytes) {
    // The ingested formula alone exceeds the memory budget: solve() reports
    // kUnknown / kMemory.
    cancelled_ = true;
    stats_.limit_reason = LimitReason::kMemory;
  }
}

void Solver::setup_arrays(std::size_t num_vars) {
  num_vars_ = num_vars;
  watches_.reset(2 * num_vars);
  assigns_.assign(num_vars, LBool::kUndef);
  polarity_.assign(num_vars, kDefaultPolarity ? 1 : 0);
  level_.assign(num_vars, 0);
  reason_.assign(num_vars, Reason::none());
  activity_.assign(num_vars, 0.0);
  seen_.assign(num_vars, 0);
  // Conflict-analysis scratch is var-bounded: every entry is pushed under a
  // fresh seen_ mark. Reserving here keeps analyze()/lit_redundant()
  // allocation-free from the first conflict on.
  analyze_cleanup_.reserve(num_vars);
  minimize_stack_.reserve(num_vars);
  minimize_clear_.reserve(num_vars);
}

void Solver::ingest_clause(std::span<const Lit> clause,
                           std::vector<ClauseRef>& stored,
                           std::vector<BinaryClause>& binaries) {
  if (!ok_) return;
  // Normalize: sort, drop duplicate literals; detect tautologies. A 2-literal
  // clause (~94% of a coloring encoding) is ordered in place; longer ones
  // are sorted in the reused scratch buffer, so ingest allocates literal
  // storage only in the arena, never one vector per clause.
  std::array<Lit, 2> pair{};
  std::span<const Lit> lits;
  if (clause.size() == 2) {
    pair = {std::min(clause[0], clause[1]), std::max(clause[0], clause[1])};
    lits = std::span<const Lit>(pair.data(), pair[0] == pair[1] ? 1 : 2);
  } else {
    ingest_scratch_.assign(clause.begin(), clause.end());
    std::sort(ingest_scratch_.begin(), ingest_scratch_.end());
    ingest_scratch_.erase(
        std::unique(ingest_scratch_.begin(), ingest_scratch_.end()),
        ingest_scratch_.end());
    lits = ingest_scratch_;
  }
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i].var() == lits[i + 1].var()) return;  // tautology
  }
  if (lits.empty()) {
    ok_ = false;
    return;
  }
  if (lits.size() == 1) {
    if (value(lits[0]) == LBool::kFalse) {
      ok_ = false;
      return;
    }
    if (value(lits[0]) == LBool::kUndef) enqueue(lits[0], Reason::none());
    return;
  }
  // List ~l needs one ingest slot per clause containing l: a clause's
  // watchers stay in the lists of its own literals, at most one per list.
  for (Lit l : lits) {
    activity_[l.var()] += 1.0;
    watches_.add_slot((~l).index());
  }
  if (lits.size() == 2) {
    // Binary clauses live implicitly in the watch lists: no arena record now
    // or ever, so they cost nothing during GC and propagate inline.
    binaries.emplace_back(lits[0], lits[1]);
    return;
  }
  stored.push_back(arena_.alloc(lits, /*learnt=*/false));
}

void Solver::build_watches(const std::vector<ClauseRef>& refs,
                           const std::vector<BinaryClause>& binaries) {
  // ingest_clause counted every list's slots; one allocation holds them all,
  // and no watch list reallocates during ingest or for an original clause.
  watches_.reserve();
  // Attach binaries first: every list then leads with its cheapest entries
  // (no arena dereference, near-perfect branch prediction on the binary
  // tag), and the order is deterministic.
  for (const auto& [a, b] : binaries) attach_binary(a, b);
  for (ClauseRef cr : refs) attach_clause(cr);
}

void Solver::init_from(const Cnf& cnf) {
  setup_arrays(cnf.num_vars());
  std::vector<ClauseRef> stored;
  std::vector<BinaryClause> binaries;
  std::size_t num_binaries = 0;
  for (const std::span<const Lit> c : cnf.clauses()) num_binaries += c.size() == 2;
  stored.reserve(cnf.num_clauses() - num_binaries);
  binaries.reserve(num_binaries);
  std::size_t ingested = 0;
  const std::uint64_t mem_cap = options_.budget.max_memory_bytes;
  for (const std::span<const Lit> c : cnf.clauses()) {
    if ((ingested++ & 2047) == 0) {
      if (options_.stop.stop_requested()) {
        // Partial clause DB: any UNSAT already derived (ok_ == false) is
        // sound for the full formula, but SAT is not — solve() returns
        // kUnknown.
        cancelled_ = true;
        stats_.limit_reason = options_.stop.deadline_expired()
                                  ? LimitReason::kDeadline
                                  : LimitReason::kNone;
        break;
      }
      if (mem_cap != 0 && memory_model_bytes() > mem_cap) {
        cancelled_ = true;
        stats_.limit_reason = LimitReason::kMemory;
        break;
      }
      if (util::fault::fire(FaultSite::kArenaAlloc)) {
        cancelled_ = true;
        stats_.limit_reason = LimitReason::kInjected;
        break;
      }
    }
    ingest_clause(c, stored, binaries);
    if (!ok_) break;
  }
  // On early exit (top-level conflict or cancellation) solve() returns
  // before propagating, so attaching the partial DB is harmless — and it
  // keeps the clause_refs_clean invariant trivially true.
  build_watches(stored, binaries);
}

void Solver::attach_clause(ClauseRef cr) {
  const Lit* lits = arena_.lits(cr);
  // Each watcher blocks on the other watched literal (MiniSat convention):
  // when that literal is true the clause is satisfied and the visit skips
  // the arena dereference entirely.
  watches_.push((~lits[0]).index(), Watcher::clause(cr, lits[1]));
  watches_.push((~lits[1]).index(), Watcher::clause(cr, lits[0]));
  attached_watchers_ += 2;
}

void Solver::attach_binary(Lit a, Lit b) {
  watches_.push((~a).index(), Watcher::binary(b));
  watches_.push((~b).index(), Watcher::binary(a));
  attached_watchers_ += 2;
}

void Solver::enqueue(Lit l, Reason reason) {
  assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
  level_[l.var()] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

Reason Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const Lit false_lit = ~p;
    // Walk list p with a read cursor i and a write cursor j (j <= i). List p
    // never grows during the walk: a watcher only moves to the list of
    // ~lits[1], and lits[1] is not false, so ~lits[1] is not p.
    WatchList& watch_list = watches_[p.index()];
    Watcher* i = watch_list.begin();
    Watcher* j = i;
    Watcher* const end = watch_list.end();
    while (i != end) {
      const Watcher w = *i++;
      if (w.is_binary()) {
        // Whole clause (~p \/ blocker) is inline: no arena access at all.
        // Binaries lead every list, so this branch is near-perfectly
        // predicted; on coloring encodings it carries ~90% of the traffic.
        *j++ = w;
        const LBool bval = value(w.blocker);
        if (bval == LBool::kTrue) continue;
        if (bval == LBool::kFalse) {
          bin_conflict_[0] = false_lit;
          bin_conflict_[1] = w.blocker;
          j = std::copy(i, end, j);
          watch_list.size = static_cast<std::uint32_t>(j - watch_list.data);
          qhead_ = trail_.size();
          return Reason::binary(w.blocker);
        }
        ++stats_.binary_propagations;
        enqueue(w.blocker, Reason::binary(false_lit));
        continue;
      }
      // Long clause: a satisfied blocker proves the clause satisfied without
      // touching its record — the common case on coloring encodings.
      if (value(w.blocker) == LBool::kTrue) {
        *j++ = w;
        ++stats_.blocker_skips;
        continue;
      }
      const ClauseRef ci = w.cref;
      // Deleted clauses never linger in watch lists: reduce_learnts purges
      // them eagerly before returning (clause_refs_clean invariant). The
      // check must survive into sanitizer builds — a deleted record still
      // lives inside the arena vector, so ASan cannot catch this itself.
      if constexpr (kCheckInvariants) {
        if (arena_.deleted(ci)) {
          std::fprintf(stderr, "FATAL: deleted clause in watch list\n");
          std::abort();
        }
      }
      Lit* lits = arena_.lits(ci);
      const std::size_t n = arena_.size(ci);
      // Ensure the falsified literal (~p) sits at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const Lit first = lits[0];
      const Watcher updated = Watcher::clause(ci, first);
      // If first watch is already true, clause is satisfied; refresh the
      // blocker so the next visit can skip the dereference too.
      if (first != w.blocker && value(first) == LBool::kTrue) {
        *j++ = updated;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < n; ++k) {
        if (value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_.push((~lits[1]).index(), updated);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      *j++ = updated;
      if (value(first) == LBool::kFalse) {
        // Conflict: restore remaining watches and report.
        j = std::copy(i, end, j);
        watch_list.size = static_cast<std::uint32_t>(j - watch_list.data);
        qhead_ = trail_.size();
        return Reason::clause(ci);
      }
      enqueue(first, Reason::clause(ci));
    }
    watch_list.size = static_cast<std::uint32_t>(j - watch_list.data);
  }
  return Reason::none();
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  // Recursive minimization (iterative with an explicit stack; both stacks
  // are member scratch buffers, so this allocates nothing per conflict).
  auto& stack = minimize_stack_;
  auto& to_clear = minimize_clear_;
  stack.clear();
  to_clear.clear();
  stack.push_back(l);
  while (!stack.empty()) {
    const Lit cur = stack.back();
    stack.pop_back();
    const Reason r = reason_[cur.var()];
    if (r.is_none()) {
      for (Var v : to_clear) seen_[v] = 0;
      return false;
    }
    // Walk the antecedent literals of cur's reason; binary reasons carry
    // their single antecedent inline.
    Lit bin_buf[1];
    const Lit* lits;
    std::size_t n;
    if (r.is_binary()) {
      bin_buf[0] = r.other();
      lits = bin_buf;
      n = 1;
    } else {
      lits = arena_.lits(r.cref());
      n = arena_.size(r.cref());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Lit q = lits[i];
      if (q.var() == cur.var() || seen_[q.var()] || level_[q.var()] == 0) continue;
      const std::uint32_t lvl_mask = 1u << (level_[q.var()] & 31u);
      if (reason_[q.var()].is_none() || (lvl_mask & abstract_levels) == 0) {
        for (Var v : to_clear) seen_[v] = 0;
        return false;
      }
      seen_[q.var()] = 1;
      to_clear.push_back(q.var());
      stack.push_back(q);
    }
  }
  // Clear the temporary marks; only vars not already marked by analyze()
  // were added to to_clear, so this cannot unmark learnt-clause literals.
  for (Var v : to_clear) seen_[v] = 0;
  return true;
}

void Solver::analyze(Reason conflict, std::vector<Lit>& learnt_out,
                     std::uint32_t& backtrack_level) {
  learnt_out.clear();
  learnt_out.push_back(Lit{});  // slot for the asserting literal
  const auto current_level = static_cast<std::uint32_t>(trail_lim_.size());
  int counter = 0;
  Lit p{};
  bool have_p = false;
  Reason reason = conflict;
  std::size_t trail_index = trail_.size();
  auto& cleanup = analyze_cleanup_;
  cleanup.clear();

  for (;;) {
    // Resolve the current reason into its literal span. The conflict itself
    // may be a binary clause (both lits in bin_conflict_); a binary *reason*
    // contributes only its antecedent (p is skipped below anyway).
    Lit bin_buf[2];
    const Lit* lits;
    std::size_t n;
    if (reason.is_binary()) {
      if (!have_p) {
        lits = bin_conflict_.data();
        n = 2;
      } else {
        bin_buf[0] = reason.other();
        lits = bin_buf;
        n = 1;
      }
    } else {
      const ClauseRef cr = reason.cref();
      if (arena_.learnt(cr)) bump_clause(cr);
      lits = arena_.lits(cr);
      n = arena_.size(cr);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Lit q = lits[i];
      if (have_p && q.var() == p.var()) continue;
      if (!seen_[q.var()] && level_[q.var()] > 0) {
        seen_[q.var()] = 1;
        cleanup.push_back(q.var());
        bump_var(q.var());
        if (level_[q.var()] >= current_level) {
          ++counter;
        } else {
          learnt_out.push_back(q);
        }
      }
    }
    // Walk the trail back to the next marked literal.
    do {
      --trail_index;
    } while (!seen_[trail_[trail_index].var()]);
    p = trail_[trail_index];
    have_p = true;
    seen_[p.var()] = 0;
    --counter;
    if (counter == 0) break;
    reason = reason_[p.var()];
  }
  learnt_out[0] = ~p;

  // Clause minimization: drop literals implied by the rest of the clause.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt_out.size(); ++i) {
    abstract_levels |= 1u << (level_[learnt_out[i].var()] & 31u);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt_out.size(); ++i) {
    const Lit l = learnt_out[i];
    if (reason_[l.var()].is_none() || !lit_redundant(l, abstract_levels)) {
      learnt_out[kept++] = l;
    }
  }
  learnt_out.resize(kept);

  // Compute the backtrack level: highest level below the current one.
  if (learnt_out.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt_out.size(); ++i) {
      if (level_[learnt_out[i].var()] > level_[learnt_out[max_i].var()]) max_i = i;
    }
    std::swap(learnt_out[1], learnt_out[max_i]);
    backtrack_level = level_[learnt_out[1].var()];
  }

  for (Var v : cleanup) seen_[v] = 0;
}

void Solver::backtrack(std::uint32_t target_level) {
  if (trail_lim_.size() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Var v = trail_[i - 1].var();
    polarity_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
    assigns_[v] = LBool::kUndef;
    reason_[v] = Reason::none();
    // Lazy re-insertion: vars leave the heap only when popped as decisions,
    // and rejoin it the moment backtracking unassigns them. Before the
    // first conflict the heap is not engaged (see pick_branch_lit) and
    // insert() would be wasted work on a structure build() will overwrite.
    // msropm-lint: allow(hot-path-alloc) heap_ capacity stays num_vars from build(); pops only shrink size, so insert() never reallocates
    if (heap_active_) order_heap_.insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = bound;
}

void Solver::activate_heap() {
  // First conflict: bump_var is about to make the activity order dynamic,
  // so heapify the full variable set once. Every var enters the heap
  // (assigned ones are skipped lazily at pop time), and from here on
  // backtrack() re-inserts what it unassigns.
  order_heap_.build(num_vars_);
  heap_active_ = true;
}

std::optional<Lit> Solver::pick_branch_lit() {
  if (!heap_active_) {
    // Pre-conflict: VSIDS never bumped yet, so activities are the static
    // ingest occurrence counts and a vectorizable linear scan picks the
    // exact variable the heap would — without paying O(V log V) heap churn
    // on the paper's zero-conflict King's instances, where the whole search
    // is a handful of decisions over a static order.
    Var best = 0;
    double best_activity = -1.0;
    bool found = false;
    for (Var v = 0; v < num_vars_; ++v) {
      if (assigns_[v] == LBool::kUndef && activity_[v] > best_activity) {
        best = v;
        best_activity = activity_[v];
        found = true;
      }
    }
    if (!found) return std::nullopt;
    return Lit(best, polarity_[best] == 0);
  }
  // Pop until an unassigned variable surfaces (assigned ones were enqueued
  // by propagation after their heap insert; they are discarded lazily here).
  while (!order_heap_.empty()) {
    const Var v = order_heap_.pop();
    if (assigns_[v] == LBool::kUndef) {
      ++stats_.heap_decisions;
      return Lit(v, polarity_[v] == 0);
    }
  }
  return std::nullopt;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    // Rescale is order-preserving, so the heap stays valid as-is.
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.update(v);
}

void Solver::bump_clause(ClauseRef cr) {
  const double bumped = arena_.activity(cr) + clause_inc_;
  arena_.set_activity(cr, bumped);
  if (bumped > 1e20) {
    for (ClauseRef lr : learnt_refs_) {
      arena_.set_activity(lr, arena_.activity(lr) * 1e-20);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= kVarActivityDecay;
  clause_inc_ /= 0.999;
}

void Solver::reduce_learnts() {
  // Remove the lower-activity half of the learnt clauses that are not
  // currently reasons. learnt_refs_ only ever holds long clauses (binary
  // learnts are implicit watchers and are kept forever, like MiniSat).
  obs::Span reduce_span("sat.reduce_gc", sm().t_reduce);
  auto& candidates = reduce_candidates_;
  candidates.clear();
  candidates.reserve(learnt_refs_.size());
  for (ClauseRef cr : learnt_refs_) candidates.push_back(cr);
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              return arena_.activity(a) < arena_.activity(b);
            });
  // Reason-lock via the arena's scratch mark bit: every var with a clause
  // reason is on the trail, so this covers exactly the locked clauses.
  for (Lit l : trail_) {
    const Reason r = reason_[l.var()];
    if (r.is_clause()) arena_.set_mark(r.cref(), true);
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i < candidates.size() / 2; ++i) {
    const ClauseRef cr = candidates[i];
    if (arena_.marked(cr)) continue;
    arena_.free_clause(cr);
    ++removed;
  }
  for (Lit l : trail_) {
    const Reason r = reason_[l.var()];
    if (r.is_clause()) arena_.set_mark(r.cref(), false);
  }
  stats_.removed_learnts += removed;
  reduce_span.arg("removed", removed);
  learnt_refs_.erase(
      std::remove_if(learnt_refs_.begin(), learnt_refs_.end(),
                     [this](ClauseRef cr) { return arena_.deleted(cr); }),
      learnt_refs_.end());
  if (removed > 0) purge_watches();
  if (kCheckInvariants && !clause_refs_clean()) {
    std::fprintf(stderr,
                 "FATAL: stale clause reference after reduce_learnts\n");
    std::abort();
  }
  note_arena_peak();
  // Compact once a fifth of the buffer is tombstones — the proper fix for
  // the old monotone-growth bug, not just a watch-list purge.
  if (arena_.wasted_words() * 5 > arena_.used_words()) garbage_collect();
  // A reduction is exactly when learnt-DB occupancy jumps; sample it.
  if (obs::gate() != 0) publish_heartbeat();
}

void Solver::purge_watches() {
  std::uint64_t purged = 0;
  for (WatchList& watch_list : watches_.lists()) {
    const Watcher* keep_end =
        std::remove_if(watch_list.begin(), watch_list.end(),
                       [this](Watcher w) {
                         return !w.is_binary() && arena_.deleted(w.cref);
                       });
    purged += static_cast<std::uint64_t>(watch_list.end() - keep_end);
    watch_list.size = static_cast<std::uint32_t>(keep_end - watch_list.data);
  }
  attached_watchers_ -= purged;
}

void Solver::garbage_collect() {
  obs::Span gc_span("sat.gc");
  gc_span.arg("wasted_words", arena_.wasted_words());
  ClauseArena to(arena_.used_words() - arena_.wasted_words());
  // Every live long clause sits in exactly two watch lists, so relocating
  // the watches covers the whole database; reasons and the learnt list then
  // resolve through the forwarding refs. Binary watchers hold no refs and
  // pass through untouched.
  for (WatchList& watch_list : watches_.lists()) {
    for (Watcher& w : watch_list) {
      if (!w.is_binary()) w.cref = arena_.reloc(w.cref, to);
    }
  }
  for (Var v = 0; v < num_vars_; ++v) {
    if (reason_[v].is_clause()) {
      reason_[v].set_cref(arena_.reloc(reason_[v].cref(), to));
    }
  }
  for (ClauseRef& cr : learnt_refs_) cr = arena_.reloc(cr, to);
  to.carry_alloc_stats_from(arena_);
  stats_.gc_freed_words += arena_.used_words() - to.used_words();
  ++stats_.gc_runs;
  arena_ = std::move(to);
  if (kCheckInvariants && !clause_refs_clean()) {
    std::fprintf(stderr, "FATAL: stale clause reference after arena GC\n");
    std::abort();
  }
}

void Solver::note_arena_peak() noexcept {
  if (arena_.used_words() > stats_.arena_peak_words) {
    stats_.arena_peak_words = arena_.used_words();
  }
  stats_.arena_alloc_words = arena_.alloc_words();
}

util::LimitReason Solver::budget_breach() const noexcept {
  if (options_.budget.max_memory_bytes != 0 &&
      memory_model_bytes() > options_.budget.max_memory_bytes) {
    return LimitReason::kMemory;
  }
  if (options_.budget.max_propagations != 0 &&
      stats_.propagations >= options_.budget.max_propagations) {
    return LimitReason::kPropagations;
  }
  return LimitReason::kNone;
}

std::uint64_t Solver::luby(std::uint64_t i) noexcept {
  // Luby sequence 1,1,2,1,1,2,4,... (0-indexed). Find the smallest complete
  // subsequence of length 2^seq - 1 containing i, then reduce i into the
  // tail recursively via modulo until it lands on a subsequence end.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

SolveResult Solver::solve() {
  if (solved_) {
    throw std::logic_error("sat::Solver::solve: a Solver solves once");
  }
  solved_ = true;
  if (obs::gate() == 0) return solve_internal();
  return solve_obs();
}

SolveResult Solver::solve_obs() {
  // The heartbeat's rate window opens here; the final publish below
  // guarantees at least one sample even on sub-interval solves.
  hb_last_ns_ = hb_now_ns();
  SolveResult result;
  {
    obs::Span span("sat.solve", sm().t_solve);
    result = solve_internal();
    span.arg("conflicts", stats_.conflicts);
    span.arg("restarts", stats_.restarts);
    span.arg("decisions", stats_.decisions);
    span.arg("result", static_cast<std::uint64_t>(result));
  }
  if (obs::metrics_enabled()) {
    const SolverMetrics& m = sm();
    obs::add(m.c_decisions, stats_.decisions);
    obs::add(m.c_propagations, stats_.propagations);
    obs::add(m.c_conflicts, stats_.conflicts);
    obs::add(m.c_restarts, stats_.restarts);
    obs::add(m.c_learnt, stats_.learnt_clauses);
    obs::add(m.c_removed, stats_.removed_learnts);
    obs::add(m.c_blocker_skips, stats_.blocker_skips);
    obs::add(m.c_binary_props, stats_.binary_propagations);
    obs::add(m.c_heap_decisions, stats_.heap_decisions);
    obs::add(m.c_gc_runs, stats_.gc_runs);
    obs::add(m.c_gc_freed, stats_.gc_freed_words);
    obs::set_gauge(m.g_arena_alloc, static_cast<double>(stats_.arena_alloc_words));
    obs::set_gauge(m.g_arena_peak, static_cast<double>(stats_.arena_peak_words));
  }
  if (obs::gate() != 0) publish_heartbeat();
  return result;
}

void Solver::note_conflict_obs(const std::vector<Lit>& learnt,
                               std::size_t trail_depth) {
  const SolverMetrics& m = sm();
  // LBD = distinct decision levels among the learnt literals. Every literal
  // is assigned here (learnt[0] was just enqueued at the backtrack level).
  lbd_scratch_.clear();
  for (const Lit l : learnt) lbd_scratch_.push_back(level_[l.var()]);
  std::sort(lbd_scratch_.begin(), lbd_scratch_.end());
  const auto lbd = static_cast<std::uint64_t>(
      std::unique(lbd_scratch_.begin(), lbd_scratch_.end()) -
      lbd_scratch_.begin());
  obs::observe(m.h_lbd, lbd);
  obs::observe(m.h_learnt_len, learnt.size());
  obs::observe(m.h_trail_depth, trail_depth);
  hb_lbd_sum_ += lbd;
  ++hb_lbd_count_;
  if (options_.heartbeat_interval != 0 &&
      ++hb_conflicts_since_ >= options_.heartbeat_interval) {
    publish_heartbeat();
  }
}

void Solver::publish_heartbeat() {
  const SolverMetrics& m = sm();
  const std::int64_t now = hb_now_ns();
  double cps = 0.0;
  double dps = 0.0;
  if (hb_last_ns_ != 0 && now > hb_last_ns_) {
    const double secs = static_cast<double>(now - hb_last_ns_) / 1e9;
    cps = static_cast<double>(stats_.conflicts - hb_last_conflicts_) / secs;
    dps = static_cast<double>(stats_.decisions - hb_last_decisions_) / secs;
  }
  const std::uint64_t window_conflicts = stats_.conflicts - hb_last_conflicts_;
  const double ppc =
      window_conflicts == 0
          ? 0.0
          : static_cast<double>(stats_.propagations - hb_last_propagations_) /
                static_cast<double>(window_conflicts);
  const double learnt_live =
      static_cast<double>(learnt_refs_.size() + learnt_binaries_);
  const double arena_words = static_cast<double>(arena_.used_words());
  const double avg_lbd =
      hb_lbd_count_ == 0
          ? 0.0
          : static_cast<double>(hb_lbd_sum_) / static_cast<double>(hb_lbd_count_);
  const double restart_interval = static_cast<double>(hb_restart_interval_);

  obs::set_gauge(m.g_hb_cps, cps);
  obs::set_gauge(m.g_hb_dps, dps);
  obs::set_gauge(m.g_hb_ppc, ppc);
  obs::set_gauge(m.g_hb_learnt_live, learnt_live);
  obs::set_gauge(m.g_hb_arena_words, arena_words);
  obs::set_gauge(m.g_hb_restart, restart_interval);
  obs::set_gauge(m.g_hb_avg_lbd, avg_lbd);
  obs::trace_counter("sat.hb.conflicts_per_sec", cps);
  obs::trace_counter("sat.hb.decisions_per_sec", dps);
  obs::trace_counter("sat.hb.props_per_conflict", ppc);
  obs::trace_counter("sat.hb.learnt_live", learnt_live);
  obs::trace_counter("sat.hb.arena_words", arena_words);
  obs::trace_counter("sat.hb.restart_interval", restart_interval);
  obs::trace_counter("sat.hb.avg_recent_lbd", avg_lbd);

  hb_last_ns_ = now;
  hb_last_conflicts_ = stats_.conflicts;
  hb_last_decisions_ = stats_.decisions;
  hb_last_propagations_ = stats_.propagations;
  hb_lbd_sum_ = 0;
  hb_lbd_count_ = 0;
  hb_conflicts_since_ = 0;
}

SolveResult Solver::solve_internal() {
  // An empty clause derived from any prefix of the formula refutes the whole
  // formula, so a top-level conflict outranks cancellation.
  if (!ok_) return SolveResult::kUnsat;
  // Cancelled during construction: stats_.limit_reason already says why.
  if (cancelled_) return SolveResult::kUnknown;
  if (options_.stop.stop_requested()) {
    cancelled_ = true;
    stats_.limit_reason = options_.stop.deadline_expired()
                              ? LimitReason::kDeadline
                              : LimitReason::kNone;
    return SolveResult::kUnknown;
  }
  // Hoisted once so the unbudgeted search pays a single predictable branch
  // per conflict / decision-poll.
  budget_active_ = options_.budget.limited();
  if (!propagate().is_none()) return SolveResult::kUnsat;

  std::vector<Lit> learnt;
  // A conflict-cap trip reports LimitReason::kConflicts.
  const std::uint64_t conflict_cap = options_.budget.max_conflicts;
  std::uint64_t conflicts_until_restart =
      options_.restart_base * luby(stats_.restarts);
  hb_restart_interval_ = conflicts_until_restart;

  for (;;) {
    if (util::fault::armed() &&
        util::fault::should_fire(FaultSite::kPropagate)) {
      cancelled_ = true;
      stats_.limit_reason = LimitReason::kInjected;
      note_arena_peak();
      return SolveResult::kUnknown;
    }
    Reason conflict = Reason::none();
    {
      obs::Span prop_span("sat.propagate", sm().t_propagate);
      conflict = propagate();
    }
    if (!conflict.is_none()) {
      ++stats_.conflicts;
      if (trail_lim_.empty()) {
        note_arena_peak();
        return SolveResult::kUnsat;
      }
      if (!heap_active_) activate_heap();
      if (util::fault::armed() &&
          util::fault::should_fire(FaultSite::kAnalyze)) {
        cancelled_ = true;
        stats_.limit_reason = LimitReason::kInjected;
        note_arena_peak();
        return SolveResult::kUnknown;
      }
      const std::size_t trail_at_conflict = trail_.size();
      std::uint32_t bt_level = 0;
      {
        obs::Span analyze_span("sat.analyze", sm().t_analyze);
        analyze(conflict, learnt, bt_level);
      }
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], Reason::none());
      } else if (learnt.size() == 2) {
        // Learnt binaries are implicit too: attached inline, never reduced,
        // never GC'd — and the reason they assert is carried as a literal.
        attach_binary(learnt[0], learnt[1]);
        ++learnt_binaries_;
        ++stats_.learnt_clauses;
        enqueue(learnt[0], Reason::binary(learnt[1]));
      } else {
        if (util::fault::armed() &&
            util::fault::should_fire(FaultSite::kArenaAlloc)) {
          // Injected allocation failure for the learnt record: drop the
          // clause (learning is optional for soundness) and unwind.
          cancelled_ = true;
          stats_.limit_reason = LimitReason::kInjected;
          note_arena_peak();
          return SolveResult::kUnknown;
        }
        const ClauseRef cr = arena_.alloc(learnt, /*learnt=*/true);
        arena_.set_activity(cr, clause_inc_);
        attach_clause(cr);
        learnt_refs_.push_back(cr);
        ++stats_.learnt_clauses;
        enqueue(learnt[0], Reason::clause(cr));
      }
      decay_activities();
      if (obs::gate() != 0) note_conflict_obs(learnt, trail_at_conflict);
      if (conflict_cap != 0 && stats_.conflicts >= conflict_cap) {
        stats_.limit_reason = LimitReason::kConflicts;
        note_arena_peak();
        return SolveResult::kUnknown;
      }
      if (budget_active_) {
        const LimitReason breach = budget_breach();
        if (breach != LimitReason::kNone) {
          stats_.limit_reason = breach;
          note_arena_peak();
          return SolveResult::kUnknown;
        }
      }
      if ((stats_.conflicts & 255) == 0 && options_.stop.stop_requested()) {
        cancelled_ = true;
        stats_.limit_reason = options_.stop.deadline_expired()
                                  ? LimitReason::kDeadline
                                  : LimitReason::kNone;
        note_arena_peak();
        return SolveResult::kUnknown;
      }
      if (conflicts_until_restart > 0) --conflicts_until_restart;
    } else {
      if ((stats_.decisions & 127) == 0) {
        if (options_.stop.stop_requested()) {
          cancelled_ = true;
          stats_.limit_reason = options_.stop.deadline_expired()
                                    ? LimitReason::kDeadline
                                    : LimitReason::kNone;
          note_arena_peak();
          return SolveResult::kUnknown;
        }
        if (budget_active_) {
          const LimitReason breach = budget_breach();
          if (breach != LimitReason::kNone) {
            stats_.limit_reason = breach;
            note_arena_peak();
            return SolveResult::kUnknown;
          }
        }
      }
      if (conflicts_until_restart == 0) {
        ++stats_.restarts;
        backtrack(0);
        conflicts_until_restart = options_.restart_base * luby(stats_.restarts);
        hb_restart_interval_ = conflicts_until_restart;
        if (obs::gate() != 0) publish_heartbeat();
      }
      // Binary learnts are kept forever, but they still count toward the
      // reduction trigger so the database-size cadence matches the learning
      // rate (they occupied learnt-list slots in the pre-watcher design too).
      if (learnt_refs_.size() + learnt_binaries_ >= learnt_cap_) {
        if (util::fault::armed() && util::fault::should_fire(FaultSite::kGc)) {
          cancelled_ = true;
          stats_.limit_reason = LimitReason::kInjected;
          note_arena_peak();
          return SolveResult::kUnknown;
        }
        reduce_learnts();
        learnt_cap_ += learnt_cap_ / 2;
        // A reduction + compacting GC is the longest uninterruptible stretch
        // of the search; re-check the deadline right after it so a timer
        // that expired mid-GC surfaces now, not half a restart later.
        if (options_.stop.stop_requested()) {
          cancelled_ = true;
          stats_.limit_reason = options_.stop.deadline_expired()
                                    ? LimitReason::kDeadline
                                    : LimitReason::kNone;
          note_arena_peak();
          return SolveResult::kUnknown;
        }
      }
      const std::optional<Lit> next = pick_branch_lit();
      if (!next) {
        // Full assignment: SAT.
        model_.assign(num_vars_, 0);
        for (Var v = 0; v < num_vars_; ++v) {
          model_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
        }
        // No final backtrack(0): the model is already extracted and the
        // solver is done — on the paper's zero-conflict King's instances an
        // unwind would be a third of solve().
        note_arena_peak();
        return SolveResult::kSat;
      }
      ++stats_.decisions;
      trail_lim_.push_back(trail_.size());
      enqueue(*next, Reason::none());
    }
  }
}

bool Solver::clause_refs_clean() const noexcept {
  const auto valid = [this](ClauseRef cr) {
    return cr < arena_.used_words() && !arena_.deleted(cr);
  };
  for (const WatchList& watch_list : watches_.lists()) {
    for (const Watcher& w : watch_list) {
      if (w.is_binary()) {
        // No arena record to validate; the inline literal must be in range
        // (and, being ref-free, a binary watcher trivially survives GC).
        if (w.blocker.var() >= num_vars_) return false;
        continue;
      }
      if (!valid(w.cref)) return false;
      // The blocker must be a literal of its clause, or a stale blocker
      // could "satisfy" a clause it is not part of.
      const Lit* lits = arena_.lits(w.cref);
      const std::size_t n = arena_.size(w.cref);
      bool found = false;
      for (std::size_t i = 0; i < n && !found; ++i) found = lits[i] == w.blocker;
      if (!found) return false;
    }
  }
  for (Var v = 0; v < num_vars_; ++v) {
    const Reason r = reason_[v];
    if (r.is_clause() && !valid(r.cref())) return false;
    if (r.is_binary() && r.other().var() >= num_vars_) return false;
  }
  for (ClauseRef cr : learnt_refs_) {
    if (!valid(cr)) return false;
  }
  return true;
}

}  // namespace msropm::sat
