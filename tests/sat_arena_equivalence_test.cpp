// Equivalence harness for the CDCL solver against the embedded pre-arena
// reference implementation (`reference::Solver`, the first arena-free
// solver minus cancellation plumbing). Both solvers run over hundreds of
// random CNFs with a learnt cap small enough to force many learnt-DB
// reductions and arena GCs.
//
// Determinism contract (recalibrated for the watcher/heap overhaul): the
// production solver's search legally diverges from the reference on
// propagation order (implicit binaries propagate before long clauses) and
// learnt-DB composition (binary learnts are implicit and unreducible), so
// step counts and concrete models are no longer bit-matched against the
// reference. What stays HARD-GATED on every formula:
//   - verdict identity with the reference solver (SAT/UNSAT/UNKNOWN-limit),
//   - any SAT model must satisfy the original formula,
//   - run-to-run bit-determinism: two runs of the production solver produce
//     identical stats and identical models,
//   - clause_refs_clean() (no stale watcher/reason/learnt refs after GC).
// Step-identity with the reference (decision/propagation/conflict counts)
// is measured and REPORTED via a summary, not asserted.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "msropm/sat/cnf.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace reference {

using namespace msropm::sat;

struct Stats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_learnts = 0;
};

/// Verbatim pre-arena solver: per-clause std::vector<Lit> storage, integer
/// clause indices, tombstone deletion with lazy watch-list cleanup. Kept as
/// the behavioral oracle for the arena port.
class Solver {
 public:
  explicit Solver(const Cnf& cnf, SolverOptions options = {})
      : options_(options) {
    setup_arrays(cnf.num_vars());
    clauses_.reserve(cnf.num_clauses());
    for (const Clause& c : cnf.clauses()) {
      ingest_clause(Clause(c));
      if (!ok_) return;
    }
  }

  [[nodiscard]] SolveResult solve() {
    if (!ok_) return SolveResult::kUnsat;
    if (propagate() != kNoReason) {
      ok_ = false;
      return SolveResult::kUnsat;
    }
    std::vector<Lit> learnt;
    std::size_t learnt_cap = options_.learnt_cap;
    std::uint64_t until_restart = options_.restart_base * luby(stats_.restarts);
    for (;;) {
      const std::uint32_t conflict = propagate();
      if (conflict != kNoReason) {
        ++stats_.conflicts;
        if (trail_lim_.empty()) {
          ok_ = false;
          return SolveResult::kUnsat;
        }
        std::uint32_t bt_level = 0;
        analyze(conflict, learnt, bt_level);
        backtrack(bt_level);
        if (learnt.size() == 1) {
          enqueue(learnt[0], kNoReason);
        } else {
          clauses_.push_back(InternalClause{learnt, clause_inc_, true, false});
          const auto ci = static_cast<std::uint32_t>(clauses_.size() - 1);
          attach_clause(ci);
          learnt_indices_.push_back(ci);
          ++stats_.learnt_clauses;
          enqueue(learnt[0], ci);
        }
        decay_activities();
        if (options_.conflict_limit != 0 &&
            stats_.conflicts >= options_.conflict_limit) {
          return SolveResult::kUnknown;
        }
        if (until_restart > 0) --until_restart;
      } else {
        if (until_restart == 0) {
          ++stats_.restarts;
          backtrack(0);
          until_restart = options_.restart_base * luby(stats_.restarts);
        }
        if (learnt_indices_.size() >= learnt_cap) {
          reduce_learnts();
          learnt_cap += learnt_cap / 2;
        }
        const auto next = pick_branch_lit();
        if (!next) {
          model_.assign(num_vars_, 0);
          for (Var v = 0; v < num_vars_; ++v) {
            model_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
          }
          backtrack(0);
          return SolveResult::kSat;
        }
        ++stats_.decisions;
        trail_lim_.push_back(trail_.size());
        enqueue(*next, kNoReason);
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& model() const { return model_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };
  static constexpr std::uint32_t kNoReason = ~std::uint32_t{0};

  struct InternalClause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learnt = false;
    bool deleted = false;
  };

  void setup_arrays(std::size_t num_vars) {
    num_vars_ = num_vars;
    watches_.assign(2 * num_vars, {});
    assigns_.assign(num_vars, LBool::kUndef);
    polarity_.assign(num_vars, options_.default_polarity ? 1 : 0);
    level_.assign(num_vars, 0);
    reason_.assign(num_vars, kNoReason);
    activity_.assign(num_vars, 0.0);
    seen_.assign(num_vars, 0);
  }

  void ingest_clause(Clause&& lits) {
    if (!ok_) return;
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
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
      if (value(lits[0]) == LBool::kUndef) enqueue(lits[0], kNoReason);
      return;
    }
    for (Lit l : lits) activity_[l.var()] += 1.0;
    clauses_.push_back(InternalClause{std::move(lits), 0.0, false, false});
    attach_clause(static_cast<std::uint32_t>(clauses_.size() - 1));
  }

  [[nodiscard]] LBool value(Lit l) const {
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef) return LBool::kUndef;
    const bool b = (v == LBool::kTrue) != l.negated();
    return b ? LBool::kTrue : LBool::kFalse;
  }

  void attach_clause(std::uint32_t ci) {
    const auto& lits = clauses_[ci].lits;
    watches_[(~lits[0]).index()].push_back(ci);
    watches_[(~lits[1]).index()].push_back(ci);
  }

  void enqueue(Lit l, std::uint32_t reason) {
    assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
    level_[l.var()] = static_cast<std::uint32_t>(trail_lim_.size());
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }

  [[nodiscard]] std::uint32_t propagate() {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++stats_.propagations;
      auto& watch_list = watches_[p.index()];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < watch_list.size(); ++i) {
        const std::uint32_t ci = watch_list[i];
        InternalClause& c = clauses_[ci];
        if (c.deleted) continue;  // lazily dropped from watch lists
        auto& lits = c.lits;
        const Lit false_lit = ~p;
        if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
        if (value(lits[0]) == LBool::kTrue) {
          watch_list[keep++] = ci;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < lits.size(); ++k) {
          if (value(lits[k]) != LBool::kFalse) {
            std::swap(lits[1], lits[k]);
            watches_[(~lits[1]).index()].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        watch_list[keep++] = ci;
        if (value(lits[0]) == LBool::kFalse) {
          for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
            watch_list[keep++] = watch_list[j];
          }
          watch_list.resize(keep);
          qhead_ = trail_.size();
          return ci;
        }
        enqueue(lits[0], ci);
      }
      watch_list.resize(keep);
    }
    return kNoReason;
  }

  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels) {
    std::vector<Lit> stack{l};
    std::vector<Var> to_clear;
    while (!stack.empty()) {
      const Lit cur = stack.back();
      stack.pop_back();
      const std::uint32_t r = reason_[cur.var()];
      if (r == kNoReason) {
        for (Var v : to_clear) seen_[v] = 0;
        return false;
      }
      for (Lit q : clauses_[r].lits) {
        if (q.var() == cur.var() || seen_[q.var()] || level_[q.var()] == 0) continue;
        const std::uint32_t lvl_mask = 1u << (level_[q.var()] & 31u);
        if (reason_[q.var()] == kNoReason || (lvl_mask & abstract_levels) == 0) {
          for (Var v : to_clear) seen_[v] = 0;
          return false;
        }
        seen_[q.var()] = 1;
        to_clear.push_back(q.var());
        stack.push_back(q);
      }
    }
    for (Var v : to_clear) seen_[v] = 0;
    return true;
  }

  void analyze(std::uint32_t conflict, std::vector<Lit>& learnt_out,
               std::uint32_t& backtrack_level) {
    learnt_out.clear();
    learnt_out.push_back(Lit{});
    const auto current_level = static_cast<std::uint32_t>(trail_lim_.size());
    int counter = 0;
    Lit p{};
    bool have_p = false;
    std::uint32_t reason_clause = conflict;
    std::size_t trail_index = trail_.size();
    std::vector<Var> cleanup;
    for (;;) {
      InternalClause& c = clauses_[reason_clause];
      if (c.learnt) bump_clause(c);
      for (Lit q : c.lits) {
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
      do {
        --trail_index;
      } while (!seen_[trail_[trail_index].var()]);
      p = trail_[trail_index];
      have_p = true;
      seen_[p.var()] = 0;
      --counter;
      if (counter == 0) break;
      reason_clause = reason_[p.var()];
    }
    learnt_out[0] = ~p;

    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learnt_out.size(); ++i) {
      abstract_levels |= 1u << (level_[learnt_out[i].var()] & 31u);
    }
    std::size_t kept = 1;
    for (std::size_t i = 1; i < learnt_out.size(); ++i) {
      const Lit l = learnt_out[i];
      if (reason_[l.var()] == kNoReason || !lit_redundant(l, abstract_levels)) {
        learnt_out[kept++] = l;
      }
    }
    learnt_out.resize(kept);

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

  void backtrack(std::uint32_t target_level) {
    if (trail_lim_.size() <= target_level) return;
    const std::size_t bound = trail_lim_[target_level];
    for (std::size_t i = trail_.size(); i > bound; --i) {
      const Var v = trail_[i - 1].var();
      polarity_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
      assigns_[v] = LBool::kUndef;
      reason_[v] = kNoReason;
    }
    trail_.resize(bound);
    trail_lim_.resize(target_level);
    qhead_ = bound;
  }

  [[nodiscard]] std::optional<Lit> pick_branch_lit() {
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

  void bump_var(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
    }
  }

  void bump_clause(InternalClause& c) {
    c.activity += clause_inc_;
    if (c.activity > 1e20) {
      for (std::uint32_t ci : learnt_indices_) clauses_[ci].activity *= 1e-20;
      clause_inc_ *= 1e-20;
    }
  }

  void decay_activities() {
    var_inc_ /= options_.activity_decay;
    clause_inc_ /= 0.999;
  }

  void reduce_learnts() {
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t ci : learnt_indices_) {
      if (clauses_[ci].deleted) continue;
      candidates.push_back(ci);
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return clauses_[a].activity < clauses_[b].activity;
              });
    std::vector<std::uint8_t> is_reason(clauses_.size(), 0);
    for (Lit l : trail_) {
      if (reason_[l.var()] != kNoReason) is_reason[reason_[l.var()]] = 1;
    }
    std::size_t removed = 0;
    for (std::size_t i = 0; i < candidates.size() / 2; ++i) {
      InternalClause& c = clauses_[candidates[i]];
      if (is_reason[candidates[i]] || c.lits.size() <= 2) continue;
      c.deleted = true;
      c.lits.clear();
      c.lits.shrink_to_fit();
      ++removed;
    }
    stats_.removed_learnts += removed;
    learnt_indices_.erase(
        std::remove_if(learnt_indices_.begin(), learnt_indices_.end(),
                       [this](std::uint32_t ci) { return clauses_[ci].deleted; }),
        learnt_indices_.end());
  }

  [[nodiscard]] static std::uint64_t luby(std::uint64_t i) {
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

  std::size_t num_vars_ = 0;
  std::vector<InternalClause> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;
  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> learnt_indices_;
  bool ok_ = true;
  SolverOptions options_;
  Stats stats_;
  std::vector<std::uint8_t> model_;
};

}  // namespace reference

namespace {

using namespace msropm::sat;

Cnf random_cnf(msropm::util::Rng& rng, std::size_t vars, std::size_t clauses,
               std::size_t max_len) {
  Cnf cnf(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    const std::size_t len = max_len == 3 ? 3 : 1 + rng.uniform_index(max_len);
    Clause clause;
    while (clause.size() < len) {
      const auto v = static_cast<Var>(rng.uniform_index(vars));
      clause.push_back(Lit(v, rng.bernoulli(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// Options that force frequent learnt-DB reductions (and therefore GCs):
/// the default 4096 cap would never trip on test-sized formulas.
SolverOptions stress_options() {
  SolverOptions options;
  options.learnt_cap = 20;
  options.restart_base = 16;
  return options;
}

/// Hard gate: two runs of the production solver must agree bit-for-bit.
void expect_run_to_run_identical(const SolverStats& a, const SolverStats& b,
                                 const std::string& label) {
  EXPECT_EQ(a.decisions, b.decisions) << label;
  EXPECT_EQ(a.propagations, b.propagations) << label;
  EXPECT_EQ(a.conflicts, b.conflicts) << label;
  EXPECT_EQ(a.restarts, b.restarts) << label;
  EXPECT_EQ(a.learnt_clauses, b.learnt_clauses) << label;
  EXPECT_EQ(a.removed_learnts, b.removed_learnts) << label;
  EXPECT_EQ(a.blocker_skips, b.blocker_skips) << label;
  EXPECT_EQ(a.binary_propagations, b.binary_propagations) << label;
  EXPECT_EQ(a.heap_decisions, b.heap_decisions) << label;
}

/// Reported (not asserted) step-identity bookkeeping vs the reference.
struct StepDivergence {
  int trials = 0;
  int step_identical = 0;

  void note(const SolverStats& got, const reference::Stats& want) {
    ++trials;
    if (got.decisions == want.decisions &&
        got.propagations == want.propagations &&
        got.conflicts == want.conflicts && got.restarts == want.restarts) {
      ++step_identical;
    }
  }
  void report(const char* name) const {
    // Search steps legally diverge (binaries-first propagation, implicit
    // binary learnts); the count is recorded so trend shifts are visible.
    std::printf("[ STEPS    ] %s: %d/%d trials step-identical to the "
                "pre-watcher reference (informational)\n",
                name, step_identical, trials);
  }
};

void check_identity(const Cnf& cnf, const SolverOptions& options,
                    const std::string& label, std::uint64_t* gc_total = nullptr,
                    StepDivergence* steps = nullptr) {
  reference::Solver ref(cnf, options);
  const SolveResult expected = ref.solve();

  Solver arena_solver(cnf, options);
  const SolveResult got = arena_solver.solve();
  ASSERT_EQ(got, expected) << label << ": verdict diverged from pre-arena solver";
  if (expected == SolveResult::kSat) {
    EXPECT_TRUE(cnf.satisfied_by(arena_solver.model()))
        << label << ": model does not satisfy the formula";
  }
  EXPECT_TRUE(arena_solver.clause_refs_clean()) << label;

  // Run-to-run bit-determinism: a second solve over the same inputs must
  // replay the exact same search.
  Solver rerun(cnf, options);
  ASSERT_EQ(rerun.solve(), got) << label << ": rerun verdict diverged";
  expect_run_to_run_identical(arena_solver.stats(), rerun.stats(), label);
  if (got == SolveResult::kSat) {
    EXPECT_EQ(arena_solver.model(), rerun.model())
        << label << ": rerun model diverged";
  }

  if (steps != nullptr) steps->note(arena_solver.stats(), ref.stats());
  if (gc_total != nullptr) *gc_total += arena_solver.stats().gc_runs;
}

TEST(ArenaEquivalence, RandomizedVerdictModelAndDeterminism) {
  msropm::util::Rng rng(20260730);
  int trials = 0;
  std::uint64_t gc_total = 0;
  StepDivergence steps;
  for (const double ratio : {1.5, 3.0, 4.26, 6.0, 9.0}) {
    for (int t = 0; t < 35; ++t) {
      const std::size_t vars = 12 + rng.uniform_index(28);  // 12..39
      const auto clauses =
          static_cast<std::size_t>(ratio * static_cast<double>(vars)) + 1;
      const Cnf cnf = random_cnf(rng, vars, clauses, 3);
      check_identity(cnf, stress_options(),
                     "3cnf ratio=" + std::to_string(ratio) +
                         " trial=" + std::to_string(t),
                     &gc_total, &steps);
      ++trials;
    }
  }
  for (int t = 0; t < 40; ++t) {  // mixed clause lengths incl. units
    const std::size_t vars = 8 + rng.uniform_index(16);
    const Cnf cnf = random_cnf(rng, vars, 3 * vars, 5);
    check_identity(cnf, stress_options(), "mixed trial=" + std::to_string(t),
                   &gc_total, &steps);
    ++trials;
  }
  for (int t = 0; t < 10; ++t) {
    // Near-threshold instances big enough (>=110 vars) to go through
    // hundreds of conflicts, many learnt-DB reductions, and several arena
    // GCs — the determinism gates must hold across all of them.
    const std::size_t vars = 110 + rng.uniform_index(30);
    const auto clauses =
        static_cast<std::size_t>(4.26 * static_cast<double>(vars)) + 1;
    const Cnf cnf = random_cnf(rng, vars, clauses, 3);
    check_identity(cnf, stress_options(), "gc trial=" + std::to_string(t),
                   &gc_total, &steps);
    ++trials;
  }
  EXPECT_GE(trials, 200) << "harness must cover 200+ formulas";
  EXPECT_GT(gc_total, 0u)
      << "stress options must actually exercise the arena GC";
  steps.report("randomized");
}

TEST(ArenaEquivalence, DefaultOptionsIdentity) {
  // The default learnt cap rarely trips on small formulas: this covers the
  // no-reduction/no-GC path explicitly.
  msropm::util::Rng rng(77);
  for (int t = 0; t < 30; ++t) {
    const std::size_t vars = 12 + rng.uniform_index(24);
    const Cnf cnf = random_cnf(rng, vars, 4 * vars + 1, 3);
    check_identity(cnf, SolverOptions{}, "default trial=" + std::to_string(t));
  }
}

TEST(ArenaEquivalence, ConflictLimitSoundnessAndDeterminism) {
  // Under a conflict limit the two solvers may legally disagree on WHETHER
  // the limit was hit (their trajectories differ), so verdict identity is
  // only required when both runs completed; a definitive answer must never
  // contradict the reference's definitive answer, any model must satisfy
  // the formula, and reruns must be bit-identical.
  msropm::util::Rng rng(13);
  for (int t = 0; t < 20; ++t) {
    const std::size_t vars = 30 + rng.uniform_index(20);
    const Cnf cnf = random_cnf(rng, vars, 5 * vars, 3);
    SolverOptions options = stress_options();
    options.conflict_limit = 40 + 10 * static_cast<std::uint64_t>(t);
    const std::string label = "climit trial=" + std::to_string(t);

    reference::Solver ref(cnf, options);
    const SolveResult expected = ref.solve();

    Solver solver(cnf, options);
    const SolveResult got = solver.solve();
    if (got != SolveResult::kUnknown && expected != SolveResult::kUnknown) {
      ASSERT_EQ(got, expected) << label << ": definitive verdicts contradict";
    }
    if (got == SolveResult::kSat) {
      EXPECT_TRUE(cnf.satisfied_by(solver.model())) << label;
    }
    EXPECT_TRUE(solver.clause_refs_clean()) << label;

    Solver rerun(cnf, options);
    ASSERT_EQ(rerun.solve(), got) << label << ": rerun verdict diverged";
    expect_run_to_run_identical(solver.stats(), rerun.stats(), label);
  }
}

TEST(ArenaEquivalence, CancellationIsCleanAtAnyPoint) {
  // Deadline tokens fire at arbitrary points of the search — including
  // inside construction, between reductions, and right around arena GCs.
  // Whatever the timing, the solver must either finish with the reference
  // verdict or report a clean cancelled kUnknown; the ASan/TSan presets run
  // this same test to catch any use-after-free in the GC path.
  msropm::util::Rng rng(99);
  const std::size_t vars = 170;  // threshold density: deadlines land mid-search
  const Cnf cnf = random_cnf(rng, vars, static_cast<std::size_t>(4.26 * vars), 3);
  const SolveResult expected = [&] {
    reference::Solver ref(cnf, stress_options());
    return ref.solve();
  }();

  int cancelled_runs = 0;
  for (int micros : {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000}) {
    SolverOptions options = stress_options();
    options.stop = msropm::util::StopToken::at_deadline(
        std::chrono::steady_clock::now() + std::chrono::microseconds(micros));
    Solver solver(cnf, options);
    const SolveResult got = solver.solve();
    if (solver.cancelled()) {
      EXPECT_EQ(got, SolveResult::kUnknown);
      ++cancelled_runs;
    } else {
      EXPECT_EQ(got, expected);
    }
    EXPECT_TRUE(solver.clause_refs_clean());
  }
  EXPECT_GT(cancelled_runs, 0) << "at least the 0us deadline must cancel";
}

TEST(ArenaEquivalence, PreFiredTokenCancelsBeforeIngestion) {
  msropm::util::Rng rng(5);
  const Cnf cnf = random_cnf(rng, 20, 80, 3);
  msropm::util::StopSource source;
  source.request_stop();
  SolverOptions options;
  options.stop = source.token();
  Solver solver(cnf, options);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  EXPECT_TRUE(solver.cancelled());
}

}  // namespace
