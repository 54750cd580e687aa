// Heartbeat no-perturbation contract: enabling observability (metrics,
// tracing, any heartbeat cadence) must not change a single bit of the search
// trajectory. The reference run solves with obs fully off; instrumented runs
// at heartbeat_interval 1, 7, and 0 (conflict cadence disabled, restart /
// final samples only) must reproduce the identical verdict, model, and every
// SolverStats field. Also checks that the heartbeat actually publishes:
// gauges set, counter-track events in the lane, and the three search
// histograms populated once per conflict.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/solver.hpp"

namespace obs = msropm::obs;
namespace sat = msropm::sat;

namespace {

struct RunResult {
  sat::SolveResult verdict;
  std::vector<std::uint8_t> model;
  sat::SolverStats stats;
};

// K=3 on a King's graph containing 4-cliques is UNSAT and, with symmetry
// breaking off, refutes only through genuine search (conflicts, restarts,
// learnt clauses) — the workload the heartbeat instruments.
sat::Cnf hard_unsat_cnf() {
  const auto g = msropm::graph::kings_graph(6, 6);
  return sat::encode_coloring(g, 3, {.symmetry_breaking = false}).cnf;
}

// A satisfiable sibling so the model comparison is non-trivial.
sat::Cnf sat_cnf() {
  const auto g = msropm::graph::kings_graph(5, 5);
  return sat::encode_coloring(g, 4, {.symmetry_breaking = false}).cnf;
}

RunResult run(const sat::Cnf& cnf, std::uint64_t heartbeat_interval) {
  sat::SolverOptions opts;
  opts.heartbeat_interval = heartbeat_interval;
  sat::Solver solver(cnf, opts);
  RunResult r;
  r.verdict = solver.solve();
  if (r.verdict == sat::SolveResult::kSat) r.model = solver.model();
  r.stats = solver.stats();
  return r;
}

void expect_same_trajectory(const RunResult& a, const RunResult& b,
                            const char* label) {
  EXPECT_EQ(a.verdict, b.verdict) << label;
  EXPECT_EQ(a.model, b.model) << label;
  EXPECT_EQ(a.stats.decisions, b.stats.decisions) << label;
  EXPECT_EQ(a.stats.propagations, b.stats.propagations) << label;
  EXPECT_EQ(a.stats.conflicts, b.stats.conflicts) << label;
  EXPECT_EQ(a.stats.restarts, b.stats.restarts) << label;
  EXPECT_EQ(a.stats.learnt_clauses, b.stats.learnt_clauses) << label;
  EXPECT_EQ(a.stats.removed_learnts, b.stats.removed_learnts) << label;
  EXPECT_EQ(a.stats.blocker_skips, b.stats.blocker_skips) << label;
  EXPECT_EQ(a.stats.binary_propagations, b.stats.binary_propagations) << label;
  EXPECT_EQ(a.stats.heap_decisions, b.stats.heap_decisions) << label;
  EXPECT_EQ(a.stats.gc_runs, b.stats.gc_runs) << label;
  EXPECT_EQ(a.stats.gc_freed_words, b.stats.gc_freed_words) << label;
  EXPECT_EQ(a.stats.arena_alloc_words, b.stats.arena_alloc_words) << label;
  EXPECT_EQ(a.stats.arena_peak_words, b.stats.arena_peak_words) << label;
}

class SatHeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override { disable_and_reset(); }
  void TearDown() override { disable_and_reset(); }
  static void disable_and_reset() {
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset();
  }
};

}  // namespace

TEST_F(SatHeartbeatTest, HeartbeatDoesNotPerturbSearch) {
  const auto unsat = hard_unsat_cnf();
  const auto satisfiable = sat_cnf();

  for (const auto* cnf : {&unsat, &satisfiable}) {
    disable_and_reset();
    const RunResult reference = run(*cnf, 1024);  // obs off: default cadence
    // Only the UNSAT refutation is guaranteed to search; the satisfiable
    // sibling may color without a single conflict, which still exercises
    // the model-equality half of the contract.
    if (cnf == &unsat) {
      ASSERT_GT(reference.stats.conflicts, 0u);
    }

    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    obs::set_thread_lane("hb-determinism");
    expect_same_trajectory(reference, run(*cnf, 1), "interval=1");
    expect_same_trajectory(reference, run(*cnf, 7), "interval=7");
    expect_same_trajectory(reference, run(*cnf, 0), "interval=0");
    disable_and_reset();
  }
}

// Publication checks need a live obs backend; in MSROPM_OBS_DISABLED builds
// only the no-perturbation contract above is meaningful (and trivially holds).
#if !defined(MSROPM_OBS_DISABLED)

TEST_F(SatHeartbeatTest, HeartbeatPublishesGaugesAndCounterTracks) {
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_thread_lane("hb-publish");
  const auto cnf = hard_unsat_cnf();
  const RunResult r = run(cnf, 1);  // sample at every conflict
  ASSERT_EQ(r.verdict, sat::SolveResult::kUnsat);
  ASSERT_GT(r.stats.conflicts, 1u);

  const auto snap = obs::snapshot_metrics();
  // The final guaranteed sample leaves the cumulative-style gauges at their
  // end-of-solve values; rate gauges depend on wall time so only existence
  // is checked for them via the export surface.
  EXPECT_GE(snap.gauge_value("sat.hb.restart_interval"), 1.0);
  EXPECT_GE(snap.gauge_value("sat.hb.avg_recent_lbd"), 0.0);
  bool has_cps = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "sat.hb.conflicts_per_sec") has_cps = true;
    (void)value;
  }
  EXPECT_TRUE(has_cps);

  // Counter-track samples land in the solving thread's lane — one sample of
  // every sat.hb.* track per heartbeat.
  const auto lanes = obs::snapshot_trace();
  const obs::LaneSnapshot* lane = nullptr;
  for (const auto& l : lanes) {
    if (l.name == "hb-publish") lane = &l;
  }
  ASSERT_NE(lane, nullptr);
  std::uint64_t hb_samples = 0;
  for (const auto& ev : lane->events) {
    if (ev.is_counter == 0) continue;
    EXPECT_EQ(std::string_view(ev.name).substr(0, 7), "sat.hb.");
    ++hb_samples;
  }
  // At least one heartbeat (7 tracks) fired beyond the final sample.
  EXPECT_GE(hb_samples, 14u);
}

TEST_F(SatHeartbeatTest, SearchHistogramsRecordOncePerConflict) {
  obs::set_metrics_enabled(true);
  const auto cnf = hard_unsat_cnf();
  const RunResult r = run(cnf, 1024);
  ASSERT_GT(r.stats.conflicts, 0u);

  const auto snap = obs::snapshot_metrics();
  for (const char* name : {"sat.lbd", "sat.learnt_len",
                           "sat.trail_depth_at_conflict"}) {
    const auto* hist = snap.find_histogram(name);
    ASSERT_NE(hist, nullptr) << name;
    // One observation per learnt clause; the final conflict at decision
    // level 0 (the refutation) terminates before learning, so counts track
    // conflicts without necessarily equalling them.
    EXPECT_GT(hist->count, 0u) << name;
    EXPECT_LE(hist->count, r.stats.conflicts) << name;
  }
  const auto* lbd = snap.find_histogram("sat.lbd");
  const auto* len = snap.find_histogram("sat.learnt_len");
  const auto* depth = snap.find_histogram("sat.trail_depth_at_conflict");
  EXPECT_EQ(lbd->count, len->count);
  EXPECT_EQ(lbd->count, depth->count);
  // LBD counts decision levels among the learnt literals: never above the
  // clause length, and the mean trail depth at conflict dominates both.
  EXPECT_LE(lbd->sum, len->sum);
  EXPECT_GE(depth->mean(), 1.0);
}

#endif  // !MSROPM_OBS_DISABLED
