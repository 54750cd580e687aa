#!/usr/bin/env bash
# Tier-1 verification: configure + build + full ctest run.
# Exits nonzero on the first failure.
#
# Base usage:
#   scripts/check.sh                        # Release build into build/
#   MSROPM_SANITIZE=ON scripts/check.sh     # ASan/UBSan build into build-asan/
#   MSROPM_SANITIZE=thread scripts/check.sh # TSan build into build-tsan/
#
# Optional presets (each runs AFTER the normal build + ctest pass; combine
# freely, e.g. CHECK_LINT=1 CHECK_BENCH=1 scripts/check.sh):
#
#   Preset             What it adds
#   ----------------   ------------------------------------------------------
#   CHECK_ASAN=1       tests labelled `asan` in CMakeLists.txt (SAT arena/GC,
#                      batched phase engine, bitset DSATUR) rebuilt and
#                      rerun under ASan/UBSan (build-asan/)
#   CHECK_TSAN=1       tests labelled `tsan` (portfolio, stop tokens, arena
#                      cancellation, obs, batched runner) under TSan
#                      (build-tsan/)
#   CHECK_CHAOS=1      tests labelled `chaos` (randomized fault schedules,
#                      budgets, deadline edges, hostile graph input) under
#                      ASan/UBSan; fault-injected CLI matrix (real exits,
#                      never a crash); the BM_FaultGateOverhead <= 8 ns gate
#   CHECK_OBS=1        instrumented 4-worker sweep with --trace --metrics;
#                      Chrome-trace validation (check_trace.py, jq);
#                      bench_portfolio as the obs-disabled overhead gate
#   CHECK_BENCH=1      the result-dropping benches (BENCHES below) with their
#                      hard perf + equivalence gates; all drop
#                      bench_results/*.json
#   CHECK_BENCH_DIFF=1 reruns BENCHES, then diffs bench_results/ against the
#                      copy committed at HEAD (scripts/bench_diff.py, fails
#                      on >10% regression)
#   CHECK_LINT=1       msropm-lint over src/ (scripts/lint/: obs gating,
#                      poll discipline, determinism, hot-path allocation,
#                      atomics orders) — fails on any unsuppressed finding —
#                      plus the lint self-test suite
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${MSROPM_SANITIZE:-OFF}"
BUILD_DIR="build"
case "${SANITIZE}" in
  OFF)        ;;
  ON|address) BUILD_DIR="build-asan" ;;
  thread)     BUILD_DIR="build-tsan" ;;
  *)
    echo "error: MSROPM_SANITIZE must be OFF, ON/address, or thread (got: ${SANITIZE})" >&2
    exit 2
    ;;
esac

JOBS="$(nproc 2>/dev/null || echo 2)"

# Configure build dir $1 with sanitizer $2, then build and run exactly the
# tests carrying ctest label $3 (test name == executable target).
run_labelled() {
  local dir="$1" sanitize="$2" label="$3" tests
  cmake -B "${dir}" -S . -DMSROPM_SANITIZE="${sanitize}"
  tests="$(ctest --test-dir "${dir}" -N -L "^${label}\$" |
           sed -n 's/^ *Test *#[0-9]*: *//p')"
  if [ -z "${tests}" ]; then
    echo "error: no tests labelled '${label}' in ${dir}" >&2
    exit 1
  fi
  cmake --build "${dir}" -j "${JOBS}" --target ${tests}
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L "^${label}\$"
}

# Benches that gate performance and drop bench_results/*.json.
BENCHES="bench_sat_arena bench_portfolio bench_phase_batch bench_ablation_schedule"
run_benches() {
  local bench
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ${BENCHES}
  for bench in ${BENCHES}; do "./${BUILD_DIR}/${bench}"; done
}

cmake -B "${BUILD_DIR}" -S . -DMSROPM_SANITIZE="${SANITIZE}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# SAT clause-arena tests: GC relocation + learnt reduction + cancellation is
# exactly where a use-after-free would hide, so these run under ASan/UBSan on
# demand (the sanitizer presets also enable the solver's internal
# stale-reference checks via MSROPM_SAT_CHECK_INVARIANTS).
if [ "${CHECK_ASAN:-0}" = "1" ] && [ "${SANITIZE}" = "OFF" ]; then
  run_labelled build-asan ON asan
fi

# Optional TSan pass over the concurrency-sensitive tests (worker pool,
# cooperative cancellation, stop-token plumbing) plus the arena tests:
# portfolio cancellation can fire mid-GC, which is where a race between the
# stop flag and clause relocation would surface.
if [ "${CHECK_TSAN:-0}" = "1" ] && [ "${SANITIZE}" != "thread" ]; then
  run_labelled build-tsan thread tsan
fi

# Chaos preset: the randomized fault-schedule suite is exactly where a
# mid-unwind use-after-free or leaked allocation would hide, so it runs
# under ASan/UBSan; a fixed seed matrix of fault-injected CLI runs checks
# the end-to-end behavior (real exit codes, diagnostics on stderr, never a
# crash); and BM_FaultGateOverhead enforces that the disarmed injector costs
# <= 8 ns per fault point.
if [ "${CHECK_CHAOS:-0}" = "1" ] && [ "${SANITIZE}" = "OFF" ]; then
  run_labelled build-asan ON chaos
  cmake --build build-asan -j "${JOBS}" --target dimacs_solver portfolio_sweep
  # Fixed seed matrix through the CLI: exit 10/20/0 are legitimate verdicts
  # under chaos, 2 is a usage error we did not make, 3 would mean an escaped
  # exception, anything else (e.g. 139) a crash. The portfolio's msropm
  # attempt rides along under the machine-step specs: exit 0 (decided) or 1
  # (unknown) only.
  python3 - <<'EOF'
import subprocess, sys, tempfile, os
specs = ["alloc:1", "propagate:1:3", "analyze:2", "gc:1", "step:1",
         "all@0.05,seed=7", "all@0.2,seed=11", "stall:1,stall-ms=1"]
# 3x3 King's graph in DIMACS .col form (4-colorable; K=3 is UNSAT).
edges = [(u, v) for u in range(9) for v in range(u + 1, 9)
         if abs(u % 3 - v % 3) <= 1 and abs(u // 3 - v // 3) <= 1]
body = f"p edge 9 {len(edges)}\n" + "".join(f"e {u+1} {v+1}\n" for u, v in edges)
path = os.path.join(tempfile.mkdtemp(), "kings3.col")
with open(path, "w") as f:
    f.write(body)
for spec in specs:
    # Colors must be a power of two for the machine plan; 4 is SAT on the
    # 3x3 King's graph, 2 is UNSAT — both legitimate verdict exits.
    for args in (["4", "10", "1", "--sat"], ["2", "5", "1", "--sat", "--chromatic"]):
        cmd = ["./build-asan/dimacs_solver", path] + args + ["--fault-spec", spec]
        r = subprocess.run(cmd, capture_output=True)
        if r.returncode not in (0, 10, 20):
            sys.stderr.write(f"chaos CLI matrix: {' '.join(cmd)} exited "
                             f"{r.returncode}\n{r.stderr.decode()}\n")
            sys.exit(1)
sweep_specs = ["step:1", "all@0.2,seed=11"]
for spec in sweep_specs:
    cmd = ["./build-asan/portfolio_sweep", "--kings", "6", "--strategies",
           "msropm", "--fault-spec", spec]
    r = subprocess.run(cmd, capture_output=True)
    if r.returncode not in (0, 1):
        sys.stderr.write(f"chaos CLI matrix: {' '.join(cmd)} exited "
                         f"{r.returncode}\n{r.stderr.decode()}\n")
        sys.exit(1)
print(f"chaos CLI matrix: {2*len(specs) + len(sweep_specs)} fault-injected "
      "runs, all clean exits")
EOF
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro_perf
  "./${BUILD_DIR}/bench_micro_perf" \
    --benchmark_filter='BM_FaultGateOverhead' --benchmark_min_time=0.05
fi

# Observability end-to-end: an instrumented 4-worker sweep must emit a valid
# Chrome trace (one lane per worker, attempt spans wrapping nested sat.*
# solver-phase spans, stack discipline within every lane — validated by
# scripts/check_trace.py), and bench_portfolio doubles as the overhead gate
# for obs-compiled-but-disabled (plus the hard verdict/speedup gates it
# always enforces).
if [ "${CHECK_OBS:-0}" = "1" ] && [ "${SANITIZE}" = "OFF" ]; then
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target \
    portfolio_sweep bench_portfolio
  # The grid has to be heavy enough that all four workers pick up attempts
  # before the cursor drains — tiny grids finish inside worker-0's first
  # drain and leave the other lanes empty.
  "./${BUILD_DIR}/portfolio_sweep" --jobs 4 --kings 20,26,30,36,40,46 \
    --kings-unsat 10,12,14 --schedule instance \
    --trace "${BUILD_DIR}/obs_trace.json" --metrics
  # --require-counters: with --metrics on, every active worker lane must
  # publish heartbeat counter tracks alongside its spans.
  python3 scripts/check_trace.py "${BUILD_DIR}/obs_trace.json" \
    --min-workers 4 --require-counters
  # jq is a second, independent parser: a trace Python accepts but jq rejects
  # would still break downstream tooling.
  if command -v jq >/dev/null 2>&1; then
    jq -e '.traceEvents | length > 0' "${BUILD_DIR}/obs_trace.json" >/dev/null
  fi
  "./${BUILD_DIR}/bench_portfolio"
fi

# Perf-regression gates: bench_sat_arena exits nonzero when construction
# allocations scale with the clause count (or search allocations with the
# learnt count); bench_portfolio exits nonzero on any verdict mismatch
# across worker counts or when the portfolio is slower than the best single
# complete strategy; bench_phase_batch exits nonzero when the batched phase
# engine loses to the embedded pre-refactor engine at batch size 1, misses
# 2x serial throughput at batch size 40 on every fabric, or spends more than
# 1.75x the noiseless step time once noise is on (noise_overhead) on any
# fabric. All emit bench_results/*.json so the numbers are tracked, not just
# the pass/fail bit.
if [ "${CHECK_BENCH:-0}" = "1" ] && [ "${SANITIZE}" = "OFF" ]; then
  run_benches
fi

# Bench regression diff: rerun the result-dropping benches (refreshing the
# working-tree bench_results/), then compare row-by-row against the copy
# committed at HEAD. bench_diff.py exits 1 when a gated metric (timings,
# allocation words, speedups, decided counts) regresses beyond 10%, and on
# any benchmark row that silently disappeared.
if [ "${CHECK_BENCH_DIFF:-0}" = "1" ] && [ "${SANITIZE}" = "OFF" ]; then
  run_benches
  python3 scripts/bench_diff.py --git HEAD bench_results --threshold 0.10
fi

# Project-contract lint gate: msropm-lint enforces the cross-cutting
# contracts generic tools can't see (obs gate domination, cooperative
# cancellation polls, determinism, hot-path allocation discipline, explicit
# atomic orders — see scripts/lint/README.md). The self-test suite runs
# first so a broken rule never silently passes the tree.
if [ "${CHECK_LINT:-0}" = "1" ]; then
  python3 scripts/lint/tests/test_msropm_lint.py
  python3 scripts/lint/msropm_lint.py src
fi
