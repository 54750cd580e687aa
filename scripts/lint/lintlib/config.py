"""Project contract configuration for msropm-lint.

Each entry grounds a rule in a documented contract — see scripts/lint/README.md
for the rule catalogue and the src/*/README sections each one cross-references.
Paths are repo-relative prefixes matched against forward-slash paths.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# obs-gate — src/obs/README.md "Overhead contract":
# obs event calls reachable from solver / phase / portfolio hot paths must be
# dominated by an obs::gate() (or metrics_enabled/tracing_enabled) check.
# ---------------------------------------------------------------------------

# Modules whose code is reachable from the three hot engines.
OBS_GATE_PATHS = ('src/sat/', 'src/phase/', 'src/portfolio/', 'src/msropm/',
                  'src/solvers/')

# Event entry points that mutate the registry / tracer per call.  Span and
# the interning calls (counter/gauge/timer/histogram) are exempt: a Span is
# self-gating by construction (captures the gate word once, inert at 0) and
# interning happens once per process at metric-struct init.
OBS_EVENT_CALLS = ('add', 'set_gauge', 'observe', 'record_time',
                   'trace_counter', 'trace_instant')

# Identifiers that, appearing in an `if` condition, mark its true-branch as
# gate-dominated.  `obs_gate` / `gate` cover the cached-load idiom
# (`const std::uint32_t obs_gate = obs::gate();`), `flags_` covers
# Span-internal code.
OBS_GATE_TOKENS = ('gate', 'metrics_enabled', 'tracing_enabled', 'obs_gate',
                   'flags_')

# ---------------------------------------------------------------------------
# poll-discipline — src/util/README.md "Cancellation / budget contract":
# long-running entry-point loops must poll StopToken / ResourceBudget /
# fault gates.  Applied to functions matching ENTRY_POINTS; loop nests whose
# bound is a literal <= POLL_TRIP_THRESHOLD are exempt.
# ---------------------------------------------------------------------------

ENTRY_POINTS = [re.compile(p) for p in (
    r'(^|::)Solver::solve_internal$',
    r'(^|::)Solver::solve_obs$',
    r'(^|::)PhaseBatch::run$',
    r'(^|::)run_iterations$',
    r'(^|::)solve_tabucol$',
    r'(^|::)solve_sa_potts$',
    r'(^|::)MultiStagePottsMachine::solve_batch$',
    r'(^|::)chromatic_search$',
    r'(^|::)run_portfolio\w*$',
    r'(^|::)SweepRunner::\w+$',
)]

# Direct poll markers; local lambdas whose bodies contain one of these are
# resolved per-function and their names join the set (the `stopped()` /
# `should_break()` idiom).
POLL_TOKENS = ('stop_requested', 'deadline_expired', 'budget_breach', 'fire',
               'cancelled')

POLL_TRIP_THRESHOLD = 4096  # literal loop bounds <= this never need a poll

# The rule targets loops that run ITERATION-scale work, not loops bounded by
# input size (per-replica setup, result aggregation, validation sweeps are
# O(data) per call and finish with the data).  A loop is a poll candidate
# when it is infinite (`for(;;)`, `while(true)`) or its header names an
# iteration budget:
ITER_BOUND_RE = re.compile(
    r'(iter|step|sweep|round|restart|attempt|epoch|trial|budget|conflict)',
    re.IGNORECASE)

# Callees that poll cooperatively per their own documented contracts; a loop
# that calls one of these delegates its polling (PhaseBatch::run polls every
# 32 steps, Solver::solve honors conflict/stop budgets, the portfolio drain
# path polls inside run_task).
POLLING_CALLEES = ('run', 'solve', 'solve_batch', 'solve_internal',
                   'run_portfolio_batch', 'run_iterations', 'solve_tabucol',
                   'solve_sa_potts', 'drain')

# ---------------------------------------------------------------------------
# determinism — src/portfolio/README.md "Determinism contract" and
# src/sat/README.md: result-producing code draws randomness only through
# util::Rng (seeded, split()), never reads wall clocks into results, and
# never iterates unordered containers.
# ---------------------------------------------------------------------------

# Result-producing scope: everything in src/ except the whitelist below.
DETERMINISM_PATHS = ('src/',)
# Whitelisted infrastructure: obs (trace timestamps), util (Rng itself,
# StopToken deadlines, bench provenance stamps, wall-clock helpers).
DETERMINISM_WHITELIST = ('src/obs/', 'src/util/')

BANNED_RANDOM = ('rand', 'srand', 'random_device', 'mt19937', 'mt19937_64',
                 'minstd_rand', 'minstd_rand0', 'default_random_engine',
                 'random_shuffle', 'rand_r', 'drand48', 'lrand48')
BANNED_CLOCK = ('system_clock', 'gettimeofday', 'clock_gettime', 'localtime',
                'gmtime')
UNORDERED_CONTAINERS = ('unordered_map', 'unordered_set', 'unordered_multimap',
                        'unordered_multiset')

# ---------------------------------------------------------------------------
# hot-path-alloc — src/sat/README.md "Hot path" and src/phase/README.md:
# the propagate/analyze/reduce/batch-step kernels must not allocate.
# Container growth on receivers with a visible reserve()/exact-size setup in
# the same translation unit is amortized-safe and allowed.
# ---------------------------------------------------------------------------

HOT_FUNCTIONS = [re.compile(p) for p in (
    r'(^|::)Solver::propagate$',
    r'(^|::)Solver::enqueue$',
    r'(^|::)Solver::analyze$',
    r'(^|::)Solver::lit_redundant$',
    r'(^|::)Solver::backtrack$',
    r'(^|::)Solver::pick_branch_lit$',
    r'(^|::)Solver::bump_var$',
    r'(^|::)Solver::bump_clause$',
    r'(^|::)Solver::reduce_learnts$',
    r'(^|::)Solver::garbage_collect$',
    # The watch-list push behind propagate's watcher moves and learnt
    # attaches, and its out-of-line growth path (src/sat/watcher.hpp).
    r'(^|::)WatchLists::push$',
    r'(^|::)WatchLists::grow$',
    r'(^|::)PhaseBatch::euler_step_lanes$',
    # The P_EN mask-bit rebuild euler_step_lanes runs after a mask change.
    r'(^|::)PhaseBatch::rebuild_edge_bits$',
    r'(^|::)PhaseBatch::pack_lanes$',
    r'(^|::)PhaseBatch::unpack_lanes$',
    r'(^|::)PhaseBatch::refresh_trig$',
    # The lane kernel templates (src/phase/simd_kernels.hpp, internal
    # linkage, so matched by bare name) and their trig.cpp entry points.
    r'(^|::)euler_step_l$',
    r'(^|::)uniform_lanes_l$',
    r'(^|::)sincos_w$',
    r'(^|::)box_muller_w$',
    r'(^|::)detail::uniform_lanes$',
    r'(^|::)Rng::uniform_array$',
    r'(^|::)VarOrderHeap::\w+$',
)]

GROWTH_CALLS = ('push_back', 'emplace_back', 'resize', 'insert', 'emplace',
                'append', 'assign', 'push', 'emplace_front', 'push_front')

ALLOC_CALLS = ('malloc', 'calloc', 'realloc', 'make_unique', 'make_shared',
               'strdup', 'allocate')

# Local declarations of these types inside hot functions are flagged (their
# constructors may allocate).
ALLOCATING_TYPES = ('vector', 'string', 'deque', 'map', 'set', 'list',
                    'unordered_map', 'unordered_set', 'basic_string',
                    'stringstream', 'ostringstream', 'function')

# ---------------------------------------------------------------------------
# atomics-discipline — src/obs/README.md "Overhead contract" and
# src/util/README.md fault-gate contract: the thread-local metric cells,
# the gate words, and the fault/stop flags name their memory order
# explicitly; a defaulted (seq_cst) operation is a contract violation.
# ---------------------------------------------------------------------------

ATOMICS_PATHS = ('src/obs/', 'src/util/fault_injector',
                 'src/util/include/msropm/util/fault_injector',
                 'src/util/include/msropm/util/stop_token')

ATOMIC_OPS = ('load', 'store', 'fetch_add', 'fetch_sub', 'fetch_or',
              'fetch_and', 'fetch_xor', 'exchange', 'compare_exchange_weak',
              'compare_exchange_strong', 'test_and_set', 'clear', 'wait',
              'notify_one', 'notify_all')

# Ops for which a missing memory_order argument is reportable.  clear()/wait()
# etc. are listed above only so the receiver heuristics can recognize atomics.
ATOMIC_ORDERED_OPS = ('load', 'store', 'fetch_add', 'fetch_sub', 'fetch_or',
                      'fetch_and', 'fetch_xor', 'exchange',
                      'compare_exchange_weak', 'compare_exchange_strong',
                      'test_and_set')


def path_in(path: str, prefixes) -> bool:
    return any(path.startswith(p) for p in prefixes)
