#!/usr/bin/env python3
"""Behavioural contract of the two command-line tools, dimacs_solver and
portfolio_sweep, driven as subprocesses on a generated 3x3 King's graph.

Pins what scripted users depend on: verdict exit codes (also when a `step`
fault cancels the machine run, in dimacs_solver and in the portfolio's
msropm attempt), exit 2 on every usage error (missing flag value, unknown or
deleted flag, a non-numeric or negative positional number, zero iterations
or more than the shared iteration bound, bad --jobs, unknown --strategies
name, malformed --fault-spec or MSROPM_FAULT, a deleted fault site), one
"last value wins" warning per repeated observability flag, metrics files
written even when the input file is missing, the --chromatic verdict line,
and the library timers of the parse and DSATUR layers in the --metrics
report. Apart from that line, the timer rows, the "colored" row, the
iteration bound's value and the warning substring, only exit codes and files
are asserted, never message wording. A DIMACS header at the reader's own
node cap must stop at the machine's node bound (exit 2, the bound's value in
the diagnostic) within seconds, under an address-space limit, and running
out of memory inside a machine worker thread must exit 3 like any other
escaped exception.

Usage: cli_contract_test.py DIMACS_SOLVER PORTFOLIO_SWEEP OBS
where OBS is the MSROPM_OBS setting the binaries were built with (ON/OFF).
In an OBS=OFF build the metrics-file cases expect exit 2 and no file.
Registered with ctest as cli_contract_py_test.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

DIMACS = None
SWEEP = None
OBS_ON = True

REPEAT_WARNING = "given more than once"
BAD_FAULT_SPEC = "bogus:zz"


def kings_col(side):
    """DIMACS .col text of the side x side King's graph, edges in
    lexicographic order."""
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c + 1
            if c + 1 < side:
                edges.append(f"e {u} {u + 1}\n")
            if r + 1 < side:
                if c > 0:
                    edges.append(f"e {u} {u + side - 1}\n")
                edges.append(f"e {u} {u + side}\n")
                if c + 1 < side:
                    edges.append(f"e {u} {u + side + 1}\n")
    return f"p edge {side * side} {len(edges)}\n" + "".join(edges)


def run(binary, args, env_extra=None, preexec_fn=None):
    env = dict(os.environ)
    env.pop("MSROPM_FAULT", None)
    env.update(env_extra or {})
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=preexec_fn)


def asan_instrumented(binary):
    """ASan reserves terabytes of shadow address space at startup, so an
    ASan build cannot run under RLIMIT_AS at all."""
    with open(binary, "rb") as f:
        return b"__asan_init" in f.read()


class CliContract(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="msropm-cli-contract-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)
        self.graph = self.path("kings3.col")
        with open(self.graph, "w", encoding="utf-8") as f:
            f.write(kings_col(3))

    def path(self, name):
        return os.path.join(self.tmp, name)

    def assertExit(self, proc, code):
        self.assertEqual(proc.returncode, code,
                         f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")

    def assertWritten(self, path):
        # Existence only: an empty snapshot exports as an empty Prometheus file.
        self.assertTrue(os.path.isfile(path), path)

    # --- verdict exit codes ------------------------------------------------

    def test_dimacs_solver_verdicts(self):
        self.assertExit(run(DIMACS, [self.graph, "4", "4", "1", "--sat"]), 10)
        self.assertExit(run(DIMACS, [self.graph, "2", "4", "1", "--sat"]), 20)

    def test_dimacs_solver_step_fault_is_a_verdict_not_a_crash(self):
        # step:1 cancels the machine run before its first batch: no
        # iteration completes, and DSATUR still colors the graph.
        self.assertExit(run(DIMACS, [self.graph, "4", "4", "1",
                                     "--fault-spec", "step:1"]), 10)

    def test_dimacs_solver_chromatic(self):
        # The 3x3 King's graph holds a 4-clique and is 4-colorable, so its
        # chromatic number is exactly 4: it fits a palette of 4, not of 2.
        proc = run(DIMACS, [self.graph, "4", "1", "1", "--chromatic"])
        self.assertExit(proc, 10)
        self.assertIn("chromatic number: 4 ", proc.stdout)
        self.assertRegex(proc.stdout, r"\(bounds \[4, 4\], 1 solves\)")
        self.assertNotIn("incremental", proc.stdout)
        self.assertExit(run(DIMACS, [self.graph, "2", "1", "1", "--chromatic"]),
                        20)

    def test_portfolio_sweep_decides_everything(self):
        self.assertExit(run(SWEEP, ["--kings", "4", "--kings-unsat", "4"]), 0)

    def test_portfolio_sweep_retries_msropm_after_step_fault(self):
        # step:1 cancels the first machine run before its first batch; the
        # watchdog retries the attempt as injected, and the retry colors.
        proc = run(SWEEP, ["--kings", "6", "--strategies", "msropm",
                           "--fault-spec", "step:1"])
        self.assertExit(proc, 0)
        self.assertIn("colored", proc.stdout)

    # --- usage errors ------------------------------------------------------

    def test_usage_errors_exit_2(self):
        cases = {
            "dimacs missing value": (DIMACS, [self.graph, "4", "--trace"]),
            "dimacs missing json value": (DIMACS, [self.graph, "--metrics-json"]),
            "dimacs unknown flag": (DIMACS, [self.graph, "4", "--bogus"]),
            "dimacs bad fault spec": (
                DIMACS, [self.graph, "4", "--fault-spec", BAD_FAULT_SPEC]),
            "dimacs deleted --preprocess": (
                DIMACS, [self.graph, "4", "4", "1", "--sat", "--preprocess"]),
            "dimacs deleted --no-preprocess": (
                DIMACS, [self.graph, "4", "4", "1", "--sat", "--no-preprocess"]),
            "dimacs zero iterations": (DIMACS, [self.graph, "4", "0"]),
            "dimacs non-numeric iterations": (DIMACS, [self.graph, "4", "abc"]),
            "dimacs non-numeric colors": (DIMACS, [self.graph, "four"]),
            "dimacs negative seed": (DIMACS, [self.graph, "4", "4", "-1"]),
            "dimacs deleted fault site pre": (
                DIMACS, [self.graph, "4", "4", "1", "--sat",
                         "--fault-spec", "pre:1"]),
            "sweep missing value": (SWEEP, ["--kings", "4", "--jobs"]),
            "sweep missing prom value": (SWEEP, ["--metrics-prom"]),
            "sweep unknown flag": (SWEEP, ["--kings", "4", "--bogus"]),
            "sweep zero jobs": (SWEEP, ["--kings", "4", "--jobs", "0"]),
            "sweep unknown strategy sa": (
                SWEEP, ["--kings", "4", "--strategies", "sa"]),
            "sweep unknown strategy cdcl-pre": (
                SWEEP, ["--kings", "4", "--strategies", "dsatur,cdcl-pre"]),
            "sweep unknown strategy cdcl-inc": (
                SWEEP, ["--kings", "4", "--strategies", "cdcl-inc"]),
            "sweep bad fault spec": (
                SWEEP, ["--kings", "4", "--fault-spec", BAD_FAULT_SPEC]),
        }
        for name, (binary, args) in cases.items():
            with self.subTest(case=name):
                self.assertExit(run(binary, args), 2)

    def test_iteration_count_over_the_bound_exits_2(self):
        # Both CLIs share one iteration bound and name it in the diagnostic.
        for binary, args in (
                (DIMACS, [self.graph, "4", "1000000000000", "7"]),
                (SWEEP, ["--strategies", "msropm:1000000000000"])):
            with self.subTest(binary=os.path.basename(binary)):
                proc = run(binary, args)
                self.assertExit(proc, 2)
                self.assertIn("100000", proc.stderr)

    def test_node_count_over_the_machine_bound_exits_2(self):
        # The reader accepts its own node cap (2^26) in well under a second;
        # dimacs_solver must then stop at the machine's bound
        # (core::kMaxMachineNodes) instead of building the phase machine for
        # every node. The child runs under a 1 GiB address-space limit, so a
        # regression fails to allocate (and crashes) rather than exhausting
        # the host.
        huge = self.path("huge.col")
        with open(huge, "w", encoding="utf-8") as f:
            f.write("p edge 67108864 0\n")
        limit = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        preexec = None if asan_instrumented(DIMACS) else cap_address_space
        start = time.monotonic()
        proc = run(DIMACS, [huge, "4"], preexec_fn=preexec)
        self.assertExit(proc, 2)
        self.assertIn("65536", proc.stderr)
        self.assertLess(time.monotonic() - start, 10.0)

    def test_out_of_memory_in_a_machine_worker_exits_3(self):
        # 40 iterations of the machine on a 65,536-node King's graph need
        # more than 200 MiB of address space (on a 4-vCPU x86-64 host the run
        # completes under a 280 MiB cap and fails under 275 MiB), so a
        # machine worker thread runs out of memory.
        # Its std::bad_alloc must reach the CLI's top-level handler (exit 3),
        # not std::terminate. ASan cannot run under RLIMIT_AS, and without
        # the limit the run would just succeed slowly, so it is skipped there.
        if asan_instrumented(DIMACS):
            self.skipTest("ASan build cannot run under RLIMIT_AS")
        graph = self.path("kings256.col")
        with open(graph, "w", encoding="utf-8") as f:
            f.write(kings_col(256))
        limit = 200 << 20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = run(DIMACS, [graph, "4", "40", "1"],
                   preexec_fn=cap_address_space)
        self.assertExit(proc, 3)

    def test_malformed_fault_env_exits_2(self):
        env = {"MSROPM_FAULT": BAD_FAULT_SPEC}
        self.assertExit(run(DIMACS, [self.graph, "4", "4", "1"], env), 2)
        self.assertExit(run(SWEEP, ["--kings", "4"], env), 2)

    # --- repeated observability flags --------------------------------------

    def check_repeat(self, binary, base_args, flag, ok_status):
        first, second, last = (self.path(f"{flag.strip('-')}.{i}")
                               for i in range(3))
        proc = run(binary, base_args + [flag, first, flag, second, flag, last])
        self.assertEqual(proc.stderr.count(REPEAT_WARNING), 1, proc.stderr)
        self.assertFalse(os.path.exists(first))
        self.assertFalse(os.path.exists(second))
        if OBS_ON:
            self.assertExit(proc, ok_status)
            self.assertWritten(last)
        else:
            self.assertExit(proc, 2)
            self.assertFalse(os.path.exists(last))

    def test_repeated_flag_warns_once_and_last_wins(self):
        self.check_repeat(DIMACS, [self.graph, "4", "4", "1"], "--metrics-json", 10)
        self.check_repeat(SWEEP, ["--kings", "4"], "--metrics-prom", 0)

    def test_repeated_metrics_switch_warns_once(self):
        proc = run(DIMACS, [self.graph, "4", "4", "1", "--metrics", "--metrics"])
        self.assertExit(proc, 10)
        self.assertEqual(proc.stderr.count(REPEAT_WARNING), 1, proc.stderr)

    def test_metrics_report_times_the_exact_path(self):
        # The graph reader, DSATUR, the encoder, decode and the conflict
        # check time themselves inside the library, so the report attributes
        # every exact-path layer without a caller stopwatch.
        proc = run(DIMACS, [self.graph, "4", "4", "1", "--sat", "--metrics"])
        self.assertExit(proc, 10)
        if OBS_ON:
            for timer in ("graph.parse", "solvers.dsatur", "sat.encode",
                          "sat.decode", "graph.verify"):
                self.assertRegex(proc.stdout,
                                 rf"(?m)^{re.escape(timer)}\s+timer\s+[1-9]")

    # --- metrics files survive input errors --------------------------------

    def check_files_on_input_error(self, binary, args):
        json_path, prom_path = self.path("m.json"), self.path("m.prom")
        proc = run(binary, args + ["--metrics-json", json_path,
                                   "--metrics-prom", prom_path])
        self.assertExit(proc, 2)
        for p in (json_path, prom_path):
            if OBS_ON:
                self.assertWritten(p)
            else:
                self.assertFalse(os.path.exists(p))

    def test_metrics_written_when_input_missing(self):
        missing = self.path("missing.col")
        self.check_files_on_input_error(DIMACS, [missing, "4"])
        self.check_files_on_input_error(SWEEP, ["--dimacs", missing])


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[3].upper() not in ("ON", "OFF"):
        sys.stderr.write(__doc__)
        sys.exit(2)
    DIMACS, SWEEP = sys.argv[1], sys.argv[2]
    OBS_ON = sys.argv[3].upper() == "ON"
    unittest.main(argv=sys.argv[:1])
