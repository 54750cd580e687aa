#!/usr/bin/env python3
"""Behavioural contract of the two command-line tools, dimacs_solver and
portfolio_sweep, driven as subprocesses on a generated 3x3 King's graph.

Pins what scripted users depend on: verdict exit codes, exit 2 on every
usage error (missing flag value, unknown or deleted flag, bad --jobs,
unknown --strategies name, malformed --fault-spec or MSROPM_FAULT, a
deleted fault site), one "last value wins" warning per repeated
observability flag, and metrics files written even when the input file is
missing. Only exit codes, files and the
warning substring are asserted, never message wording.

Usage: cli_contract_test.py DIMACS_SOLVER PORTFOLIO_SWEEP OBS
where OBS is the MSROPM_OBS setting the binaries were built with (ON/OFF).
In an OBS=OFF build the metrics-file cases expect exit 2 and no file.
Registered with ctest as cli_contract_py_test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

DIMACS = None
SWEEP = None
OBS_ON = True

REPEAT_WARNING = "given more than once"
BAD_FAULT_SPEC = "bogus:zz"


def kings_col(side):
    """DIMACS .col text of the side x side King's graph."""
    n = side * side
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if abs(u % side - v % side) <= 1 and abs(u // side - v // side) <= 1]
    return f"p edge {n} {len(edges)}\n" + "".join(
        f"e {u + 1} {v + 1}\n" for u, v in edges)


def run(binary, args, env_extra=None):
    env = dict(os.environ)
    env.pop("MSROPM_FAULT", None)
    env.update(env_extra or {})
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          env=env, timeout=120)


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

    def test_portfolio_sweep_decides_everything(self):
        self.assertExit(run(SWEEP, ["--kings", "4", "--kings-unsat", "4"]), 0)

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
