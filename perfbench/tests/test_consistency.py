#!/usr/bin/env python3
"""Traced-run consistency check of the repository benchmark.

    python3 perfbench/tests/test_consistency.py [-v]

For every workload it makes one untraced and two traced runs with the same
seed (short runs; table1 takes about a minute and a half) and checks that:

  * every answer is right and the traced run's own check that obs counts
    the work the library's results report passed (correct, failed == 0);
  * traced and untraced runs did identical work: the `work:` line
    (sat.conflicts, phase.osc_steps, decided, accuracy sum per pass) is the
    same, so tracing changes neither decided_frac nor mean_accuracy;
  * the exact per-layer counts repeat bit-for-bit from run to run;
  * on table1, exact_kings and exact_hard the layer times cover at least
    90% of the traced wall time (unattributed_frac <= 0.10).

Builds through perfbench/run.py, so the first run may take a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 7
SECONDS = "2"
COUNTS = ["phase.osc_steps", "msropm.exact_solutions", "solvers.dsatur_colors",
          "sat.conflicts", "sat.decisions", "sat.propagations", "sat.learnts",
          "sat.arena_words", "sat.solve_calls", "portfolio.attempts",
          "portfolio.wins", "portfolio.skipped"]
COVERED = {"table1", "exact_kings", "exact_hard"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    work = [line for line in lines if line.startswith("work:")]
    return work[0] if work else None, json.loads(lines[-1])


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


class TracedRunConsistency(unittest.TestCase):
    def test_workloads(self):
        for workload in workloads():
            with self.subTest(workload=workload):
                self.check(workload)

    def check(self, workload):
        plain_work, plain = run(workload, 0)
        runs = [run(workload, 1) for _ in range(2)]
        for result in [plain] + [r for _, r in runs]:
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
        for traced_work, _ in runs:
            self.assertIsNotNone(traced_work)
            self.assertEqual(traced_work, plain_work)
        first, second = (r["metrics"] for _, r in runs)
        for name in COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        if workload in COVERED:
            for metrics in (first, second):
                self.assertLessEqual(metrics["unattributed_frac"]["value"], 0.10)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
