#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--corpus main|heldout]

Builds the perfbench executable from this source tree (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the tree's
root; runs it; prints each metric by name with its unit from BENCHMARK.json;
and prints as the last line of stdout one JSON object:

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": x, "unit": u}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics,
and the traced run also writes its Chrome trace under the build directory
(traces/<workload>-seed<N>.json). See perfbench/README.md.

Exits nonzero, printing no result, when the build or the run fails or the
run's output does not carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the executable; return its path."""
    log_path = build_dir.parent / "perfbench-build.log"
    build_dir.parent.mkdir(parents=True, exist_ok=True)

    def step(log, cmd):
        try:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as ex:
            fail(f"build step {cmd[:2]} failed: {ex}")
        if rc != 0:
            log.flush()
            tail = log_path.read_text(errors="replace").splitlines()[-20:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build failed (rc {rc}); full log in {log_path}")

    # The stamp marks a configure step that completed; a failed one is redone.
    configured = build_dir / ".perfbench-configured"
    with open(log_path, "w") as log:
        if not configured.exists():
            step(log, ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"])
            configured.touch()
        step(log, ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", str(min(4, os.cpu_count() or 1))])
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--corpus", choices=["main", "heldout"], default="main")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as ex:
        fail(f"cannot read {spec_path}: {ex}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--corpus", args.corpus]
    if args.trace == "1":
        traces = build_dir.parent / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run failed (rc {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("run printed no result line")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(units))}")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")

    for line in lines[:-1]:
        print(line)
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
