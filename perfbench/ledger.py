#!/usr/bin/env python3
"""Write the baseline ledger: every workload's metrics at one seed.

    python3 perfbench/ledger.py [--seed 7] [--out perfbench/baseline.json]

Runs each workload of BENCHMARK.json once untraced and once traced, for the
run_seconds BENCHMARK.json names, and writes the end-to-end metrics and the
non-zero per-layer metrics (the per-layer split) as JSON. The host's CPU
model and core count are recorded with the numbers.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} trace={trace}: wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ledger = {
        "host": f"{cpu_model()}, {os.cpu_count()} cores",
        "seed": args.seed,
        "run_seconds": seconds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        print(f"ledger: {name}", file=sys.stderr)
        layers = run(name, args.seed, seconds, 1)
        ledger["workloads"][name] = {
            "end_to_end": run(name, args.seed, seconds, 0),
            "per_layer": {k: v for k, v in layers.items() if v != 0},
        }
    Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")


if __name__ == "__main__":
    main()
