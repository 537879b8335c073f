#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--out results.json]
                                [--baseline earlier.json]

Runs every workload of ``BENCHMARK.json`` ``--runs`` times, each with another
seed, one run at a time, with the benchmark's own command and run length.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  It exits with status 1 when a run
fails or reports incorrect results, or when a metric other than ``setup_s``
spreads wider than its bound.  ``--out`` saves every value; ``--baseline``
reads such a file from an earlier set of runs and also fails when a median,
``setup_s``'s too, is worse than the earlier median by more than the bound.
``setup_s``'s bound applies to medians only: its spread is printed but not
gated, since set-up time is compared between commits by its median alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a run that ends within its contract takes at most 180 s
RUN_TIMEOUT_S = 240


def run_once(command, workload: str, seed: int, seconds: float) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every measured value to this JSON file")
    ap.add_argument("--baseline", help="values from an earlier --out to compare medians with")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    ok = True
    saved = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            try:
                result = run_once(spec["command"], workload, seed, spec["run_seconds"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"FAIL {exc}")
                return 1
            if not result["correct"]:
                print(f"FAIL {workload} seed {seed}: {result['failed']} of {result['attempted']} jobs failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {result['attempted']} jobs", flush=True)
        saved[workload] = values
        for name, bound in bounds.items():
            median, q1, q3, width = spread(values[name])
            gated = name != "setup_s"
            verdict = "ok" if width <= bound or not gated else "TOO WIDE"
            if verdict != "ok":
                ok = False
            line = (f"{workload:14s} {name:24s} median {median:12.6g} {units[name]:4s} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {width:7.2%} bound {bound:5.0%} "
                    f"{verdict if gated else '(spread not gated)'}")
            if name in baseline.get(workload, {}):
                before = statistics.median(baseline[workload][name])
                change = (median - before) / before
                worse = change if lower_better[name] else -change
                line += f"; vs baseline {change:+.2%}"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
