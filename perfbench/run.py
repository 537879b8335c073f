#!/usr/bin/env python3
"""Benchmark of the modcheck program: one workload, one seed, one run.

    python3 perfbench/run.py --workload count-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  The run is a
closed loop with one client in one thread.  It generates its inputs from the
seed (``gens``), then runs jobs until their summed latency reaches
``--seconds``, timing the set-up (``setup_s``, the median of several
set-ups) before them and between rounds, and checks every job against a
naive reference outside the timed region.  Every timing is scaled to a
reference speed of the host (see ``probe``).  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of ``BENCHMARK.json`` instead: it runs every job twice,
traced and untraced in alternating order, reports the throughput of both
modes as the tracing overhead, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, List, Optional

from tracer import JOB, REFERENCE, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("count-sparse", "guided-count", "pair-probe", "toolkit-mix")

# The speed of a shared host drifts: a fixed pure-Python loop, timed in 1 s
# windows on a 2-vCPU VM, took from 2.7 to 4.6 ms over five minutes, and
# its mean over 20 s windows spread 12 % between windows, with the process
# on the CPU all the time.  A run cannot outlast that drift, so every timing
# is scaled to a reference speed by a probe timed right before and right
# after it: seconds × REFERENCE_PROBE_S / (mean of the two probe times).
_PROBE_TABLE = {i: (i * 7919) % 65521 for i in range(1024)}
PROBE_LOOPS = 10_000
# the probe's time at the reference speed; any constant fixes the unit,
# and this one is about the probe's time on that VM
REFERENCE_PROBE_S = 0.0013


def probe() -> float:
    """Seconds taken by a fixed loop of integer arithmetic and dict lookups.
    It allocates no container, so it never starts the garbage collector, and
    it reads the same whatever the program keeps in memory."""
    table = _PROBE_TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        acc = (acc + table[i & 1023] * i) % 1_000_003
    return time.perf_counter() - t0


def at_reference_speed(fn):
    """Call ``fn``; return its result, its wall seconds and its seconds at
    the reference speed."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    scale = REFERENCE_PROBE_S * 2 / (before + probe())
    return out, seconds, seconds * scale


class JobRecord:
    __slots__ = ("index", "seconds", "ref_seconds", "failure")

    def __init__(self, index: int, seconds: float, ref_seconds: float,
                 failure: Optional[str]):
        self.index = index
        self.seconds = seconds
        self.ref_seconds = ref_seconds
        self.failure = failure


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program
    from there; raise if this checkout has no program sources."""
    if not (SRC / "modcheck" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import modcheck

    if Path(modcheck.__file__).resolve().parent != SRC / "modcheck":
        raise ImportError(f"modcheck was imported from {modcheck.__file__}, not {SRC}")


def run_job(workload, state, entry, index: int, tracer=None) -> JobRecord:
    """One job.  Only ``workload.run`` is timed.  ``prepare`` parses the
    job's inputs before its clock starts, and the job is checked against the
    reference after its clock stops, so results need not be kept."""
    inputs = workload.prepare(state, entry)

    def job():
        try:
            if tracer is None:
                return workload.run(state, inputs), None
            return tracer.run_span(JOB, index, lambda: workload.run(state, inputs)), None
        except Exception as exc:  # a failed job counts in error_rate
            return None, f"raised {type(exc).__name__}: {exc}"

    (result, failure), seconds, ref_seconds = at_reference_speed(job)
    if failure is None:
        failure = check_job(workload, state, inputs, result, index, tracer)
    return JobRecord(index, seconds, ref_seconds, failure)


def check_job(workload, state, inputs, result, index: int, tracer=None) -> Optional[str]:
    """None when the job agrees with the reference, else why not."""
    def reference():
        return workload.check(state, inputs, result)

    try:
        ok = reference() if tracer is None else tracer.run_span(REFERENCE, index, reference)
    except Exception as exc:  # the reference itself failed on this input
        return f"check raised {type(exc).__name__}: {exc}"
    return None if ok else "result disagrees with the reference"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics.

    Jobs run in a closed loop over the workload's entries (cycled) until
    their summed latency reaches ``seconds`` and a round is complete.  The
    set-up is timed once before the jobs and once more after every round,
    and each round runs on the state of the set-up before it, so no state
    (``pair-probe``'s piece caches) outlives a round.  Every metric is
    computed from the timings at reference speed.
    """
    deck = workload.deck(seed)

    def timed_setup():
        out, seconds, ref_seconds = at_reference_speed(lambda: workload.setup(deck))
        setups.append(ref_seconds)
        return out

    setups: List[float] = []
    state = timed_setup()
    entries = workload.cycle(deck)
    records: List[JobRecord] = []
    busy = 0.0
    while busy < seconds or len(records) % workload.round_size:
        i = len(records)
        records.append(run_job(workload, state, entries[i % len(entries)], i))
        busy += records[-1].seconds
        if len(records) % workload.round_size == 0:
            # free the used state, cycles too, before the next is built, so
            # peak memory holds one round's state whenever the collector runs
            state = None
            gc.collect()
            state = timed_setup()
    lat_ms = sorted(rec.ref_seconds * 1000.0 for rec in records)
    busy_s = sum(lat_ms) / 1000.0
    wall_s = sum(rec.seconds for rec in records)
    jobs = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10)[8] if jobs > 1 else lat_ms[0]
    beyond = sum(1 for x in lat_ms if x > p90)
    metrics = {
        "latency_p50_ms": (statistics.median(lat_ms), "ms", f"{jobs} jobs"),
        "latency_p90_ms": (p90, "ms", f"{jobs} jobs, {beyond} beyond it"),
        "throughput_jobs_per_s": (jobs / busy_s, "1/s",
                                  f"{jobs} jobs in {busy_s:.2f} s busy "
                                  f"({wall_s:.2f} s at the host's speed)"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of this process"),
    }
    return {"records": records, "metrics": metrics}


def measure_traced(workload, seed: int, seconds: float, workload_name: str,
                   names: List[str]) -> dict:
    """The traced run: per-layer metrics ``names`` and the tracing overhead.

    Set-up runs twice, once under the tracer, before the jobs and after
    every round.  Every job runs twice on the same entry, once traced on the
    traced set-up's state and once untraced on the other, in alternating
    order, until their summed latency reaches ``seconds``.  Both states see
    the same jobs in the same order, so the pairs do the same work and a
    drift of the machine's speed hits both modes alike; the overhead is the
    ratio of the summed wall times.
    """
    from modcheck import forest_eval

    counter = forest_eval.CASE_COUNTER
    cases = dict.fromkeys("ABC", 0)

    def counted(fn):
        before = dict(counter)
        with tracer:
            out = fn()
        for k in cases:
            cases[k] += counter[k] - before.get(k, 0)
        return out

    deck = workload.deck(seed)
    tracer = Tracer()
    traced_state = counted(lambda: workload.setup(deck))
    plain_state = workload.setup(deck)

    entries = workload.cycle(deck)
    plain: List[JobRecord] = []
    traced: List[JobRecord] = []
    busy = 0.0
    i = 0
    while busy < seconds or i % workload.round_size:
        entry = entries[i % len(entries)]
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                traced.append(counted(lambda: run_job(workload, traced_state, entry, i, tracer)))
            else:
                plain.append(run_job(workload, plain_state, entry, i))
        busy += traced[-1].seconds + plain[-1].seconds
        i += 1
        if i % workload.round_size == 0:  # fresh states per round, as in ``measure``
            traced_state = plain_state = None
            traced_state = counted(lambda: workload.setup(deck))
            plain_state = workload.setup(deck)

    values = layer_metrics(tracer.spans, cases, names)
    plain_s = sum(rec.seconds for rec in plain)
    traced_s = sum(rec.seconds for rec in traced)
    values["trace.throughput_untraced_jobs_per_s"] = len(plain) / plain_s
    values["trace.throughput_traced_jobs_per_s"] = len(traced) / traced_s
    values["trace.overhead_ratio"] = traced_s / plain_s

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))
    return {"records": plain + traced, "values": values, "spans_path": spans_path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed job time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    if args.trace:
        layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        report = measure_traced(workload, args.seed, args.seconds, args.workload,
                                [m["name"] for m in layers])
        report["metrics"] = {m["name"]: (report["values"][m["name"]], m["unit"], "") for m in layers}
    else:
        report = measure(workload, args.seed, args.seconds)

    records = report["records"]
    failed = [rec for rec in records if rec.failure is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {len(failed)} failed")
    for rec in failed[:20]:
        print(f"FAIL job {rec.index}: {rec.failure}", file=sys.stderr)
    for name, (value, unit, note) in report["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    # error_rate is 0 on correct code, so it is reported here and carried
    # by "failed"/"attempted" in the result rather than as a metric
    print(f"{'error_rate':40s} {len(failed) / len(records):14.6g} {'ratio':6s} "
          f"{len(failed)} of {len(records)} jobs")
    if args.trace:
        print(f"spans written to {os.path.relpath(report['spans_path'], ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
