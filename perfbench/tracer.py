"""Span tracing of the program's layers from outside the program.

``Tracer.install`` rebinds the public functions and methods listed in
``FUNCTIONS`` and ``METHODS`` to wrappers that record one span per call:
name, start, end, parent span, job id and an optional note taken from the
call's result.  A function is rebound in every loaded ``modcheck`` module
that holds it, because callers look names up in their own module's globals.
No source of the program changes; ``uninstall``, or leaving a
``with tracer:`` block, restores every binding.

Spans stay in memory; ``write`` dumps them as JSON lines when the run ends,
and ``layer_metrics`` turns them into per-layer self times, counts and
ratios.  A span's self time is its duration minus the durations of its
direct children (the workloads are single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

JOB = "bench.job"
REFERENCE = "bench.reference"

# (module, function, span name, note taken from (args, result))
FUNCTIONS = (
    ("structures", "parse_graph", "structures.parse_graph", None),
    ("structures", "gaifman", "structures.gaifman", None),
    ("structures", "restrict", "structures.restrict", None),
    ("structures", "expand_monadic", "structures.expand_monadic", None),
    ("logic", "parse_formula", "logic.parse_formula", None),
    ("logic", "eval_naive", "logic.eval_naive", None),
    ("coloring", "compute_p_centered", "coloring.compute_p_centered",
     lambda args, out: out.n_colors()),
    ("coloring", "validate_p_centered", "coloring.validate_p_centered",
     lambda args, out: out is None),
    ("coloring", "forest_from_centered", "coloring.forest_from_centered",
     lambda args, out: out.height),
    ("forest_codec", "encode_IY", "forest_codec.encode_IY", None),
    ("forest_codec", "pullback_IS", "forest_codec.pullback_IS", None),
    ("forest_codec", "forest_structure", "forest_codec.forest_structure", None),
    ("elimination", "eliminate_one", "elimination.eliminate_one",
     lambda args, out: (out.p, len(out.types))),
    ("matrix", "parse_expr", "matrix.parse_expr", None),
    ("matrix", "eval_expr", "matrix.eval_expr", None),
    ("matrix", "build_marking", "matrix.build_marking", None),
    ("matrix", "srank", "matrix.srank", None),
    ("vertex_minor", "depth_k_vertex_minor", "vertex_minor.depth_k", None),
    ("vertex_minor", "local_complement_set", "vertex_minor.complement_set", None),
)

# (module, class, method, span name, note)
METHODS = (
    ("forest_eval", "ModForestCounter", "__init__", "forest_eval.counter_build", None),
    ("forest_eval", "ModForestCounter", "residue", "forest_eval.census", None),
    ("elimination", "EliminationResult", "piece", "elimination.piece", None),
    ("elimination", "EliminationResult", "residue_vector", "elimination.residue_vector", None),
    ("matrix", "MatrixHandle", "materialize", "matrix.materialize",
     lambda args, out: out.nnz),
    ("matrix", "MatrixHandle", "entry", "matrix.entry", None),
)

# Span record fields.
NAME, START, END, PARENT, JOB_ID, NOTE = range(6)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._job: Optional[int] = None
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return traced

    def run_span(self, name: str, job: Optional[int], fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a benchmark-level span (a job or a reference
        check); spans opened below it carry ``job``."""
        self._job = job
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)
            self._job = None

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "modcheck" or name.startswith("modcheck.")
        ]
        for modname, attr, span, note in FUNCTIONS:
            original = getattr(importlib.import_module(f"modcheck.{modname}"), attr)
            traced = self.wrap(span, original, note)
            for mod in loaded:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for modname, clsname, attr, span, note in METHODS:
            cls = getattr(importlib.import_module(f"modcheck.{modname}"), clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for idx, (name, start, end, parent, job, note) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": idx, "name": name, "start": start, "end": end,
                     "parent": parent, "job": job, "note": note},
                    separators=(",", ":"),
                ) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# spans whose self time feeds the metric ``<span>_s``
SELF_TIME = frozenset({
    "structures.parse_graph",
    "structures.gaifman",
    "structures.restrict",
    "structures.expand_monadic",
    "logic.parse_formula",
    "logic.eval_naive",
    "coloring.compute_p_centered",
    "coloring.validate_p_centered",
    "coloring.forest_from_centered",
    "forest_codec.encode_IY",
    "forest_codec.pullback_IS",
    "forest_codec.forest_structure",
    "forest_eval.counter_build",
    "forest_eval.census",
    "elimination.eliminate_one",
    "elimination.residue_vector",
    "matrix.parse_expr",
    "matrix.eval_expr",
    "matrix.materialize",
    "matrix.entry",
    "matrix.build_marking",
    "matrix.srank",
    "vertex_minor.depth_k",
    "vertex_minor.complement_set",
})

_CALLS = {
    "structures.restrict": "structures.restrict_calls",
    "logic.eval_naive": "logic.eval_naive_calls",
    "coloring.compute_p_centered": "coloring.compute_calls",
    "coloring.validate_p_centered": "coloring.validate_calls",
    "forest_codec.encode_IY": "forest_codec.encode_calls",
    "forest_eval.census": "forest_eval.census_calls",
    "elimination.eliminate_one": "elimination.stages",
    "elimination.piece": "elimination.piece_requests",
    "elimination.residue_vector": "elimination.residue_vector_calls",
    "vertex_minor.complement_set": "vertex_minor.complement_set_calls",
}


def layer_metrics(spans: List[list], cases: Dict[str, int], names: List[str]) -> Dict[str, float]:
    """Per-layer metrics ``names`` (the ``per_layer`` list of
    ``BENCHMARK.json``) from recorded spans plus the census case counts
    (``cases``: the change of ``forest_eval.CASE_COUNTER`` over the traced
    jobs).  A metric computed here but missing from ``names`` raises
    ``KeyError``.

    Spans inside a reference check count only towards
    ``logic.naive_reference_s``; every other metric describes the program's
    own work.
    """
    out: Dict[str, float] = dict.fromkeys(names, 0)
    n = len(spans)
    child_time = [0.0] * n
    children: Dict[int, List[int]] = defaultdict(list)
    in_reference = [False] * n
    under_census = [False] * n
    for idx, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0:
            child_time[parent] += rec[END] - rec[START]
            children[parent].append(idx)
            in_reference[idx] = in_reference[parent]
            under_census[idx] = under_census[parent] or spans[parent][NAME] == "forest_eval.census"
        if rec[NAME] == REFERENCE:
            in_reference[idx] = True

    colors: List[int] = []
    types: List[int] = []
    first_try = 0
    for idx, rec in enumerate(spans):
        name, start, end = rec[NAME], rec[START], rec[END]
        if name == REFERENCE:
            out["logic.naive_reference_s"] += end - start
            continue
        if in_reference[idx]:
            continue
        self_s = (end - start) - child_time[idx]
        if name in SELF_TIME:
            out[name + "_s"] += self_s
        if name in _CALLS:
            out[_CALLS[name]] += 1
        if name == JOB:
            out["trace.jobs"] += 1
            out["trace.job_s"] += end - start
            out["trace.unattributed_s"] += self_s
        elif name == "logic.eval_naive" and under_census[idx]:
            out["forest_eval.accept_evals"] += 1
        elif name == "coloring.compute_p_centered":
            colors.append(rec[NOTE])
            validations = [c for c in children[idx] if spans[c][NAME] == "coloring.validate_p_centered"]
            if validations and spans[validations[0]][NOTE]:
                first_try += 1
        elif name == "coloring.forest_from_centered":
            out["coloring.forest_height_max"] = max(out["coloring.forest_height_max"], rec[NOTE])
        elif name == "elimination.eliminate_one":
            p, n_types = rec[NOTE]
            out["elimination.p_max"] = max(out["elimination.p_max"], p)
            types.append(n_types)
        elif name == "elimination.piece":
            if any(spans[c][NAME] == "forest_eval.counter_build" for c in children[idx]):
                out["elimination.pieces_built"] += 1
                out["elimination.piece_build_s"] += self_s
                out["elimination.piece_build_incl_s"] += end - start
        elif name == "matrix.materialize":
            out["matrix.nnz_out"] += rec[NOTE]

    out["trace.spans"] = n
    for case in "ABC":
        out[f"forest_eval.case_{case}"] = cases.get(case, 0)
    census_cases = sum(cases.get(case, 0) for case in "ABC")
    out["forest_eval.accept_hit_ratio"] = _ratio_complement(out["forest_eval.accept_evals"], census_cases)
    out["elimination.piece_hit_ratio"] = _ratio_complement(
        out["elimination.pieces_built"], out["elimination.piece_requests"]
    )
    if colors:
        out["coloring.colors_per_stage"] = sum(colors) / len(colors)
        out["coloring.first_try_ratio"] = first_try / len(colors)
    if types:
        out["elimination.types_per_stage"] = sum(types) / len(types)
    return out


def _ratio_complement(part: float, base: float) -> float:
    """1 - part/base, or 0 when the base is empty (nothing attempted)."""
    return 1.0 - part / base if base else 0.0
