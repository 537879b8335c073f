"""The four benchmark workloads.

Each workload turns a seed into a *deck* of job inputs (text only, see
``gens``), and then:

- ``setup(deck)`` parses every input of the deck (and, for ``pair-probe``,
  prepares the query structures it returns as the state of a round); the
  benchmark times it as ``setup_s`` and sets up afresh for every round;
- ``prepare(state, entry)`` parses one job's inputs afresh, outside the
  timed region, so no job reuses another job's objects;
- ``run(state, inputs)`` is the timed job;
- ``check(state, inputs, result)`` compares the result with a reference
  computed outside the timed region and returns True when it agrees.

Program functions are always looked up through their module at call time
(``structures.parse_graph``, not a local alias), so the tracer's rebinding
sees every call.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any, Dict, List, Tuple

from modcheck import elimination, logic, matrix, structures, vertex_minor

import gens

PRIMES = (2, 3, 5, 257)


def entry_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent generator per deck entry: entry i does not depend on how
    many entries were drawn before it."""
    return random.Random(f"{workload}:{seed}:{index}")


class Workload:
    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    # jobs per round: one of every (stratum, size) combination; the timed
    # loop ends on a round boundary, so every run holds the same mix whatever
    # its length, and the seed only varies the random parts of the inputs
    round_size = 1

    def deck(self, seed: int) -> List[dict]:
        raise NotImplementedError

    def cycle(self, deck: List[dict]) -> List[Any]:
        """Job entries in the order the timed loop cycles through them."""
        return deck

    def setup(self, deck: List[dict]) -> Any:
        """Parse every input of the deck.  Jobs parse their own copies, so
        nothing is kept: live set-up objects would only slow the garbage
        collector during the timed jobs."""
        for entry in deck:
            self.prepare(None, entry)

    def prepare(self, state: Any, entry: dict) -> Any:
        raise NotImplementedError

    def run(self, state: Any, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, inputs: Any, result: Any) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# count workloads
# ---------------------------------------------------------------------------


class CountWorkload(Workload):
    """``count_definable`` on a fresh structure per job, checked against
    ``count_naive``.  Strata and sizes cycle together; their counts are
    coprime, so a round of strata × sizes jobs holds every pair once."""

    strata: tuple = ()
    sizes: tuple = ()
    tiny_sizes: tuple = ()
    # more entries than a run reaches, so every job of a run has inputs of
    # its own and a run averages over as many inputs as it can
    rounds_per_deck = 16

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.n_values = self.tiny_sizes if tiny else self.sizes
        if math.gcd(len(self.strata), len(self.n_values)) != 1:
            raise ValueError("stratum and size counts must be coprime")
        self.round_size = len(self.strata) * len(self.n_values)

    def deck(self, seed):
        out = []
        for i in range(self.round_size * (1 if self.tiny else self.rounds_per_deck)):
            rng = entry_rng(self.name, seed, i)
            n = self.n_values[i % len(self.n_values)]
            out.append(self.entry(rng, self.strata[i % len(self.strata)], n))
        return out

    def entry(self, rng: random.Random, stratum, n: int) -> dict:
        raise NotImplementedError

    def prepare(self, state, entry):
        m = structures.parse_graph(entry["graph"])
        return m, logic.parse_formula(entry["query"], m.signature)

    def run(self, state, inputs):
        m, phi = inputs
        return elimination.count_definable(m, phi)

    def check(self, state, inputs, result):
        m, phi = inputs
        return result == logic.count_naive(m, phi)


class CountSparse(CountWorkload):
    name = "count-sparse"
    # (planar-ish graph, nested query)
    strata = ((True, False), (False, False), (True, True), (False, True))
    sizes = (16, 20, 24, 28, 32)
    tiny_sizes = (6, 7, 8, 9, 10)

    def entry(self, rng, stratum, n):
        planar, nested = stratum
        edges = gens.planarish_edges(rng, n) if planar else gens.maxdeg_edges(rng, n)
        return {
            "graph": gens.graph_text(rng, n, edges, n_marks=2, n_funcs=1),
            "query": gens.sparse_query(rng, nested),
        }


class GuidedCount(CountWorkload):
    name = "guided-count"
    # (planar-ish graph, body)
    strata = tuple((planar, body) for body in gens.GUIDED_BODIES for planar in (True, False))
    sizes = (8, 9, 10, 11, 12)
    tiny_sizes = (4, 5, 6, 7, 8)
    rounds_per_deck = 12

    def entry(self, rng, stratum, n):
        planar, body = stratum
        edges = gens.planarish_edges(rng, n) if planar else gens.maxdeg_edges(rng, n)
        return {
            "graph": gens.graph_text(rng, n, edges, n_marks=2, n_funcs=2),
            "query": gens.guided_query(rng, body),
        }


# ---------------------------------------------------------------------------
# pair-probe
# ---------------------------------------------------------------------------


class PairProbe(Workload):
    """Prepare once, then probe many: ``eliminate_all`` on a two-variable
    body per structure and an untimed warm-up over a few probes, then
    ``PipelineResult.eval`` on a stream of fresh argument pairs (half edges,
    half random pairs), none of them seen in the warm-up.  A probe whose
    argument types are new builds its pieces while the clock runs.

    Every new probe adds its pieces to the structure's cache (about 0.5 MB).
    A round is one pass over every structure's stream, and the benchmark
    sets up afresh after every round, so memory does not grow with the
    number of probes a run reaches and every pass does the same work."""

    name = "pair-probe"

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        # many small structures: the probe cost depends on each structure's
        # coloring, so a run averages over many of them
        self.n_structures = 2 if tiny else 24
        self.warmup = 2
        self.probes = 4 if tiny else 8
        self.round_size = self.n_structures * self.probes
        # naive answers per (structure, pair), kept across set-ups
        self._reference: Dict[Tuple[int, Tuple[int, int]], bool] = {}

    def deck(self, seed):
        n = 16 if self.tiny else 48
        out = []
        for k in range(self.n_structures):
            rng = entry_rng(self.name, seed, k)
            edges = gens.maxdeg_edges(rng, n)
            warmup = gens.probe_stream(rng, n, edges, self.warmup)
            out.append({
                "graph": gens.graph_text(rng, n, edges, n_marks=2, n_funcs=1),
                "query": gens.pair_query(rng, mod3=k % 2 == 1),
                "warmup": warmup,
                "probes": gens.probe_stream(rng, n, edges, self.probes, exclude=warmup),
            })
        return out

    def setup(self, deck):
        state = []
        for entry in deck:
            m = structures.parse_graph(entry["graph"])
            phi = logic.parse_formula(entry["query"], m.signature)
            run = elimination.eliminate_all(m, phi)
            for a, b in entry["warmup"]:
                run.eval({"x1": a, "x2": b})
            state.append({"m": m, "phi": phi, "run": run})
        return state

    def prepare(self, state, entry):
        k, j, deck_entry = entry
        return k, deck_entry["probes"][j]

    def run(self, state, inputs):
        k, (a, b) = inputs
        return state[k]["run"].eval({"x1": a, "x2": b})

    def check(self, state, inputs, result):
        k, pair = inputs
        if (k, pair) not in self._reference:
            self._reference[k, pair] = logic.eval_naive(
                state[k]["m"], state[k]["phi"], {"x1": pair[0], "x2": pair[1]})
        return result == self._reference[k, pair]

    def cycle(self, deck) -> List[Tuple[int, int, dict]]:
        """Probe order: alternate structures, walk each stream in order."""
        return [(k, j, entry) for j in range(self.probes) for k, entry in enumerate(deck)]


# ---------------------------------------------------------------------------
# toolkit-mix
# ---------------------------------------------------------------------------


def substitute(node, name: str, value):
    """Replace every input reference ``name`` in an expression tree."""
    if isinstance(node, matrix.InputRef):
        return value if node.name == name else node
    changes = {
        f.name: substitute(getattr(node, f.name), name, value)
        for f in dataclasses.fields(node)
        if isinstance(getattr(node, f.name), matrix.MatrixExpr)
    }
    return dataclasses.replace(node, **changes) if changes else node


def reference_entry(node, inputs: Dict[str, Any], p: int, n: int, i: int, j: int) -> int:
    """Entry (i, j) of an expression as a plain sum of products over F_p."""
    def rec(node, i, j):
        if isinstance(node, matrix.InputRef):
            return inputs[node.name].entries.get((i, j), 0)
        if isinstance(node, matrix.Ident):
            return int(i == j)
        if isinstance(node, matrix.AllOnes):
            return 1
        if isinstance(node, matrix.Transpose):
            return rec(node.sub, j, i)
        if isinstance(node, matrix.Add):
            return rec(node.left, i, j) + rec(node.right, i, j)
        if isinstance(node, matrix.Hadamard):
            return rec(node.left, i, j) * rec(node.right, i, j)
        if isinstance(node, matrix.Mul):
            if isinstance(node.left, matrix.Lit):
                return node.left.value * rec(node.right, i, j)
            if isinstance(node.right, matrix.Lit):
                return rec(node.left, i, j) * node.right.value
            return sum(rec(node.left, i, k) * rec(node.right, k, j) for k in range(n))
        raise TypeError(f"no reference for {type(node).__name__}")

    return rec(node, i, j) % p


class ToolkitMix(Workload):
    """F_p matrix expressions (set-rank constants built per job, entry
    queries, materialization) and depth-k vertex minors."""

    name = "toolkit-mix"
    kinds = tuple(("expr", e) for e in gens.MATRIX_EXPRS) + (("vm", 2), ("vm", 4))
    entry_queries = 16
    # the slowest tenth of the jobs is a handful of entries per round, so
    # the deck spans several rounds to vary them
    rounds_per_deck = 3

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self._reference: Dict[int, dict] = {}
        self.n_values = (8, 12, 16) if tiny else (100, 200, 300)
        # kind = i mod 8, size = i mod 3, prime = (i div 24) mod 4: every
        # (kind, size, prime) triple once per round
        self.round_size = len(self.kinds) * len(self.n_values) * len(PRIMES)

    def deck(self, seed):
        out = []
        for i in range(self.round_size * (1 if self.tiny else self.rounds_per_deck)):
            rng = entry_rng(self.name, seed, i)
            kind, arg = self.kinds[i % len(self.kinds)]
            n = self.n_values[i % len(self.n_values)]
            if kind == "vm":
                edges = (gens.planarish_edges if i % 2 else gens.maxdeg_edges)(rng, n)
                out.append({
                    "index": i,
                    "kind": kind,
                    "graph": gens.graph_text(rng, n, edges, n_marks=0),
                    "steps": gens.vm_steps_text(rng, n, edges, depth=arg, set_size=8),
                })
                continue
            p = PRIMES[(i // (len(self.kinds) * len(self.n_values))) % len(PRIMES)]
            texts = {
                name: gens.sparse_matrix_text(rng, p, n) for name in "AB" if name in arg
            }
            if "C" in arg:
                texts["C"] = gens.lowrank_matrix_text(rng, p, n)
            out.append({
                "index": i,
                "kind": kind,
                "expr": arg,
                "matrices": texts,
                "positions": [(rng.randrange(n), rng.randrange(n)) for _ in range(self.entry_queries)],
            })
        return out

    def prepare(self, state, entry):
        if entry["kind"] == "vm":
            m = structures.parse_graph(entry["graph"])
            return entry, structures.Graph(m.domain, m.edges), vertex_minor.parse_steps(entry["steps"])
        mats = {name: matrix.parse_matrix(text) for name, text in entry["matrices"].items()}
        return entry, mats, None

    def run(self, state, inputs):
        entry, data, steps = inputs
        if entry["kind"] == "vm":
            return vertex_minor.depth_k_vertex_minor(data, steps)
        expr = matrix.parse_expr(entry["expr"])
        if "C" in data:
            c = data["C"]
            expr = substitute(expr, "C", matrix.SetRankConst(matrix.build_marking(c, matrix.srank(c))))
        handle = matrix.eval_expr(expr, {k: v for k, v in data.items() if k != "C"})
        dense = handle.materialize()
        return dense, [handle.entry(i, j) for i, j in entry["positions"]]

    def check(self, state, inputs, result):
        entry, data, steps = inputs
        # a deck entry recurs every round; its reference values are kept
        known = self._reference.setdefault(entry["index"], {})
        if entry["kind"] == "vm":
            if "graph" not in known:
                known["graph"] = _edge_set(_sequential_minor(data, steps))
            return _edge_set(result) == known["graph"]
        dense, queried = result
        some = next(iter(data.values()))
        p, n = some.p, some.n
        if dense.p != p or dense.n != n:
            return False
        tree = known.setdefault("tree", matrix.parse_expr(entry["expr"]))
        positions = list(entry["positions"])
        # plus up to 8 nonzero positions of the result
        nonzero = sorted(dense.entries)
        pick = random.Random(entry["index"]).sample(nonzero, min(8, len(nonzero)))
        for pos in positions + pick:
            if pos not in known:
                known[pos] = reference_entry(tree, data, p, n, *pos)
            if dense.entry(*pos) != known[pos]:
                return False
        return queried == [known[pos] for pos in positions]


def _sequential_minor(g, steps):
    """Depth-k minor by single-vertex local complementation, one at a time."""
    out = g
    for step in steps:
        for v in step.complement:
            out = vertex_minor.local_complement(out, v)
    doomed = set(steps[-1].delete) if steps else set()
    return out.induced(set(out.vertices) - doomed)


def _edge_set(g):
    return tuple(sorted(g.vertices)), tuple(sorted(g.edges()))


WORKLOADS = {w.name: w for w in (CountSparse, GuidedCount, PairProbe, ToolkitMix)}
