"""Deterministic random generators shared across the test suite.

Everything takes an explicit random.Random so failures reproduce from seeds.
``trace_events`` counts work for the growth gates.
"""

from __future__ import annotations

import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from modcheck.logic import (
    And,
    BoolConst,
    EdgeAtom,
    EqAtom,
    Exists,
    Forall,
    Formula,
    MarkAtom,
    ModExists,
    Not,
    Or,
    Term,
)
from modcheck.coloring import EliminationForest
from modcheck.forest_codec import ColoredForest
from modcheck.structures import Graph, GuidedStructure, Signature


def trace_events(fn, *args, **kwargs) -> int:
    """Python call and line events that ``fn(*args, **kwargs)`` fires.

    A work count that does not depend on the speed of the machine; work
    inside a single C call (``x in some_list``, ``heapq.heappush``) fires no
    event, so growth gates built on it see Python-level loops only.
    """
    events = 0

    def on_call(frame, event, arg):
        nonlocal events
        events += 1
        return on_line

    def on_line(frame, event, arg):
        nonlocal events
        events += event == "line"
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return events


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(rows * cols), edges)


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def random_max_degree_graph(rng: random.Random, n: int, max_deg: int = 4) -> Graph:
    edges = set()
    deg = [0] * n
    attempts = 3 * n
    for _ in range(attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges or deg[u] >= max_deg or deg[v] >= max_deg:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
    return Graph(range(n), sorted(edges))


def random_forest_graph(rng: random.Random, n: int, height: Optional[int] = None) -> Graph:
    """Random rooted forest as an undirected graph, optional height bound."""
    parent: Dict[int, Optional[int]] = {}
    depth: Dict[int, int] = {}
    edges = []
    for v in range(n):
        if v == 0 or rng.random() < 0.15:
            parent[v] = None
            depth[v] = 1
            continue
        candidates = [u for u in range(v) if height is None or depth[u] < height]
        if not candidates:
            parent[v] = None
            depth[v] = 1
            continue
        u = rng.choice(candidates)
        parent[v] = u
        depth[v] = depth[u] + 1
        edges.append((u, v))
    return Graph(range(n), edges)


def random_planarish_graph(rng: random.Random, n: int) -> Graph:
    """Subgraph of a grid with random holes: planar, sparse."""
    rows = max(2, int(n**0.5))
    cols = max(2, (n + rows - 1) // rows)
    g = grid_graph(rows, cols)
    keep_edges = [e for e in g.edges() if rng.random() < 0.8]
    keep_vertices = [v for v in g.vertices if rng.random() < 0.92]
    kset = set(keep_vertices)
    edges = [(u, v) for u, v in keep_edges if u in kset and v in kset]
    # relabel dense
    relabel = {v: i for i, v in enumerate(sorted(kset))}
    return Graph(range(len(kset)), [(relabel[u], relabel[v]) for u, v in edges])


def low_treedepth_graph(rng: random.Random, n: int, height: int) -> Graph:
    """Forest of bounded height plus extra ancestor edges: treedepth <= height."""
    parent: Dict[int, Optional[int]] = {}
    depth: Dict[int, int] = {}
    ancestors: Dict[int, List[int]] = {}
    edges = set()
    for v in range(n):
        shallow = [u for u in range(v) if depth[u] < height]
        if v == 0 or not shallow or rng.random() < 0.2:
            parent[v] = None
            depth[v] = 1
            ancestors[v] = []
            continue
        u = rng.choice(shallow)
        parent[v] = u
        depth[v] = depth[u] + 1
        ancestors[v] = ancestors[u] + [u]
        edges.add((u, v))
    for v in range(n):
        for u in ancestors[v]:
            if u != parent[v] and rng.random() < 0.25:
                edges.add((min(u, v), max(u, v)))
    return Graph(range(n), sorted(edges))


# ---------------------------------------------------------------------------
# guided structures
# ---------------------------------------------------------------------------


def structure_from_graph(
    rng: random.Random,
    g: Graph,
    n_marks: int = 2,
    n_funcs: int = 0,
    mark_prob: float = 0.4,
    move_prob: float = 0.6,
) -> GuidedStructure:
    """Random marks, and random guided functions (stay put or follow an edge)."""
    rel_names = tuple(f"P{i}" for i in range(n_marks))
    fun_names = tuple(f"f{i}" for i in range(n_funcs))
    sig = Signature(rel_names, fun_names)
    marks = {name: [v for v in g.vertices if rng.random() < mark_prob] for name in rel_names}
    functions = {}
    for name in fun_names:
        fmap = {}
        for v in g.vertices:
            nbrs = g.adj[v]
            if nbrs and rng.random() < move_prob:
                fmap[v] = rng.choice(nbrs)
            else:
                fmap[v] = v
        functions[name] = fmap
    return GuidedStructure(sig, g.vertices, g.edges(), marks, functions)


def random_guided_structure(
    rng: random.Random,
    n: int,
    family: str = "maxdeg",
    n_marks: int = 2,
    n_funcs: int = 1,
) -> GuidedStructure:
    if family == "maxdeg":
        g = random_max_degree_graph(rng, n)
    elif family == "forest":
        g = random_forest_graph(rng, n)
    elif family == "planar":
        g = random_planarish_graph(rng, n)
    elif family == "lowtd":
        g = low_treedepth_graph(rng, n, height=4)
    else:
        raise ValueError(family)
    return structure_from_graph(rng, g, n_marks=n_marks, n_funcs=n_funcs)


# ---------------------------------------------------------------------------
# colored forests
# ---------------------------------------------------------------------------


def random_colored_forest(
    rng: random.Random,
    n: int,
    height: int = 4,
    n_marks: int = 2,
    mark_prob: float = 0.35,
) -> ColoredForest:
    """Random bounded-height forest with random marks (no codec marks)."""
    sig = Signature(tuple(f"P{i}" for i in range(n_marks)))
    parent: Dict[int, int] = {}
    level: Dict[int, int] = {}
    for v in range(n):
        shallow = [u for u in range(v) if level[u] < height]
        if v == 0 or not shallow or rng.random() < 0.18:
            parent[v] = v
            level[v] = 1
            continue
        u = rng.choice(shallow)
        parent[v] = u
        level[v] = level[u] + 1
    marks = {
        name: tuple(v for v in range(n) if rng.random() < mark_prob)
        for name in sig.unary_relations
    }
    return ColoredForest(EliminationForest(parent), sig, marks)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def random_term(rng: random.Random, sig: Signature, var_pool: Sequence[str], max_funcs: int = 2) -> Term:
    var = rng.choice(list(var_pool))
    depth = rng.randrange(max_funcs + 1) if sig.unary_functions else 0
    funcs = tuple(rng.randrange(1, len(sig.unary_functions) + 1) for _ in range(depth))
    return Term(var, funcs)


def random_atom(rng: random.Random, sig: Signature, var_pool: Sequence[str], max_funcs: int = 2) -> Formula:
    kinds = ["adj", "eq"]
    if sig.unary_relations:
        kinds += ["mark", "mark"]
    kind = rng.choice(kinds)
    if kind == "adj":
        return EdgeAtom(random_term(rng, sig, var_pool, max_funcs), random_term(rng, sig, var_pool, max_funcs))
    if kind == "eq":
        return EqAtom(random_term(rng, sig, var_pool, max_funcs), random_term(rng, sig, var_pool, max_funcs))
    return MarkAtom(rng.choice(sig.unary_relations), random_term(rng, sig, var_pool, max_funcs))


def random_quantifier_free(
    rng: random.Random,
    sig: Signature,
    var_pool: Sequence[str],
    depth: int = 2,
    max_funcs: int = 2,
) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng, sig, var_pool, max_funcs)
    op = rng.choice(["and", "or", "not"])
    if op == "not":
        return Not(random_quantifier_free(rng, sig, var_pool, depth - 1, max_funcs))
    left = random_quantifier_free(rng, sig, var_pool, depth - 1, max_funcs)
    right = random_quantifier_free(rng, sig, var_pool, depth - 1, max_funcs)
    return And(left, right) if op == "and" else Or(left, right)


def random_formula(
    rng: random.Random,
    sig: Signature,
    free: Sequence[str],
    q_budget: int = 2,
    depth: int = 2,
    moduli: Sequence[int] = (2, 3, 4, 5),
    kinds: Sequence[str] = ("E", "A", "Emod"),
    max_funcs: int = 1,
) -> Formula:
    """Random formula whose free variables are drawn from `free`."""
    pool = list(free)

    def rec(budget: int, pool: List[str], d: int) -> Formula:
        if budget > 0 and (not pool or rng.random() < 0.55):
            var = f"q{len(pool)}"
            kind = rng.choice(list(kinds))
            body = rec(budget - 1, pool + [var], d)
            if kind == "E":
                return Exists(var, body)
            if kind == "A":
                return Forall(var, body)
            b = rng.choice(list(moduli))
            return ModExists(rng.randrange(b), b, var, body)
        if not pool:
            return BoolConst(True)
        return random_quantifier_free(rng, sig, pool, depth=d, max_funcs=max_funcs)

    return rec(q_budget, pool, depth)
