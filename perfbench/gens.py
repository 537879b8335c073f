"""Seeded input generators for the benchmark.

Everything takes an explicit ``random.Random`` and returns text: graph files,
formula strings, matrix files, matrix expressions and vertex-minor step
files.  The program under test only ever sees these strings, through its own
parsers, so the same seed always hands it the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def planarish_edges(rng: random.Random, n: int) -> List[Edge]:
    """A grid on exactly n vertices with random holes and one diagonal per
    kept cell: planar, average degree about 3.5."""
    cols = max(2, int(round(n ** 0.5)))
    edges: Set[Edge] = set()
    for v in range(n):
        c = v % cols
        right, down = v + 1, v + cols
        if c + 1 < cols and right < n and rng.random() < 0.85:
            edges.add((v, right))
        if down < n and rng.random() < 0.85:
            edges.add((v, down))
        if c + 1 < cols and down + 1 < n and rng.random() < 0.3:
            edges.add((v, down + 1))
    return sorted(edges)


def maxdeg_edges(rng: random.Random, n: int, max_deg: int = 4) -> List[Edge]:
    """Random graph with every degree at most ``max_deg``."""
    edges: Set[Edge] = set()
    deg = [0] * n
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in edges or deg[u] >= max_deg or deg[v] >= max_deg:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
    return sorted(edges)


def adjacency(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def graph_text(
    rng: random.Random,
    n: int,
    edges: Sequence[Edge],
    n_marks: int = 2,
    n_funcs: int = 0,
    mark_prob: float = 0.4,
    move_prob: float = 0.6,
) -> str:
    """Graph file text: marks ``P0..``, guided functions ``f0..`` that fix a
    vertex or follow one of its edges."""
    adj = adjacency(n, edges)
    lines = [f"n {n}"]
    lines += [f"e {u} {v}" for u, v in edges]
    for v in range(n):
        # vertex 0 carries every mark, so each mark is declared
        marks = [f"P{i}" for i in range(n_marks) if v == 0 or rng.random() < mark_prob]
        lines.append(" ".join(["v", str(v)] + marks))
    for i in range(n_funcs):
        for v in range(n):
            image = rng.choice(adj[v]) if adj[v] and rng.random() < move_prob else v
            lines.append(f"f f{i} {v} {image}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def sparse_query(rng: random.Random, nested: bool) -> str:
    """One free variable ``x``; adjacency and marks only, moduli 2..5.  A
    nested query has a second stage whose inner quantifier is materialized
    as a mark."""
    b = rng.randint(2, 5)
    a = rng.randrange(b)
    if not nested:
        body = rng.choice(
            [
                "adj(x, y) & P0(y)",
                "adj(x, y) & !P1(y)",
                "adj(x, y) | (P0(y) & P1(x))",
                "(adj(x, y) & P0(x)) | (P1(y) & x = y)",
            ]
        )
        return f"Emod[{a},{b}] y . ({body})"
    c = rng.randint(2, 3)
    d = rng.randrange(c)
    inner = rng.choice(["adj(y, z) & P1(z)", "adj(y, z) & !P0(z)"])
    return f"Emod[{a},{b}] y . (adj(x, y) & Emod[{d},{c}] z . ({inner}))"


GUIDED_BODIES = ("f0(y) = x", "adj(f0(x), y) & P1(y)", "adj(x, y) & P0(f1(y))")


def guided_query(rng: random.Random, body: str) -> str:
    """One free variable ``x`` over a body that reads guided functions."""
    b = rng.randint(2, 3)
    return f"Emod[{rng.randrange(b)},{b}] y . ({body})"


def pair_query(rng: random.Random, mod3: bool) -> str:
    """Two free variables ``x1, x2``: common-neighbour counts mod 2, or mod 3
    among unmarked neighbours."""
    if not mod3:
        return "Emod[1,2] y . (adj(x1, y) & adj(x2, y))"
    return f"Emod[{rng.randrange(3)},3] y . (adj(x1, y) & adj(x2, y) & !P0(y))"


def probe_stream(
    rng: random.Random, n: int, edges: Sequence[Edge], count: int,
    exclude: Sequence[Tuple[int, int]] = (),
) -> List[Tuple[int, int]]:
    """Distinct argument pairs, none of them in ``exclude``: alternately an
    edge in either direction (so common neighbours exist) and a uniformly
    random pair."""
    seen = set(exclude)
    out: List[Tuple[int, int]] = []
    while len(out) < count:
        if len(out) % 2 == 0 and edges:
            u, v = rng.choice(edges)
            pair = (u, v) if rng.random() < 0.5 else (v, u)
        else:
            pair = (rng.randrange(n), rng.randrange(n))
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def sparse_matrix_text(rng: random.Random, p: int, n: int, per_row: int = 3) -> str:
    """About ``per_row`` random nonzero entries per row, over F_p."""
    entries: Dict[Edge, int] = {}
    for i in range(n):
        for _ in range(per_row):
            entries[(i, rng.randrange(n))] = rng.randrange(1, p)
    return matrix_text(p, n, entries)


def lowrank_matrix_text(rng: random.Random, p: int, n: int, classes: int = 3) -> str:
    """A matrix of small set-rank: every row copies one of ``classes`` random
    sparse row patterns (or is zero)."""
    patterns = []
    for _ in range(classes):
        cols = rng.sample(range(n), rng.randint(1, max(1, n // 30)))
        patterns.append({j: rng.randrange(1, p) for j in cols})
    entries: Dict[Edge, int] = {}
    for i in range(n):
        k = rng.randrange(classes + 1)
        if k < classes:
            for j, val in patterns[k].items():
                entries[(i, j)] = val
    return matrix_text(p, n, entries)


def matrix_text(p: int, n: int, entries: Dict[Edge, int]) -> str:
    lines = [f"p {p}", f"n {n}"]
    lines += [f"{i} {j} {v}" for (i, j), v in sorted(entries.items())]
    return "\n".join(lines) + "\n"


# Expressions over sparse inputs A, B and a set-rank constant C.  "A * J"
# stays a low-rank value until it is materialized.
MATRIX_EXPRS = (
    "A * B + t(A)",
    "A o B + 2 * A",
    "A * J",
    "A * J + t(B)",
    "C * A + B",
    "t(C) o A + A * C",
)


# ---------------------------------------------------------------------------
# vertex minors
# ---------------------------------------------------------------------------


def vm_steps_text(
    rng: random.Random, n: int, edges: Sequence[Edge], depth: int, set_size: int
) -> str:
    """``depth`` rounds of independent complementation sets, each independent
    in the graph the earlier rounds produce, then a small deletion set."""
    adj = [set(ns) for ns in adjacency(n, edges)]
    lines = []
    for _ in range(depth):
        chosen: List[int] = []
        for v in rng.sample(range(n), n):
            if all(u not in adj[v] for u in chosen):
                chosen.append(v)
            if len(chosen) == set_size:
                break
        for v in chosen:
            ns = sorted(adj[v])
            for i, a in enumerate(ns):
                for b in ns[i + 1:]:
                    if b in adj[a]:
                        adj[a].discard(b)
                        adj[b].discard(a)
                    else:
                        adj[a].add(b)
                        adj[b].add(a)
        lines.append("I " + " ".join(map(str, sorted(chosen))))
    doomed = rng.sample(range(n), max(1, n // 20))
    lines.append("S " + " ".join(map(str, sorted(doomed))))
    return "\n".join(lines) + "\n"
