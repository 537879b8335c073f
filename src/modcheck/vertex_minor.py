"""Local complementation and bounded-depth vertex minors.

Complementing a graph at a vertex toggles the adjacency between its
neighbors.  Complementing at every vertex of an independent set is
order-independent (each vertex of the set keeps its neighborhood throughout,
so a pair is toggled exactly when an odd number of set members see both
ends), which makes the set-complementation well defined.  For the same
reason it is one pass: every member's pairs are toggled on one edge set,
read from the members' neighborhoods in the input graph, and one graph is
built, in time linear in the graph plus the toggled pairs.  A depth-k vertex
minor applies k such rounds — each round's set independent in the graph the
previous rounds produced — followed by one final vertex deletion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .structures import Graph, GraphFormatError, _read_lines


class IndependenceError(ValueError):
    """A requested complementation set contains an edge."""

    def __init__(self, edge: Tuple[int, int], stage: Optional[int] = None):
        u, v = min(edge), max(edge)
        where = f" at stage {stage}" if stage is not None else ""
        super().__init__(
            f"complementation set is not independent{where}: edge ({u},{v})"
        )
        self.edge = (u, v)
        self.stage = stage


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle the adjacency between the neighbors of ``v``; all else kept."""
    if v not in g.adj:
        raise ValueError(f"unknown vertex {v}")
    neighbors = set(g.adj[v])
    edges = {(a, b) for a, b in g.edges()}
    for a in sorted(neighbors):
        for b in sorted(neighbors):
            if a < b:
                pair = (a, b)
                if pair in edges:
                    edges.remove(pair)
                else:
                    edges.add(pair)
    return Graph(g.vertices, sorted(edges))


def _check_independent(g: Graph, vertices: Sequence[int], stage: Optional[int]) -> None:
    """Reject unknown vertices and report the first edge (a, b), a < b, in
    sorted order; walks the members' neighborhoods, not the member pairs."""
    members = set(vertices)
    for a in vertices:
        if a not in g.adj:
            raise ValueError(f"unknown vertex {a}")
        for b in g.adj[a]:
            if b > a and b in members:
                raise IndependenceError((a, b), stage)


def local_complement_set(g: Graph, independent: Iterable[int], stage: Optional[int] = None) -> Graph:
    """Complement at every vertex of an independent set (order immaterial)."""
    vertices = sorted(set(independent))
    _check_independent(g, vertices, stage)
    if not vertices:
        return g
    edges = set(g.edges())
    for v in vertices:
        edges ^= set(itertools.combinations(g.adj[v], 2))
    return Graph(g.vertices, edges)


@dataclass(frozen=True)
class VmStep:
    """One round: an independent complementation set, plus the deletion set
    allowed only on the final round (earlier deletions fold into it)."""

    complement: Tuple[int, ...] = ()
    delete: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "complement", tuple(sorted(set(self.complement))))
        object.__setattr__(self, "delete", tuple(sorted(set(self.delete))))


def depth_k_vertex_minor(
    g: Graph, steps: Sequence[VmStep], k: Optional[int] = None
) -> Graph:
    """Apply k rounds of independent-set complementation, then one deletion.

    Each round's set must be independent in the graph the previous rounds
    produced; violations report the stage (1-based) and an offending edge.
    Only the final step may delete — a deletion wanted mid-sequence is
    expressed by adding those vertices to the final set instead.
    """
    steps = list(steps)
    if k is not None and len(steps) != k:
        raise ValueError(f"expected {k} steps, got {len(steps)}")
    for idx, step in enumerate(steps[:-1], start=1):
        if step.delete:
            raise ValueError(
                f"step {idx} requests a deletion; only the final step may "
                "delete (fold earlier deletions into its set)"
            )
    out = g
    for idx, step in enumerate(steps, start=1):
        out = local_complement_set(out, step.complement, stage=idx)
    if steps and steps[-1].delete:
        doomed = set(steps[-1].delete)
        unknown = doomed - set(out.vertices)
        if unknown:
            raise ValueError(f"unknown vertex {min(unknown)}")
        out = out.induced(set(out.vertices) - doomed)
    return out


# ---------------------------------------------------------------------------
# steps file format
# ---------------------------------------------------------------------------


def parse_steps(text: str) -> List[VmStep]:
    """Parse the steps format: ``I <v...>`` lines in round order, at most one
    ``S <v...>`` line attaching the final deletion; ``#`` comments allowed."""
    sets: List[Tuple[int, ...]] = []
    delete: Optional[Tuple[int, ...]] = None
    for ln, parts in _read_lines(text):
        try:
            vertices = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise GraphFormatError(ln, "vertex ids must be integers") from None
        if parts[0] == "I":
            if delete is not None:
                raise GraphFormatError(ln, "complementation set after the deletion line")
            sets.append(vertices)
        elif parts[0] == "S":
            if delete is not None:
                raise GraphFormatError(ln, "second deletion line")
            delete = vertices
        else:
            raise GraphFormatError(ln, f"expected an I or S line, got {' '.join(parts)!r}")
    if not sets:
        return [VmStep((), delete or ())]
    steps = [VmStep(s) for s in sets[:-1]]
    steps.append(VmStep(sets[-1], delete or ()))
    return steps


def format_steps(steps: Sequence[VmStep]) -> str:
    lines = []
    for idx, step in enumerate(steps, start=1):
        lines.append("I " + " ".join(map(str, step.complement)))
        if step.delete and idx != len(steps):
            raise ValueError("only the final step may delete")
    final = steps[-1].delete if steps else ()
    lines.append("S " + " ".join(map(str, final)))
    return "\n".join(line.rstrip() for line in lines) + "\n"
