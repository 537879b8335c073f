"""Guided pointer structures: colored graphs with unary functions that follow edges.

A guided structure is a finite simple graph with named unary relations (marks)
and named unary functions, where every function either fixes a vertex or moves
it to a neighbor.  This module owns the structure type, its vocabulary, the
Gaifman graph, restriction with function clamping, monadic expansion, and the
plain-text graph file format, whose line reader the other text formats share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class GraphFormatError(ValueError):
    """Raised on malformed input files; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _read_lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    """(1-based line number, tokens) of every non-blank line, the ``#``
    comment stripped: the line rules all the text formats share."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if tokens:
            yield lineno, tokens


def _read_ints(tokens: Sequence[str], lineno: int, error=GraphFormatError) -> List[int]:
    """The integer fields of a line; a bad one raises ``error`` naming it."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise error(lineno, f"expected integer, got {tok!r}") from None
    return out


@dataclass(frozen=True)
class Signature:
    """Vocabulary: one binary adjacency plus named unary relations and functions.

    Function names are indexed 1-based; composition tuples in formulas refer to
    these indices.
    """

    unary_relations: Tuple[str, ...] = ()
    unary_functions: Tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.unary_relations) + list(self.unary_functions)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in signature")
        for name in names:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"bad symbol name {name!r}")

    def function_name(self, index: int) -> str:
        """1-based index -> function name."""
        if not 1 <= index <= len(self.unary_functions):
            raise ValueError(f"function index {index} out of range")
        return self.unary_functions[index - 1]

    def function_index(self, name: str) -> int:
        try:
            return self.unary_functions.index(name) + 1
        except ValueError:
            raise ValueError(f"unknown function {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self.unary_relations

    def has_function(self, name: str) -> bool:
        return name in self.unary_functions

    def with_relations(self, extra: Sequence[str]) -> "Signature":
        clash = [r for r in extra if r in self.unary_relations or r in self.unary_functions]
        if clash:
            raise ValueError(f"mark names already in signature: {clash}")
        return Signature(self.unary_relations + tuple(extra), self.unary_functions)


class Graph:
    """Plain undirected graph over integer vertices (not necessarily dense)."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]] = ()):
        self.vertices: Tuple[int, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        adj: Dict[int, set] = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) leaves vertex set")
            adj[u].add(v)
            adj[v].add(u)
        self.adj: Dict[int, Tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in self.vertices}

    def __len__(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def induced(self, subset: Iterable[int]) -> "Graph":
        sub = set(subset)
        if not sub <= set(self.vertices):
            raise ValueError("induced subset leaves vertex set")
        return Graph(sub, [(u, v) for u, v in self.edges() if u in sub and v in sub])

    def components(self) -> List[Tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by smallest member."""
        seen = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def degeneracy_order(adj: Mapping[int, Iterable[int]]) -> Tuple[List[int], int]:
    """Smallest-last peel of a symmetric adjacency without self-loops.

    Repeatedly removes a live vertex of least live degree, the smaller id on
    ties.  Returns the removal order and the degeneracy (the largest degree
    at removal).  A heap with lazy deletion holds one current (degree, id)
    entry per live vertex, so the peel takes O((n + m) log n).
    """
    deg = {v: len(ns) for v, ns in adj.items()}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    removed = set()
    order: List[int] = []
    out = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue  # stale: v is gone or its degree fell since the push
        removed.add(v)
        order.append(v)
        out = max(out, d)
        for w in adj[v]:
            if w not in removed:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order, out


class GuidedStructure:
    """Colored graph with total unary functions, each fixing or following an edge.

    domain      sorted tuple of vertex ids (dense 0..n-1 for freshly built
                structures; restrictions keep the original ids)
    edges       normalized (u, v) pairs with u < v
    marks       mark name -> sorted tuple of vertices
    functions   function name -> {vertex: image}, total on the domain
    """

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[int],
        edges: Iterable[Tuple[int, int]] = (),
        marks: Optional[Dict[str, Iterable[int]]] = None,
        functions: Optional[Dict[str, Dict[int, int]]] = None,
    ):
        domain = tuple(sorted(set(domain)))
        dset = set(domain)

        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in dset or v not in dset:
                raise ValueError(f"edge ({u},{v}) leaves domain")
            norm.add((min(u, v), max(u, v)))

        marks = marks or {}
        norm_marks: Dict[str, Tuple[int, ...]] = {}
        for name in signature.unary_relations:
            vs = tuple(sorted(set(marks.get(name, ()))))
            if not set(vs) <= dset:
                raise ValueError(f"mark {name!r} leaves domain")
            norm_marks[name] = vs
        unknown = set(marks) - set(signature.unary_relations)
        if unknown:
            raise ValueError(f"marks not in signature: {sorted(unknown)}")

        functions = functions or {}
        norm_functions: Dict[str, Dict[int, int]] = {}
        for name in signature.unary_functions:
            fmap = dict(functions.get(name, {}))
            for v in domain:
                fmap.setdefault(v, v)
            if set(fmap) != dset:
                raise ValueError(f"function {name!r} not total on domain")
            if not set(fmap.values()) <= dset:
                raise ValueError(f"function {name!r} leaves domain")
            norm_functions[name] = fmap
        unknown = set(functions) - set(signature.unary_functions)
        if unknown:
            raise ValueError(f"functions not in signature: {sorted(unknown)}")

        self._fill(signature, domain, tuple(sorted(norm)), norm_marks, norm_functions)

    def _fill(self, signature, domain, edges, marks, functions, adj=None) -> None:
        if adj is None:
            sets: Dict[int, set] = {v: set() for v in domain}
            for u, v in edges:
                sets[u].add(v)
                sets[v].add(u)
            adj = {v: frozenset(ns) for v, ns in sets.items()}
        self.signature = signature
        self.domain: Tuple[int, ...] = domain
        self.edges: Tuple[Tuple[int, int], ...] = edges
        self._adj: Dict[int, frozenset] = adj
        self.marks: Dict[str, Tuple[int, ...]] = marks
        self.functions: Dict[str, Dict[int, int]] = functions

    @classmethod
    def _assemble(cls, signature, domain, edges, marks, functions, adj=None) -> "GuidedStructure":
        """A structure from parts that hold the constructor's checks and are
        in its normal form (sorted domain and edges, u < v in each edge, one
        sorted mark tuple per relation in signature order, total function
        maps), with no check.  The constructor ends in the same ``_fill``.
        ``adj`` (vertex -> frozenset of neighbours) is built if not given."""
        out = cls.__new__(cls)
        out._fill(signature, domain, edges, marks, functions, adj)
        return out

    def __len__(self) -> int:
        return len(self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GuidedStructure):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.domain == other.domain
            and self.edges == other.edges
            and self.marks == other.marks
            and self.functions == other.functions
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"GuidedStructure(n={len(self.domain)}, edges={len(self.edges)}, "
            f"marks={list(self.marks)}, functions={list(self.functions)})"
        )

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, frozenset())

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def _mark_sets(self) -> Dict[str, frozenset]:
        cached = getattr(self, "_mark_set_cache", None)
        if cached is None:
            cached = {name: frozenset(vs) for name, vs in self.marks.items()}
            self._mark_set_cache = cached
        return cached

    def _marks_by_vertex(self) -> Dict[int, List[str]]:
        """Marked vertex -> names of its marks in signature order, built once."""
        cached = getattr(self, "_marks_by_vertex_cache", None)
        if cached is None:
            cached = {}
            for name, vs in self.marks.items():
                for v in vs:
                    cached.setdefault(v, []).append(name)
            self._marks_by_vertex_cache = cached
        return cached


def validate_guided(m: GuidedStructure) -> None:
    """Check guidedness: every function fixes each vertex or follows an edge.

    Raises ValueError naming the first offending (function, vertex) pair.
    """
    for name in m.signature.unary_functions:
        fmap = m.functions[name]
        for v in m.domain:
            w = fmap[v]
            if w != v and not m.has_edge(v, w):
                raise ValueError(f"function {name!r} not guided at {v}: image {w} is not a neighbor")


def gaifman(m: GuidedStructure) -> Graph:
    """Gaifman graph: adjacency plus every non-fixed function pair.

    For guided structures this equals the plain adjacency; restriction-produced
    clamps keep it that way.  Function pairs are included anyway so the result
    is correct on any structure.
    """
    pairs = set(m.edges)
    for name in m.signature.unary_functions:
        fmap = m.functions[name]
        for v in m.domain:
            w = fmap[v]
            if w != v:
                pairs.add((min(v, w), max(v, w)))
    return Graph(m.domain, pairs)


def restrict(m: GuidedStructure, subset: Iterable[int]) -> GuidedStructure:
    """Induced substructure on `subset` with function clamping.

    A function value falling outside the subset is clamped to its argument, so
    the restriction of a guided structure stays guided and total.  The work
    is proportional to the subset and its adjacency, marks and function
    values, not to the size of `m`: edges come from the adjacency of the
    subset's vertices and marks from a vertex -> marks index built once per
    structure.  The result skips the constructor's checks, which hold on it
    because they hold on `m`.
    """
    sub = tuple(sorted(set(subset)))
    sset = frozenset(sub)
    if not m._adj.keys() >= sset:
        raise ValueError("restriction subset leaves domain")
    adj = {v: m._adj[v] & sset for v in sub}
    marks: Dict[str, List[int]] = {name: [] for name in m.marks}
    by_vertex = m._marks_by_vertex()
    for v in sub:
        for name in by_vertex.get(v, ()):
            marks[name].append(v)
    functions = {}
    for name, fmap in m.functions.items():
        functions[name] = {v: (fmap[v] if fmap[v] in sset else v) for v in sub}
    edges = tuple(sorted((u, v) for u in sub for v in adj[u] if u < v))
    return GuidedStructure._assemble(
        m.signature, sub, edges, {name: tuple(vs) for name, vs in marks.items()}, functions, adj
    )


def expand_monadic(m: GuidedStructure, new_marks: Dict[str, Iterable[int]]) -> GuidedStructure:
    """Expansion by fresh unary marks; name clashes are errors.  Only the new
    marks are checked: the rest is `m`'s own, shared with the result."""
    added = {name: frozenset(vs) for name, vs in new_marks.items()}
    for name, vs in added.items():
        if not m._adj.keys() >= vs:
            raise ValueError(f"new mark {name!r} leaves domain")
    sig = m.signature.with_relations(sorted(added))
    marks = {**m.marks, **{name: tuple(sorted(added[name])) for name in sorted(added)}}
    return GuidedStructure._assemble(sig, m.domain, m.edges, marks, m.functions, m._adj)


# ---------------------------------------------------------------------------
# graph file format
#
#   n <count>            vertex count; ids are 0..count-1
#   v <id> <mark>...     marks of a vertex (may repeat per vertex)
#   e <u> <v>            undirected edge
#   f <name> <u> <v>     function entry name(u) = v
#
# '#' starts a comment.  Unknown directives, duplicate edges, and ids out of
# range are parse errors carrying the line number.
# ---------------------------------------------------------------------------


def _read_vertices(tokens: Sequence[str], lineno: int, n: Optional[int]) -> List[int]:
    ids = _read_ints(tokens, lineno)
    if n is None:
        raise GraphFormatError(lineno, "vertex before 'n' line")
    for v in ids:
        if not 0 <= v < n:
            raise GraphFormatError(lineno, f"vertex {v} out of range 0..{n - 1}")
    return ids


def parse_graph(text: str) -> GuidedStructure:
    """Read a graph file, checking each line as it comes, and assemble the
    structure from the checked lines without a second pass of checks."""
    n = None
    adj: Dict[int, set] = {}
    edges: List[Tuple[int, int]] = []
    marks: Dict[str, set] = {}  # in order of first use, as is the signature
    functions: Dict[str, Dict[int, int]] = {}
    for lineno, toks in _read_lines(text):
        head, rest = toks[0], toks[1:]
        if head == "n":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate 'n' line")
            if len(rest) != 1:
                raise GraphFormatError(lineno, "'n' takes one argument")
            (n,) = _read_ints(rest, lineno)
            if n < 0:
                raise GraphFormatError(lineno, "negative vertex count")
            adj = {v: set() for v in range(n)}
        elif head == "v":
            if not rest:
                raise GraphFormatError(lineno, "'v' needs a vertex id")
            (v,) = _read_vertices(rest[:1], lineno, n)
            for mark in rest[1:]:
                marks.setdefault(mark, set()).add(v)
        elif head == "e":
            if len(rest) != 2:
                raise GraphFormatError(lineno, "'e' takes two vertex ids")
            u, v = _read_vertices(rest, lineno, n)
            if u == v:
                raise GraphFormatError(lineno, f"self-loop at {u}")
            if v in adj[u]:
                raise GraphFormatError(lineno, f"parallel edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v) if u < v else (v, u))
        elif head == "f":
            if len(rest) != 3:
                raise GraphFormatError(lineno, "'f' takes a name and two vertex ids")
            name = rest[0]
            u, v = _read_vertices(rest[1:], lineno, n)
            fmap = functions.setdefault(name, {})
            if fmap.get(u, v) != v:
                raise GraphFormatError(lineno, f"conflicting images for {name}({u})")
            fmap[u] = v
        else:
            raise GraphFormatError(lineno, f"unknown directive {head!r}")

    if n is None:
        raise GraphFormatError(1, "missing 'n' line")
    try:
        sig = Signature(tuple(marks), tuple(functions))
    except ValueError as exc:  # a mark and a function share a name
        raise GraphFormatError(1, str(exc)) from None
    domain = tuple(range(n))
    for fmap in functions.values():
        for v in domain:
            fmap.setdefault(v, v)
    return GuidedStructure._assemble(
        sig, domain, tuple(sorted(edges)), {name: tuple(sorted(vs)) for name, vs in marks.items()},
        functions, {v: frozenset(ns) for v, ns in adj.items()},
    )


def serialize_graph(m: GuidedStructure) -> str:
    """Inverse of parse_graph up to formatting; deterministic output."""
    if m.domain and m.domain != tuple(range(len(m.domain))):
        raise ValueError("graph files require dense vertex ids 0..n-1")
    lines = [f"n {len(m.domain)}"]
    for v, names in sorted(m._marks_by_vertex().items()):
        lines.append("v " + " ".join([str(v)] + names))
    for u, v in m.edges:
        lines.append(f"e {u} {v}")
    for name in m.signature.unary_functions:
        fmap = m.functions[name]
        for u in m.domain:
            if fmap[u] != u:
                lines.append(f"f {name} {u} {fmap[u]}")
    return "\n".join(lines) + "\n"
