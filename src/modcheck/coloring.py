"""Centered colorings, tree-depth, and elimination forests.

A coloring is p-centered when every connected subgraph either receives at
least p colors or has some color on exactly one vertex.  Colorings whose every
connected subgraph has a uniquely colored vertex ("fully centered") are
p-centered for all p; depth levels of an elimination forest are such a
coloring, which is how the exact backend produces validity.  The heuristic
backend colors greedily so that no two vertices within distance
max(2, p - 1) share a color, which is p-centered by construction (the proof
is in ``compute_p_centered``).  Neither backend calls
``validate_p_centered``: it checks colorings for ``modcheck color`` and the
tests.

Every forest here comes from one of two peels, and both return a parent
map: ``EliminationForest`` derives levels, children and root paths from it.
``_peel_forest`` removes a chosen root from each component and peels the
rest below it: a root of minimum tree-depth for the exact forest, a
separator for the heuristic one.  ``_centered_peel`` removes each
component's uniquely colored vertex of smallest (color, id); the validator
runs it on unions of color classes, and ``forest_from_centered`` turns its
removals on a guided structure's own adjacency ``_adj`` into a forest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .structures import Graph, GuidedStructure, degeneracy_order


class NotCenteredError(ValueError):
    """Raised when a coloring is not centered on some connected subgraph."""

    def __init__(self, component: Sequence[int]):
        super().__init__(f"no uniquely colored vertex in component {sorted(component)}")
        self.component = tuple(sorted(component))


@dataclass(frozen=True)
class CenteredColoring:
    """A p-centered coloring candidate: colors are positive integers."""

    p: int
    colors: Dict[int, int]

    def n_colors(self) -> int:
        return len(set(self.colors.values()))


@dataclass
class EliminationForest:
    """Rooted forest on the vertex set, given by its parent map alone: roots
    are their own parents, and forests with equal parent maps are equal.

    Everything else is derived here, once, from the parents: ``level``
    (roots at 1, filled top-down), the sorted ``vertices`` and ``roots``,
    ``children`` (ascending ids; leaves map to ``()``), a top-down ``order``
    (each parent before its children) and ``height``.  ``path[v]``, the
    vertices of v's root path from the root down to v, is built when first
    read: a forest read without its paths stays linear on deep chains.  A
    parent cycle, or a parent with no entry of its own, raises ValueError;
    the second message speaks of 'r' and 'p' lines, as the forest file
    reader reports it.

    Producers build it so that every edge of the originating graph joins an
    ancestor to a descendant (the graph embeds in the forest's ancestor
    closure); ``validate`` checks that.
    """

    parent: Dict[int, int]

    def __post_init__(self):
        # plain loops over locals: most forests have a handful of vertices,
        # and one is built for every base of the pipeline
        parent = self.parent
        vertices = tuple(sorted(parent))
        roots: List[int] = []
        kids: Dict[int, List[int]] = {}
        for v in vertices:
            p = parent[v]
            if p == v:
                roots.append(v)
            elif p in parent:
                kids.setdefault(p, []).append(v)
            else:
                raise ValueError(f"vertex {p} has no 'r' or 'p' line")
        children: Dict[int, Tuple[int, ...]] = dict.fromkeys(vertices, ())
        for p, cs in kids.items():
            children[p] = tuple(cs)
        level: Dict[int, int] = {}
        order: List[int] = []
        frontier, depth = roots, 0
        while frontier:
            depth += 1
            order += frontier
            below: List[int] = []
            for v in frontier:
                level[v] = depth
                below += children[v]
            frontier = below
        if len(order) < len(vertices):
            # some vertex is not below a root: walk up from the smallest one
            # until the walk repeats a vertex, which lies on a cycle
            u = min(v for v in vertices if v not in level)
            seen = set()
            while u not in seen:
                seen.add(u)
                u = parent[u]
            raise ValueError(f"parent cycle through vertex {u}")
        self.vertices, self.roots, self.children = vertices, tuple(roots), children
        self.level, self.order, self.height = level, order, depth

    @cached_property
    def path(self) -> Dict[int, Tuple[int, ...]]:
        out: Dict[int, Tuple[int, ...]] = {}
        for v in self.order:
            p = self.parent[v]
            out[v] = out[p] + (v,) if p != v else (v,)
        return out

    def ancestor_at_level(self, v: int, lvl: int) -> int:
        if not 1 <= lvl <= self.level[v]:
            raise ValueError(f"no level-{lvl} ancestor of {v}")
        while self.level[v] > lvl:
            v = self.parent[v]
        return v

    def is_ancestor(self, u: int, v: int) -> bool:
        """True when u is an ancestor of v (or equal)."""
        if self.level[u] > self.level[v]:
            return False
        return self.ancestor_at_level(v, self.level[u]) == u

    def validate(self, g: Graph) -> None:
        """Check that every edge of g joins an ancestor to a descendant."""
        for u, v in g.edges():
            if not (self.is_ancestor(u, v) or self.is_ancestor(v, u)):
                raise ValueError(f"edge ({u},{v}) is not ancestor-descendant in the forest")


# ---------------------------------------------------------------------------
# exact tree-depth: memoized branch and bound
# ---------------------------------------------------------------------------


class _TreedepthEngine:
    """Tree-depth search and peels over an adjacency, read in place."""

    def __init__(self, adj: Mapping[int, Collection[int]]):
        self.adj = adj
        self.memo: Dict[FrozenSet[int], int] = {}

    def components(self, vs: FrozenSet[int]) -> List[FrozenSet[int]]:
        seen = set()
        comps = []
        for s in sorted(vs):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in vs.intersection(self.adj[x]):
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        return comps

    def eccentricity_lb(self, vs: FrozenSet[int]) -> int:
        """Tree-depth of a connected graph is at least log2(diameter path)."""
        start = min(vs)
        far, _ = self._bfs_far(vs, start)
        _, dist = self._bfs_far(vs, far)
        # a shortest path with dist edges is an induced-length path subgraph
        n_path = dist + 1
        lb = 1
        while (1 << lb) - 1 < n_path:
            lb += 1
        return lb

    def _bfs_far(self, vs: FrozenSet[int], start: int) -> Tuple[int, int]:
        seen = {start: 0}
        frontier = [start]
        far, fdist = start, 0
        while frontier:
            nxt = []
            for x in frontier:
                for y in vs.intersection(self.adj[x]):
                    if y not in seen:
                        seen[y] = seen[x] + 1
                        if (seen[y], -y) > (fdist, -far):
                            far, fdist = y, seen[y]
                        nxt.append(y)
            frontier = nxt
        return far, fdist

    def greedy_ub(self, vs: FrozenSet[int]) -> int:
        """Height of a forest built by removing a good separator vertex."""
        if not vs:
            return 0
        comps = self.components(vs)
        return max(self._greedy_ub_connected(c) for c in comps)

    def _greedy_ub_connected(self, vs: FrozenSet[int]) -> int:
        if len(vs) == 1:
            return 1
        v = self._separator_choice(vs)
        rest = vs - {v}
        if not rest:
            return 1
        return 1 + max(self._greedy_ub_connected(c) for c in self.components(rest))

    def _separator_choice(self, vs: FrozenSet[int]) -> int:
        candidates = set()
        start = min(vs)
        far, _ = self._bfs_far(vs, start)
        # middle of a long shortest path is a decent separator
        mid = self._bfs_middle(vs, far)
        candidates.add(mid)
        by_deg = sorted(vs, key=lambda v: (-len(vs.intersection(self.adj[v])), v))
        candidates.update(by_deg[:4])
        best_v, best_key = None, None
        for v in sorted(candidates):
            rest = vs - {v}
            worst = max((len(c) for c in self.components(rest)), default=0)
            key = (worst, v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        return best_v

    def _bfs_middle(self, vs: FrozenSet[int], start: int) -> int:
        seen = {start: 0}
        order = [start]
        frontier = [start]
        parent = {start: start}
        far = start
        while frontier:
            nxt = []
            for x in frontier:
                for y in sorted(vs.intersection(self.adj[x])):
                    if y not in seen:
                        seen[y] = seen[x] + 1
                        parent[y] = x
                        order.append(y)
                        nxt.append(y)
                        far = y
            frontier = nxt
        path = [far]
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
        return path[len(path) // 2]

    def treedepth(self, vs: FrozenSet[int]) -> int:
        """Exact tree-depth of the induced subgraph on vs."""
        comps = self.components(vs)
        if not comps:
            return 0
        return max(self._td_connected(c) for c in comps)

    def _td_connected(self, vs: FrozenSet[int]) -> int:
        if len(vs) == 1:
            return 1
        if len(vs) == 2:
            return 2
        hit = self.memo.get(vs)
        if hit is not None:
            return hit
        lb = self.eccentricity_lb(vs)
        ub = self.greedy_ub(vs)
        if lb >= ub:
            self.memo[vs] = ub
            return ub
        best = ub
        order = sorted(vs, key=lambda v: (-len(vs.intersection(self.adj[v])), v))
        for v in order:
            if best == lb:
                break
            comps = sorted(self.components(vs - {v}), key=len, reverse=True)
            worst = 0
            for c in comps:
                worst = max(worst, self._td_connected(c))
                if worst + 1 >= best:
                    break
            best = min(best, 1 + worst)
        self.memo[vs] = best
        return best

    def _min_height_root(self, vs: FrozenSet[int]) -> int:
        """Smallest vertex whose removal leaves components of tree-depth one
        less than the connected set ``vs``."""
        td = self._td_connected(vs)
        for v in sorted(vs):
            rest = self.components(vs - {v})
            if max((self._td_connected(c) for c in rest), default=0) < td:
                return v
        raise AssertionError("tree-depth recursion lost its witness")


EXACT_SIZE_CAP = 20  # vertices: the exact search is exponential


def _require_exact_size(g: Graph) -> None:
    if len(g) > EXACT_SIZE_CAP:
        raise ValueError(f"graph has {len(g)} vertices, exact tree-depth capped at {EXACT_SIZE_CAP}")


def treedepth_exact(g: Graph) -> int:
    """Exact tree-depth by branch and bound; refuses graphs above the cap."""
    _require_exact_size(g)
    if len(g) == 0:
        return 0
    return _TreedepthEngine(g.adj).treedepth(frozenset(g.vertices))


def _peel_forest(g: Graph, choose: Callable[[_TreedepthEngine, FrozenSet[int]], int]) -> EliminationForest:
    """Elimination forest by repeated root choice: ``choose`` picks the root
    of every component with two or more vertices, and the rest of the
    component is peeled below it."""
    eng = _TreedepthEngine(g.adj)
    parent: Dict[int, int] = {}

    def peel(vs: FrozenSet[int], par: Optional[int]) -> None:
        for comp in eng.components(vs):
            v = min(comp) if len(comp) == 1 else choose(eng, comp)
            parent[v] = v if par is None else par
            peel(comp - {v}, v)

    peel(frozenset(g.vertices), None)
    return EliminationForest(parent)


def optimal_elimination_forest(g: Graph) -> EliminationForest:
    """Minimum-height elimination forest; refuses graphs above the cap."""
    _require_exact_size(g)
    return _peel_forest(g, _TreedepthEngine._min_height_root)


def heuristic_elimination_forest(g: Graph) -> EliminationForest:
    """Separator-guided elimination forest; valid for any graph, decent height."""
    return _peel_forest(g, _TreedepthEngine._separator_choice)


def coloring_from_forest(forest: EliminationForest, p: int) -> CenteredColoring:
    """Depth levels as colors: fully centered, hence p-centered for every p."""
    return CenteredColoring(p, dict(forest.level))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _centered_peel(
    eng: _TreedepthEngine, vs: FrozenSet[int], colors: Dict[int, int]
) -> Tuple[Optional[Tuple[int, ...]], Dict[int, int]]:
    """Peel ``vs`` by colors: in every component, delete the uniquely colored
    vertex with the smallest (color, id) and peel the rest of the component
    below it.

    Returns the first component met with no uniquely colored vertex (None
    when there is none) and the parent map of the vertices peeled.  Which
    unique vertex is deleted does not change whether a violation exists.
    """
    parent: Dict[int, int] = {}
    stack: List[Tuple[FrozenSet[int], Optional[int]]] = [(vs, None)]
    while stack:
        cur, par = stack.pop()
        for comp in eng.components(cur):
            counts: Dict[int, int] = {}
            for v in comp:
                counts[colors[v]] = counts.get(colors[v], 0) + 1
            unique = [v for v in comp if counts[colors[v]] == 1]
            if not unique:
                return tuple(sorted(comp)), parent
            pick = min(unique, key=lambda v: (colors[v], v))
            parent[pick] = pick if par is None else par
            if len(comp) > 1:
                stack.append((comp - {pick}, pick))
    return None, parent


def validate_p_centered(g: Graph, coloring: CenteredColoring, p: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """Return a violating connected vertex set, or None when p-centered.

    Only subgraphs spanning at most p-1 colors can violate the definition, so
    it suffices to check that the union of every such family of color classes
    is centered.
    """
    p = coloring.p if p is None else p
    if p < 1:
        raise ValueError("p must be positive")
    for v in g.vertices:
        if v not in coloring.colors:
            raise ValueError(f"vertex {v} is uncolored")
    eng = _TreedepthEngine(g.adj)
    palette = sorted(set(coloring.colors[v] for v in g.vertices))
    classes: Dict[int, List[int]] = {c: [] for c in palette}
    for v in sorted(g.vertices):
        classes[coloring.colors[v]].append(v)
    top = min(p - 1, len(palette))
    for size in range(1, top + 1):
        for chosen in itertools.combinations(palette, size):
            vs = frozenset(v for c in chosen for v in classes[c])
            witness = _centered_peel(eng, vs, coloring.colors)[0]
            if witness is not None:
                return witness
    return None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _greedy_distance_coloring(g: Graph, radius: int) -> Dict[int, int]:
    """Greedy along a degeneracy order, refusing color reuse within a radius."""
    colors: Dict[int, int] = {}
    for v in reversed(degeneracy_order(g.adj)[0]):
        forbidden = set()
        frontier = {v}
        seen = {v}
        for _ in range(radius):
            nxt = set()
            for x in frontier:
                for y in g.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.add(y)
                        if y in colors:
                            forbidden.add(colors[y])
            frontier = nxt
        c = 1
        while c in forbidden:
            c += 1
        colors[v] = c
    return colors


def compute_p_centered(g: Graph, p: int, backend: str = "heuristic") -> CenteredColoring:
    """A valid p-centered coloring; no promise on the number of colors.

    exact backend: depth levels of a minimum-height elimination forest
    (graphs of at most ``EXACT_SIZE_CAP`` vertices).
    heuristic backend: the greedy distance coloring of radius max(2, p - 1),
    which is p-centered by construction.  Take a connected subgraph.  With p
    or more vertices it contains a connected p-vertex subtree, whose vertices
    lie pairwise within distance p - 1 and so all get distinct colors.  With
    fewer vertices, all of them lie pairwise within distance p - 2, so every
    color on it is unique.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if len(g) == 0:
        return CenteredColoring(p, {})
    if backend == "exact":
        return coloring_from_forest(optimal_elimination_forest(g), p)
    if backend != "heuristic":
        raise ValueError(f"unknown backend {backend!r}")
    return CenteredColoring(p, _greedy_distance_coloring(g, max(2, p - 1)))


def forest_from_centered(m: GuidedStructure, coloring: CenteredColoring) -> EliminationForest:
    """Elimination forest of a guided structure from a centered coloring.

    The peel reads ``m._adj``, the Gaifman graph of a guided structure (on
    one that is not, ``encode_IY`` refuses a function arc off the forest).
    Stage by stage each component must hold a uniquely colored vertex; that
    vertex (ties: smallest color, then smallest id) becomes the next root.
    Raises NotCenteredError when some component has no unique color.  The
    result is not validated again: every edge lies inside one component
    when its first endpoint is removed, so the other endpoint is peeled
    below it and every edge joins an ancestor to a descendant.
    """
    violation, parent = _centered_peel(_TreedepthEngine(m._adj), frozenset(m.domain), coloring.colors)
    if violation is not None:
        raise NotCenteredError(violation)
    return EliminationForest(parent)
