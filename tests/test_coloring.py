"""Tests for centered colorings, tree-depth, and elimination forests."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcheck.coloring import (
    CenteredColoring,
    EliminationForest,
    NotCenteredError,
    _greedy_distance_coloring,
    coloring_from_forest,
    compute_p_centered,
    forest_from_centered,
    heuristic_elimination_forest,
    optimal_elimination_forest,
    treedepth_exact,
    validate_p_centered,
)
from modcheck.structures import Graph, GuidedStructure, Signature, gaifman, restrict

from gens import (
    grid_graph,
    path_graph,
    random_guided_structure,
    random_max_degree_graph,
    random_planarish_graph,
    trace_events,
)


def complete_graph(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


def cycle_graph(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# oracle: check the definition directly on every connected subgraph
# ---------------------------------------------------------------------------


def p_centered_by_definition(g: Graph, coloring: CenteredColoring, p: int) -> bool:
    """Brute force over all connected vertex subsets (n <= ~12 only)."""
    vs = list(g.vertices)
    for r in range(1, len(vs) + 1):
        for subset in itertools.combinations(vs, r):
            sub = g.induced(subset)
            if not sub.is_connected():
                continue
            palette = [coloring.colors[v] for v in subset]
            if len(set(palette)) >= p:
                continue
            if any(palette.count(c) == 1 for c in set(palette)):
                continue
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(2, 4))
def test_validator_matches_definition(seed, n, p):
    rng = random.Random(seed)
    g = random_max_degree_graph(rng, n, max_deg=3)
    colors = {v: rng.randint(1, 3) for v in g.vertices}
    cand = CenteredColoring(p, colors)
    witness = validate_p_centered(g, cand, p)
    assert (witness is None) == p_centered_by_definition(g, cand, p)
    if witness is not None:
        sub = g.induced(witness)
        assert sub.is_connected()
        palette = [colors[v] for v in witness]
        assert len(set(palette)) <= p - 1
        assert all(palette.count(c) >= 2 for c in set(palette))


def test_validator_accepts_rainbow():
    g = complete_graph(5)
    cand = CenteredColoring(3, {v: v + 1 for v in g.vertices})
    assert validate_p_centered(g, cand) is None


def test_validator_rejects_bicolored_cycle():
    g = cycle_graph(6)
    cand = CenteredColoring(3, {v: v % 2 + 1 for v in g.vertices})
    witness = validate_p_centered(g, cand)
    assert witness is not None


def test_validator_respects_p():
    # two colors on C6 are fine for p = 2: any subgraph with <2 colors is
    # a single vertex, which is trivially centered
    g = cycle_graph(6)
    cand = CenteredColoring(2, {v: v % 2 + 1 for v in g.vertices})
    assert validate_p_centered(g, cand, 2) is None
    assert validate_p_centered(g, cand, 3) is not None


# ---------------------------------------------------------------------------
# tree-depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_treedepth_of_full_binary_height_paths(h):
    # a path on 2^h - 1 vertices has tree-depth exactly h
    assert treedepth_exact(path_graph(2**h - 1)) == h


def test_treedepth_path15_golden():
    assert treedepth_exact(path_graph(15)) == 4
    assert treedepth_exact(path_graph(16)) == 5


def test_treedepth_complete_graph():
    assert treedepth_exact(complete_graph(4)) == 4
    assert treedepth_exact(complete_graph(6)) == 6


def test_treedepth_star_and_cycle():
    star = Graph(range(6), [(0, i) for i in range(1, 6)])
    assert treedepth_exact(star) == 2
    assert treedepth_exact(cycle_graph(4)) == 3
    # td(C_n) = 1 + td(P_{n-1})
    assert treedepth_exact(cycle_graph(8)) == 1 + treedepth_exact(path_graph(7))


def test_treedepth_disconnected_and_empty():
    g = Graph(range(6), [(0, 1), (2, 3), (3, 4), (4, 5)])
    assert treedepth_exact(g) == max(2, treedepth_exact(path_graph(4)))
    assert treedepth_exact(Graph([])) == 0


def test_treedepth_size_cap():
    # every exact search shares one cap: 20 vertices pass, 21 are refused
    assert optimal_elimination_forest(path_graph(20)).height == treedepth_exact(path_graph(20))
    for exact in (
        treedepth_exact,
        optimal_elimination_forest,
        lambda g: compute_p_centered(g, 3, backend="exact"),
    ):
        with pytest.raises(ValueError, match="capped at 20"):
            exact(path_graph(21))
        with pytest.raises(ValueError, match="capped"):
            exact(path_graph(40))


def test_optimal_forest_achieves_treedepth():
    for g in [path_graph(10), cycle_graph(7), grid_graph(3, 4), complete_graph(5)]:
        forest = optimal_elimination_forest(g)
        forest.validate(g)
        assert forest.height == treedepth_exact(g)


# ---------------------------------------------------------------------------
# elimination forests
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 14))
def test_heuristic_forest_covers_graph(seed, n):
    rng = random.Random(seed)
    g = random_max_degree_graph(rng, n, max_deg=4)
    forest = heuristic_elimination_forest(g)
    forest.validate(g)
    assert sorted(forest.parent) == list(g.vertices)


def test_forest_queries():
    g = path_graph(7)
    forest = optimal_elimination_forest(g)
    assert forest.height == 3
    (root,) = forest.roots
    for v in g.vertices:
        path = forest.path[v]
        assert path[0] == root and path[-1] == v
        assert forest.is_ancestor(root, v)
        assert len(path) == forest.level[v]
        assert all(forest.parent[b] == a for a, b in zip(path, path[1:]))


def test_forest_derives_its_tables_from_the_parent_map():
    #   9       2
    #  / \      |
    # 4   7     5
    #     |
    #     1
    forest = EliminationForest({9: 9, 4: 9, 7: 9, 1: 7, 2: 2, 5: 2})
    assert forest.vertices == (1, 2, 4, 5, 7, 9)
    assert forest.roots == (2, 9)
    assert forest.level == {9: 1, 2: 1, 4: 2, 7: 2, 5: 2, 1: 3}
    assert forest.height == 3
    assert forest.children == {9: (4, 7), 7: (1,), 2: (5,), 4: (), 1: (), 5: ()}
    assert sorted(forest.order) == list(forest.vertices)
    seen = set()
    for v in forest.order:
        assert forest.parent[v] == v or forest.parent[v] in seen
        seen.add(v)
    assert forest.path == {9: (9,), 4: (9, 4), 7: (9, 7), 1: (9, 7, 1), 2: (2,), 5: (2, 5)}
    assert forest == EliminationForest({5: 2, 2: 2, 1: 7, 7: 9, 4: 9, 9: 9})
    with pytest.raises(ValueError, match="parent cycle through vertex 1"):
        EliminationForest({0: 0, 1: 2, 2: 1, 3: 1})
    with pytest.raises(ValueError, match="vertex 8 has no"):
        EliminationForest({0: 0, 1: 8})


def test_forest_depth_coloring_is_fully_centered():
    g = grid_graph(4, 4)
    forest = heuristic_elimination_forest(g)
    cand = coloring_from_forest(forest, p=4)
    # depth colorings are p-centered for every p, including p > height
    for p in (2, 3, forest.height + 2):
        assert validate_p_centered(g, cand, p) is None


# ---------------------------------------------------------------------------
# compute_p_centered backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["exact", "heuristic"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_backends_produce_valid_colorings(backend, p):
    corpus = [
        path_graph(9),
        cycle_graph(8),
        grid_graph(3, 4),
        complete_graph(5),
        Graph(range(7), [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6)]),
    ]
    for g in corpus:
        cand = compute_p_centered(g, p, backend=backend)
        assert set(cand.colors) == set(g.vertices)
        assert validate_p_centered(g, cand, p) is None


def test_heuristic_handles_midsize_grid():
    g = grid_graph(10, 10)
    cand = compute_p_centered(g, 3, backend="heuristic")
    assert validate_p_centered(g, cand, 3) is None


# The validator's cost grows like C(colors, p - 1), so larger p uses smaller
# graphs to keep the oracle fast.
HEURISTIC_SIZES = {2: 30, 3: 30, 4: 30, 5: 20, 6: 12, 7: 12}


@pytest.mark.parametrize("p", sorted(HEURISTIC_SIZES))
def test_heuristic_result_validates(p):
    rng = random.Random(100 + p)
    for i in range(100):
        n = rng.randint(2, HEURISTIC_SIZES[p])
        g = random_max_degree_graph(rng, n) if i % 2 else random_planarish_graph(rng, n)
        cand = compute_p_centered(g, p)
        assert cand.p == p and set(cand.colors) == set(g.vertices)
        assert validate_p_centered(g, cand, p) is None


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_heuristic_keeps_the_first_validated_radius(p):
    # for p <= 4 the chosen coloring is the first of radius 2 and 3 that
    # validates, else radius 3
    rng = random.Random(200 + p)
    for i in range(100):
        n = rng.randint(2, 30)
        g = random_max_degree_graph(rng, n) if i % 2 else random_planarish_graph(rng, n)
        colorings = [_greedy_distance_coloring(g, r).colors for r in (2, 3)]
        valid = [c for c in colorings if validate_p_centered(g, CenteredColoring(p, c), p) is None]
        assert compute_p_centered(g, p).colors == (valid or colorings[1:])[0]


def test_heuristic_scales_linearly_at_p5():
    # radius p - 1 = 4 needs no validator; validating it, or a radius-6
    # coloring, costs C(colors, 4) times n with colors growing with n
    events = [
        trace_events(compute_p_centered, random_max_degree_graph(random.Random(7), n), 5)
        for n in (100, 400)
    ]
    assert events[1] <= 6 * events[0], events


def test_exact_backend_color_count_on_paths():
    # the exact backend realizes tree-depth many colors on paths
    cand = compute_p_centered(path_graph(15), 5, backend="exact")
    assert cand.n_colors() == 4


def test_compute_rejects_bad_args():
    with pytest.raises(ValueError, match="positive"):
        compute_p_centered(path_graph(3), 0)
    with pytest.raises(ValueError, match="backend"):
        compute_p_centered(path_graph(3), 2, backend="nope")
    assert compute_p_centered(Graph([]), 3).colors == {}


# ---------------------------------------------------------------------------
# forest_from_centered
# ---------------------------------------------------------------------------


def _plain(g: Graph) -> GuidedStructure:
    return GuidedStructure(Signature(), g.vertices, g.edges())


def test_forest_from_centered_rebuilds_depth_coloring():
    g = grid_graph(3, 5)
    forest = heuristic_elimination_forest(g)
    cand = coloring_from_forest(forest, 3)
    rebuilt = forest_from_centered(_plain(g), cand)
    assert rebuilt.parent == forest.parent
    assert rebuilt.level == forest.level


def test_forest_from_centered_height_bound_on_pieces():
    # restrictions of a p-centered coloring to <= p-1 classes are fully
    # centered, so peeling succeeds and height <= number of colors present
    rng = random.Random(5)
    for _ in range(20):
        m = random_guided_structure(rng, rng.randint(2, 12), family="maxdeg", n_funcs=1)
        g = gaifman(m)
        p = 4
        cand = compute_p_centered(g, p, backend="heuristic")
        palette = sorted(set(cand.colors.values()))
        for chosen in itertools.combinations(palette, min(p - 1, len(palette))):
            keep = [v for v in m.domain if cand.colors[v] in chosen]
            if not keep:
                continue
            piece = restrict(m, keep)
            forest = forest_from_centered(piece, cand)
            assert forest.height <= len(chosen)
            forest.validate(gaifman(piece))


def test_forest_from_centered_uses_function_arcs():
    # f-arcs count as Gaifman edges, so the forest must cover them too
    sig = Signature(unary_functions=("f",))
    m = GuidedStructure(sig, range(4), [(0, 1), (1, 2), (2, 3)], functions={"f": {0: 1, 1: 2, 2: 3, 3: 3}})
    cand = compute_p_centered(gaifman(m), 3, backend="exact")
    forest = forest_from_centered(m, cand)
    forest.validate(gaifman(m))


def test_forest_from_centered_rejects_non_centered():
    g = cycle_graph(6)
    bad = CenteredColoring(3, {v: v % 2 + 1 for v in g.vertices})
    with pytest.raises(NotCenteredError) as exc:
        forest_from_centered(_plain(g), bad)
    assert len(exc.value.component) >= 2


def test_forest_from_centered_tiebreak():
    # two unique colors in the component: smallest color wins the root
    g = path_graph(3)
    cand = CenteredColoring(3, {0: 2, 1: 3, 2: 1})
    forest = forest_from_centered(_plain(g), cand)
    assert forest.roots == (2,)
    assert forest.level == {2: 1, 0: 2, 1: 3}


def test_determinism():
    rng = random.Random(77)
    g = random_max_degree_graph(rng, 14, max_deg=3)
    a = compute_p_centered(g, 3, backend="heuristic")
    b = compute_p_centered(g, 3, backend="heuristic")
    assert a == b
    fa = heuristic_elimination_forest(g)
    fb = heuristic_elimination_forest(g)
    assert fa.parent == fb.parent and fa.level == fb.level
