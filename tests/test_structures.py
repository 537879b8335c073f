import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import random_guided_structure, random_max_degree_graph, structure_from_graph, trace_events
from modcheck.structures import (
    Graph,
    GraphFormatError,
    GuidedStructure,
    Signature,
    degeneracy_order,
    expand_monadic,
    gaifman,
    parse_graph,
    restrict,
    serialize_graph,
    validate_guided,
)


def test_signature_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Signature(("P", "P"), ())
    with pytest.raises(ValueError):
        Signature(("P",), ("P",))


def test_signature_function_indexing():
    sig = Signature((), ("f", "g"))
    assert sig.function_name(1) == "f"
    assert sig.function_name(2) == "g"
    assert sig.function_index("g") == 2
    with pytest.raises(ValueError):
        sig.function_name(3)


def test_graph_basics():
    g = Graph(range(4), [(0, 1), (1, 2)])
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.components() == [(0, 1, 2), (3,)]
    assert g.induced([0, 1, 3]).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        Graph(range(3), [(0, 0)])


def test_structure_normalizes_and_validates():
    sig = Signature(("P",), ("f",))
    m = GuidedStructure(sig, range(3), [(1, 0)], {"P": [2, 0]}, {"f": {0: 1}})
    assert m.edges == ((0, 1),)
    assert m.marks["P"] == (0, 2)
    assert m.functions["f"] == {0: 1, 1: 1, 2: 2}
    with pytest.raises(ValueError):
        GuidedStructure(sig, range(3), [(0, 4)])
    with pytest.raises(ValueError):
        GuidedStructure(sig, range(3), marks={"Q": [0]})


def test_validate_guided_accepts_edge_following_and_rejects_jumps():
    sig = Signature((), ("f",))
    ok = GuidedStructure(sig, range(3), [(0, 1), (1, 2)], functions={"f": {0: 1, 1: 1, 2: 1}})
    validate_guided(ok)
    bad = GuidedStructure(sig, range(3), [(0, 1)], functions={"f": {2: 0}})
    with pytest.raises(ValueError, match="not guided"):
        validate_guided(bad)


def test_gaifman_includes_function_arcs():
    # a star pointer: no edges at all, but f moves 1 -> 0 (unguided on purpose;
    # the Gaifman graph must still pick the pair up)
    sig = Signature((), ("f",))
    m = GuidedStructure(sig, range(3), [], functions={"f": {1: 0}})
    g = gaifman(m)
    assert g.has_edge(0, 1)
    assert not g.has_edge(0, 2)


def test_restrict_clamps_functions():
    sig = Signature(("P",), ("f",))
    m = GuidedStructure(
        sig, range(4), [(0, 1), (1, 2), (2, 3)], {"P": [1, 3]}, {"f": {0: 1, 1: 2, 2: 3, 3: 3}}
    )
    r = restrict(m, [0, 1, 3])
    assert r.domain == (0, 1, 3)
    assert r.edges == ((0, 1),)
    assert r.marks["P"] == (1, 3)
    # f(1) = 2 left the subset: clamped to 1 itself
    assert r.functions["f"] == {0: 1, 1: 1, 3: 3}
    validate_guided(r)


def test_restrict_rejects_foreign_vertices():
    sig = Signature((), ())
    m = GuidedStructure(sig, range(3))
    with pytest.raises(ValueError):
        restrict(m, [0, 7])


def restrict_by_scan(m, subset):
    """The O(|m|) restriction: scans every edge and mark of ``m`` and
    rebuilds the result through the checking constructor."""
    sub = tuple(sorted(set(subset)))
    sset = set(sub)
    if not sset <= set(m.domain):
        raise ValueError("restriction subset leaves domain")
    edges = [(u, v) for u, v in m.edges if u in sset and v in sset]
    marks = {name: [v for v in vs if v in sset] for name, vs in m.marks.items()}
    functions = {}
    for name, fmap in m.functions.items():
        functions[name] = {v: (fmap[v] if fmap[v] in sset else v) for v in sub}
    return GuidedStructure(m.signature, sub, edges, marks, functions)


def test_restrict_equals_the_scan():
    rng = random.Random(41)
    for i in range(200):
        family = ("maxdeg", "planar", "forest", "lowtd")[i % 4]
        m = random_guided_structure(
            rng, rng.randint(1, 30), family=family, n_marks=rng.randint(0, 4), n_funcs=rng.randint(0, 2)
        )
        if i % 3 == 0:
            # a structure whose ids are not 0..n-1, as restrictions are
            m = restrict_by_scan(m, [v for v in m.domain if rng.random() < 0.8])
        subset = [v for v in m.domain if rng.random() < 0.5]
        rng.shuffle(subset)
        for keep in (subset, m.domain, []):
            got, want = restrict(m, keep), restrict_by_scan(m, keep)
            assert got == want
            for u in want.domain:
                assert got.neighbors(u) == want.neighbors(u)
                for v in want.domain:
                    assert got.has_edge(u, v) == want.has_edge(u, v)
            assert restrict(got, keep) == got
        gaps = sorted(set(range(max(m.domain, default=0) + 2)) - set(m.domain))
        with pytest.raises(ValueError, match="leaves domain"):
            restrict(m, subset + gaps[:1])


def test_restrict_scales_with_the_subset():
    # a fixed 20-vertex subset of a structure with 12 mark families: after
    # the first call has built the vertex -> marks index, a restriction
    # costs the same at n = 1000 and 4000
    events = []
    for n in (1000, 4000):
        rng = random.Random(n)
        m = structure_from_graph(rng, random_max_degree_graph(rng, n), n_marks=12, n_funcs=1)
        subset = list(range(0, 40, 2))
        restrict(m, subset)
        events.append(trace_events(restrict, m, subset))
    assert events[1] <= 1.5 * events[0], events


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 14))
def test_restrict_idempotent_and_guidedness_preserved(seed, n):
    rng = random.Random(seed)
    m = random_guided_structure(rng, n, n_funcs=2)
    validate_guided(m)
    subset = [v for v in m.domain if rng.random() < 0.6]
    r = restrict(m, subset)
    validate_guided(r)
    r2 = restrict(r, subset)
    assert r.domain == r2.domain and r.edges == r2.edges
    assert r.marks == r2.marks and r.functions == r2.functions


def test_expand_monadic_adds_marks_and_rejects_clashes():
    sig = Signature(("P",), ())
    m = GuidedStructure(sig, range(3), marks={"P": [0]})
    m2 = expand_monadic(m, {"Q": [1, 2]})
    assert m2.marks["Q"] == (1, 2)
    assert m2.marks["P"] == (0,)
    with pytest.raises(ValueError):
        expand_monadic(m2, {"P": [0]})


GOOD_FILE = """
# a toy structure
n 4
v 0 red
v 2 red blue
e 0 1
e 1 2
e 2 3
f nxt 0 1
f nxt 1 2
"""


def test_parse_graph_round_trip():
    m = parse_graph(GOOD_FILE)
    assert m.domain == (0, 1, 2, 3)
    assert m.marks["red"] == (0, 2)
    assert m.marks["blue"] == (2,)
    assert m.functions["nxt"][0] == 1 and m.functions["nxt"][3] == 3
    again = parse_graph(serialize_graph(m))
    assert again.domain == m.domain
    assert again.edges == m.edges
    assert again.marks == m.marks
    assert again.functions == m.functions


@pytest.mark.parametrize(
    "text,lineno,msg",
    [
        ("n 2\nz 0 1\n", 2, "unknown directive"),
        ("n 2\ne 0 1\ne 1 0\n", 3, "parallel edge"),
        ("n 2\ne 0 2\n", 2, "out of range"),
        ("n 2\ne 1 1\n", 2, "self-loop"),
        ("v 0 red\n", 1, "before 'n'"),
        ("n 2\nn 3\n", 2, "duplicate 'n'"),
        ("e 0 1\n", 1, "before 'n'"),
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, lineno, msg):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno
    assert msg in str(exc.value)


def test_parse_graph_missing_n():
    with pytest.raises(GraphFormatError):
        parse_graph("# nothing\n")


def test_serialize_requires_dense_ids():
    sig = Signature((), ())
    m = GuidedStructure(sig, [0, 2])
    with pytest.raises(ValueError):
        serialize_graph(m)


def test_components_deterministic_order():
    rng = random.Random(7)
    g = random_max_degree_graph(rng, 30)
    comps = g.components()
    assert comps == sorted(comps, key=min)
    assert sorted(v for c in comps for v in c) == list(range(30))


def min_peel(adj):
    """The quadratic smallest-last peel: a min over the live vertices per step."""
    deg = {v: len(ns) for v, ns in adj.items()}
    alive = set(adj)
    order, out = [], 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        order.append(v)
        out = max(out, deg[v])
        alive.remove(v)
        for u in adj[v]:
            if u in alive:
                deg[u] -= 1
    return order, out


def test_degeneracy_order_equals_the_min_peel():
    rng = random.Random(37)
    graphs = [Graph([]), Graph(range(5))]
    for _ in range(150):
        n = rng.randrange(1, 40)
        graphs.append(random_max_degree_graph(rng, n, max_deg=rng.randrange(1, 7)))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graphs.append(Graph(range(0, 2 * n, 2), [(2 * u, 2 * v) for u, v in edges]))
    for g in graphs:
        assert degeneracy_order(g.adj) == min_peel(g.adj)


def test_degeneracy_order_goldens():
    assert degeneracy_order({}) == ([], 0)
    star = Graph(range(5), [(0, j) for j in range(1, 5)])
    assert degeneracy_order(star.adj) == ([1, 2, 3, 0, 4], 1)
    k4 = Graph(range(4), [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert degeneracy_order(k4.adj) == ([0, 1, 2, 3], 3)
