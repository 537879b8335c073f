"""Tests for local complementation and bounded-depth vertex minors."""

import itertools
import random

import pytest

from modcheck.structures import Graph
from modcheck.vertex_minor import (
    IndependenceError,
    VmStep,
    depth_k_vertex_minor,
    format_steps,
    local_complement,
    local_complement_set,
    parse_steps,
)

from gens import random_max_degree_graph, trace_events


def gkey(g: Graph):
    return (g.vertices, tuple(g.edges()))


def random_graph(rng, n, density=0.3) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Graph(range(n), edges)


def random_independent_set(rng, g: Graph, cap=None):
    chosen = []
    order = list(g.vertices)
    rng.shuffle(order)
    for v in order:
        if all(not g.has_edge(v, w) for w in chosen):
            chosen.append(v)
            if cap is not None and len(chosen) >= cap:
                break
    return sorted(chosen)


def parity_complement_oracle(g: Graph, independent) -> Graph:
    """Toggle a pair exactly when an odd number of set members see both ends."""
    members = set(independent)
    edges = {e for e in g.edges()}
    for a, b in itertools.combinations(g.vertices, 2):
        hits = sum(1 for i in members if g.has_edge(i, a) and g.has_edge(i, b))
        if hits % 2:
            edges ^= {(a, b)}
    return Graph(g.vertices, sorted(edges))


# ---------------------------------------------------------------------------
# single-vertex complementation
# ---------------------------------------------------------------------------


def test_complementing_at_an_isolated_vertex_changes_nothing():
    g = Graph(range(4), [(1, 2)])
    assert gkey(local_complement(g, 0)) == gkey(g)
    assert gkey(local_complement(g, 3)) == gkey(g)


def test_complementing_the_middle_of_a_path_makes_a_triangle():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)])
    out = local_complement(g, 1)
    assert out.edges() == [(0, 1), (0, 2), (1, 2)]


def test_complementing_a_triangle_center_removes_the_far_edge():
    g = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    out = local_complement(g, 0)
    assert out.edges() == [(0, 1), (0, 2)]


def test_edges_incident_to_the_pivot_are_kept():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 9))
        v = rng.choice(g.vertices)
        out = local_complement(g, v)
        assert out.adj[v] == g.adj[v]


def test_complementation_touches_only_the_neighborhood():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 9))
        v = rng.choice(g.vertices)
        out = local_complement(g, v)
        inside = set(g.adj[v])
        for a, b in itertools.combinations(g.vertices, 2):
            changed = g.has_edge(a, b) != out.has_edge(a, b)
            if changed:
                assert a in inside and b in inside


def test_local_complement_is_an_involution():
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 10), density=rng.uniform(0.1, 0.7))
        v = rng.choice(g.vertices)
        assert gkey(local_complement(local_complement(g, v), v)) == gkey(g)


def test_local_complement_rejects_unknown_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        local_complement(Graph(range(3), []), 5)


# ---------------------------------------------------------------------------
# independent-set complementation
# ---------------------------------------------------------------------------


def test_empty_set_complementation_is_the_identity():
    g = Graph(range(5), [(0, 1), (2, 3)])
    assert gkey(local_complement_set(g, [])) == gkey(g)


def test_two_remote_leaves_equal_two_single_steps():
    # two nonadjacent degree-1 vertices with distinct neighbors
    g = Graph(range(6), [(0, 1), (2, 3), (1, 4), (3, 5), (1, 3)])
    assert gkey(local_complement_set(g, [0, 2])) == gkey(
        local_complement(local_complement(g, 0), 2)
    )


def test_set_complementation_matches_the_parity_oracle():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 10), density=rng.uniform(0.1, 0.6))
        ind = random_independent_set(rng, g)
        assert gkey(local_complement_set(g, ind)) == gkey(
            parity_complement_oracle(g, ind)
        )


def test_set_complementation_is_order_independent():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 9), density=rng.uniform(0.1, 0.6))
        ind = random_independent_set(rng, g, cap=4)
        want = gkey(local_complement_set(g, ind))
        for perm in itertools.permutations(ind):
            out = g
            for v in perm:
                out = local_complement(out, v)
            assert gkey(out) == want


def test_set_complementation_equals_sequential_single_steps():
    rng = random.Random(17)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 16), density=rng.uniform(0.05, 0.6))
        ind = random_independent_set(rng, g, cap=rng.randrange(1, 8))
        out = g
        for v in ind:
            out = local_complement(out, v)
        assert gkey(local_complement_set(g, ind)) == gkey(out)


def test_set_complementation_scales_linearly():
    def work(n):
        rng = random.Random(31)
        g = random_max_degree_graph(rng, n, max_deg=4)
        ind, blocked = [], set()
        for v in rng.sample(range(n), n // 8):
            if v not in blocked:
                ind.append(v)
                blocked.update(g.adj[v], (v,))
        return trace_events(local_complement_set, g, ind)

    small, big = work(2000), work(4000)
    assert big / small <= 2.5, (small, big)


def test_dependent_sets_are_rejected_with_the_offending_edge():
    g = Graph(range(4), [(1, 2)])
    with pytest.raises(IndependenceError) as info:
        local_complement_set(g, [1, 2, 3])
    assert info.value.edge == (1, 2)
    assert info.value.stage is None


def test_set_complementation_rejects_unknown_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        local_complement_set(Graph(range(3), []), [0, 7])


# ---------------------------------------------------------------------------
# depth-k vertex minors
# ---------------------------------------------------------------------------


def test_trivial_single_step_is_the_identity():
    g = Graph(range(5), [(0, 1), (1, 2)])
    out = depth_k_vertex_minor(g, [VmStep((), ())], k=1)
    assert gkey(out) == gkey(g)


def test_five_cycle_complement_then_delete_gives_a_four_cycle():
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    out = depth_k_vertex_minor(c5, [VmStep((0,), (0,))], k=1)
    assert out.vertices == (1, 2, 3, 4)
    assert out.edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_depth_one_matches_set_complementation_plus_deletion():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 10))
        ind = random_independent_set(rng, g, cap=3)
        doomed = [v for v in g.vertices if rng.random() < 0.3]
        got = depth_k_vertex_minor(g, [VmStep(tuple(ind), tuple(doomed))])
        want = local_complement_set(g, ind).induced(set(g.vertices) - set(doomed))
        assert gkey(got) == gkey(want)


def random_steps(rng, g, depth):
    """Stage-valid steps: each set independent in its intermediate graph."""
    steps = []
    current = g
    for stage in range(depth):
        ind = random_independent_set(rng, current, cap=3)
        steps.append(VmStep(tuple(ind)))
        current = local_complement_set(current, ind)
    doomed = tuple(v for v in g.vertices if rng.random() < 0.25)
    steps[-1] = VmStep(steps[-1].complement, doomed)
    return steps


def test_depth_k_composes_as_depth_one_of_depth_k_minus_one():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(3, 10))
        depth = rng.randrange(2, 5)
        steps = random_steps(rng, g, depth)
        whole = depth_k_vertex_minor(g, steps, k=depth)
        partial = depth_k_vertex_minor(g, steps[:-1], k=depth - 1)
        finish = depth_k_vertex_minor(partial, [steps[-1]], k=1)
        assert gkey(whole) == gkey(finish)


def test_vertex_set_is_preserved_until_deletion():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 9))
        steps = random_steps(rng, g, 3)
        steps[-1] = VmStep(steps[-1].complement, ())
        out = depth_k_vertex_minor(g, steps)
        assert out.vertices == g.vertices


def test_deletion_commutes_with_complementation_outside_the_deleted_set():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 10))
        doomed = {v for v in g.vertices if rng.random() < 0.3}
        survivors = [v for v in g.vertices if v not in doomed]
        if not survivors:
            continue
        v = rng.choice(survivors)
        first = local_complement(g, v).induced(set(g.vertices) - doomed)
        second = local_complement(g.induced(set(g.vertices) - doomed), v)
        assert gkey(first) == gkey(second)


def test_stage_validation_reports_the_failing_stage():
    # complementing at 0 creates the edge (1,2), breaking {1,2} at stage 2
    g = Graph(range(3), [(0, 1), (0, 2)])
    with pytest.raises(IndependenceError) as info:
        depth_k_vertex_minor(g, [VmStep((0,)), VmStep((1, 2))])
    assert info.value.stage == 2
    assert info.value.edge == (1, 2)
    # the same set is fine as stage 1
    depth_k_vertex_minor(g, [VmStep((1, 2))])


def test_intermediate_deletions_are_rejected():
    g = Graph(range(3), [(0, 1)])
    with pytest.raises(ValueError, match="only the final step"):
        depth_k_vertex_minor(g, [VmStep((), (2,)), VmStep(())])


def test_step_count_must_match_the_declared_depth():
    g = Graph(range(3), [])
    with pytest.raises(ValueError, match="expected 2 steps"):
        depth_k_vertex_minor(g, [VmStep(())], k=2)


def test_deleting_unknown_vertices_is_rejected():
    g = Graph(range(3), [])
    with pytest.raises(ValueError, match="unknown vertex"):
        depth_k_vertex_minor(g, [VmStep((), (9,))])


def test_step_normalization_sorts_and_dedupes():
    step = VmStep((3, 1, 3), (2, 2))
    assert step.complement == (1, 3)
    assert step.delete == (2,)


# ---------------------------------------------------------------------------
# steps file format
# ---------------------------------------------------------------------------


def test_steps_roundtrip():
    steps = [VmStep((0, 2)), VmStep((1,)), VmStep((3,), (0, 4))]
    assert parse_steps(format_steps(steps)) == steps


def test_steps_parse_handles_comments_and_empty_sets():
    text = "# rounds\nI 0 2\nI\nS 1\n"
    assert parse_steps(text) == [VmStep((0, 2)), VmStep((), (1,))]


def test_steps_parse_with_only_a_deletion_line():
    assert parse_steps("S 1 2\n") == [VmStep((), (1, 2))]


def test_steps_parse_rejects_malformed_input():
    with pytest.raises(ValueError, match="second deletion"):
        parse_steps("I 0\nS 1\nS 2\n")
    with pytest.raises(ValueError, match="after the deletion"):
        parse_steps("S 1\nI 0\n")
    with pytest.raises(ValueError, match="I or S line"):
        parse_steps("X 1\n")
    with pytest.raises(ValueError, match="integers"):
        parse_steps("I zero\n")


def test_format_steps_rejects_intermediate_deletions():
    with pytest.raises(ValueError, match="final step"):
        format_steps([VmStep((0,), (1,)), VmStep(())])
