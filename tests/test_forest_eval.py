"""Tests for fast forest evaluation, the code-path census, and elimination."""

import itertools
import random
from collections import Counter

import pytest

from modcheck.coloring import EliminationForest
from modcheck.forest_codec import ColoredForest, forest_signature, forest_structure
from modcheck.forest_eval import (
    CASE_COUNTER,
    ForestTables,
    ModForestCounter,
    SubtreeTypeTable,
    eliminate_mod_on_forest,
    eval_forest,
    forest_counter,
    reset_case_counters,
    typed_shape_key,
)
from modcheck.logic import (
    BoolConst,
    EqAtom,
    Formula,
    MarkAtom,
    ModExists,
    Term,
    and_all,
    count_witnesses,
    eval_naive,
    free_vars,
    is_quantifier_free,
    parse_formula,
)
from modcheck.structures import Signature

from gens import random_colored_forest, random_formula, random_quantifier_free, trace_events


# ---------------------------------------------------------------------------
# fixtures and helpers
# ---------------------------------------------------------------------------


def forest_of(parents, marks=None, n_marks=2):
    """parents: dict v -> parent (v -> v for roots)."""
    sig = Signature(tuple(f"P{i}" for i in range(n_marks)))
    return ColoredForest(EliminationForest(dict(parents)), sig, marks or {})


def branching_forest():
    """One root, three children, each with two leaves (the counting golden)."""
    parents = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}
    return forest_of(parents)


def enumerate_forest_shapes(max_n, max_height):
    """All unlabeled rooted forests up to isomorphism, as parent dicts."""

    def canon(parent, n):
        kids = {v: [] for v in range(n)}
        roots = []
        for v in range(n):
            if parent[v] == v:
                roots.append(v)
            else:
                kids[parent[v]].append(v)

        def code(v):
            return tuple(sorted(code(c) for c in kids[v]))

        return tuple(sorted(code(r) for r in roots))

    seen = set()
    out = []
    for n in range(1, max_n + 1):
        for choice in itertools.product(*[range(i + 1) for i in range(n)]):
            # choice[i] == i means root, otherwise the parent index
            parent = {i: (i if choice[i] == i else choice[i]) for i in range(n)}
            if EliminationForest(parent).height > max_height:
                continue
            key = canon(parent, n)
            if key in seen:
                continue
            seen.add(key)
            out.append(parent)
    return out


# ---------------------------------------------------------------------------
# subtree type codes and closure keys
# ---------------------------------------------------------------------------


def _iso_canon(y, v):
    return (y.letters[v], tuple(sorted(_iso_canon(y, c) for c in y.forest.children[v])))


def test_exact_codes_match_subtree_isomorphism():
    rng = random.Random(7)
    for _ in range(60):
        y = random_colored_forest(rng, rng.randint(2, 11))
        table = SubtreeTypeTable(y)
        verts = y.forest.vertices
        for u in verts:
            for v in verts:
                expected = _iso_canon(y, u) == _iso_canon(y, v)
                assert (table.code[u] == table.code[v]) == expected


def test_truncated_codes_coarsen_exact_codes():
    rng = random.Random(8)
    for _ in range(40):
        y = random_colored_forest(rng, rng.randint(2, 12))
        exact = SubtreeTypeTable(y)
        coarse = SubtreeTypeTable(y, threshold=2, modulus=2)
        for u in y.forest.vertices:
            for v in y.forest.vertices:
                if exact.code[u] == exact.code[v]:
                    assert coarse.code[u] == coarse.code[v]


def test_codes_see_marks():
    y1 = forest_of({0: 0, 1: 0}, marks={"P0": (1,)})
    y2 = forest_of({0: 0, 1: 0})
    t1, t2 = SubtreeTypeTable(y1), SubtreeTypeTable(y2)
    assert t1.code[0] != t1.code[1]
    assert t2.code[0] != t2.code[1]  # differing child multisets
    leaves = forest_of({0: 0, 1: 1})
    t3 = SubtreeTypeTable(leaves)
    assert t3.code[0] == t3.code[1]


def test_typed_shape_key_is_automorphism_invariant():
    # two sibling leaves under the same parent are swappable
    y = forest_of({0: 0, 1: 0, 2: 0})
    codes = SubtreeTypeTable(y)
    assert typed_shape_key(codes, (1,)) == typed_shape_key(codes, (2,))
    assert typed_shape_key(codes, (1,)) != typed_shape_key(codes, (0,))
    assert typed_shape_key(codes, (1, 2)) == typed_shape_key(codes, (2, 1))
    # equal root paths, but one vertex twice is not two siblings
    assert typed_shape_key(codes, (1, 1)) != typed_shape_key(codes, (1, 2))


def tree_shape_key(codes, vbar):
    """The closure of vbar as canonical nested tuples (code, labels,
    children), exact subtree codes as letters: the reference partition for
    typed_shape_key."""
    forest = codes.forest
    closure = {u for v in vbar for u in forest.path[v]}
    labels_at = {}
    for i, v in enumerate(vbar, start=1):
        labels_at.setdefault(v, []).append(i)

    def build(v):
        kids = sorted(build(c) for c in forest.children[v] if c in closure)
        return (codes.code[v], tuple(sorted(labels_at.get(v, ()))), tuple(kids))

    roots = [v for v in sorted(closure) if forest.parent[v] == v]
    return tuple(sorted(build(r) for r in roots))


def test_typed_shape_key_partitions_tuples_like_the_closure_tree():
    # marked forests, then nearly unmarked ones, where many tuples are
    # automorphic; every tuple of length 1-3, repeats allowed
    rng = random.Random(61)
    forests = [random_colored_forest(rng, rng.randint(1, 8), height=4) for _ in range(75)]
    forests += [
        random_colored_forest(rng, rng.randint(2, 8), height=3, n_marks=1, mark_prob=0.05)
        for _ in range(75)
    ]
    checked = 0
    for y in forests:
        codes = SubtreeTypeTable(y)
        for k in (1, 2, 3):
            tuples = list(itertools.product(y.forest.vertices, repeat=k))
            flat = [typed_shape_key(codes, t) for t in tuples]
            tree = [tree_shape_key(codes, t) for t in tuples]
            # equal partitions: the joint key has no more classes than either
            assert len(set(flat)) == len(set(zip(flat, tree))) == len(set(tree)), (y, k)
            checked += len(tuples)
    assert checked >= 20000


# ---------------------------------------------------------------------------
# eval_forest vs the naive evaluator
# ---------------------------------------------------------------------------


def _formula_pool(sig2, height):
    fsig = forest_signature(sig2, height)
    texts = [
        ("Emod[0,2] y . P0(y)", ()),
        ("Emod[1,3] y . (P0(y) | P1(y))", ()),
        ("E x . Emod[1,2] y . adj(x, y)", ()),
        ("Emod[0,2] y . pi(y) = x", ("x",)),
        ("A z . (P1(z) | Emod[1,2] y . (adj(z, y) & P0(y)))", ()),
        ("Emod[2,3] y . (pi(y) = pi(x) & !(y = x))", ("x",)),
    ]
    return [(parse_formula(t, fsig), fv) for t, fv in texts]


def test_eval_forest_exhaustive_small_forests():
    shapes = enumerate_forest_shapes(8, 3)
    assert len(shapes) > 150
    sig2 = Signature(("P0", "P1"))
    pool = _formula_pool(sig2, 3)
    rng = random.Random(13)
    for parents in shapes:
        n = len(parents)
        markings = []
        if n <= 4:
            # exhaustive over one mark, second mark empty
            for bits in range(2 ** n):
                markings.append({"P0": tuple(v for v in range(n) if bits >> v & 1)})
        else:
            for _ in range(2):
                markings.append(
                    {
                        "P0": tuple(v for v in range(n) if rng.random() < 0.5),
                        "P1": tuple(v for v in range(n) if rng.random() < 0.3),
                    }
                )
        for marks in markings:
            y = forest_of(parents, marks=marks)
            fs = forest_structure(y, height=3)
            for phi, fv in pool:
                if fv:
                    vals = [{v: rng.choice(y.forest.vertices) for v in fv} for _ in range(2)]
                else:
                    vals = [{}]
                for nu in vals:
                    assert eval_forest(y, phi, nu, height_bound=3) == eval_naive(fs, phi, nu)


def test_eval_forest_random_large_forests():
    rng = random.Random(17)
    sig2 = Signature(("P0", "P1"))
    for seed in range(10_000):
        n = 9 + seed % 8
        y = random_colored_forest(rng, n, height=4)
        h = y.forest.height
        fsig = forest_signature(sig2, h)
        k = seed % 3
        fv = ("v1", "v2")[:k]
        phi = random_formula(
            rng,
            fsig,
            fv,
            q_budget=1 if seed % 10 < 7 else 2,
            depth=2,
            moduli=(2, 3, 4),
            max_funcs=2,
        )
        nu = {v: rng.choice(y.forest.vertices) for v in fv}
        fast = eval_forest(y, phi, nu)
        slow = eval_naive(forest_structure(y), phi, nu)
        assert fast == slow, f"seed {seed}"


def test_eval_forest_counting_golden():
    y = forest_of({0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, marks={"P0": (1, 2, 3, 4)})
    fsig = forest_signature(y.signature, 2)
    phi = parse_formula("Emod[0,2] y . P0(y)", fsig)
    assert eval_forest(y, phi, height_bound=2) is True
    y2 = forest_of({0: 0, 1: 0, 2: 0, 3: 0}, marks={"P0": (1, 2, 3)})
    assert eval_forest(y2, phi, height_bound=2) is False


def test_eval_forest_height_bound():
    y = forest_of({0: 0, 1: 0, 2: 1, 3: 2})
    phi = parse_formula("E x . x = x", forest_signature(y.signature, 3))
    with pytest.raises(ValueError, match="height"):
        eval_forest(y, phi, height_bound=2)


def test_eval_forest_rejects_foreign_anchor():
    y = forest_of({0: 0})
    phi = parse_formula("P0(x)", forest_signature(y.signature, 1))
    with pytest.raises(ValueError, match="not a forest vertex"):
        eval_forest(y, phi, {"x": 5})


def test_eval_forest_scales_linearly():
    # a family whose truncated-type space saturates: one tree, one mark,
    # height 3; past saturation the pruned representative stops growing and
    # the linear-time type table dominates
    sig1 = Signature(("P0",))
    phi = parse_formula("Emod[1,2] y . (P0(y) & P0(pi(y)))", forest_signature(sig1, 3))

    def single_tree(rng, n):
        parent, level = {0: 0}, {0: 1}
        for v in range(1, n):
            shallow = [u for u in range(v) if level[u] < 3]
            u = rng.choice(shallow)
            parent[v] = u
            level[v] = level[u] + 1
        marks = {"P0": tuple(v for v in range(n) if rng.random() < 0.4)}
        return ColoredForest(EliminationForest(parent), sig1, marks)

    def work(n):
        y = single_tree(random.Random(23), n)
        return trace_events(eval_forest, y, phi, height_bound=3)

    small, big = work(4000), work(8000)
    assert big / small <= 2.5, (small, big)


# ---------------------------------------------------------------------------
# the code-path census
# ---------------------------------------------------------------------------


def census_at(y, body, vbar, b):
    """Residue and contributing terms of the census for Emod[.,b] w . body
    at vbar, the body parsed over y's forest vocabulary."""
    sigma = parse_formula(body, forest_signature(y.signature, y.forest.height))
    counter = forest_counter(y, sigma, b, "w")
    return counter, *counter._residue_at(tuple(vbar))


BRANCHING_BODY = "Lvl3(w) & !(pi(w) = pi(v1)) & !(pi(w) = pi(v2))"


def test_census_golden_branching_case():
    """The counting golden: 6 descending paths, 2+2 through pinned children."""
    y = branching_forest()
    for b in (3, 100):
        counter, total, terms = census_at(y, BRANCHING_BODY, (4, 6), b)
        assert total == 2
        # one witness class: the leaves two levels below the root, counted
        # as 6 paths from the root minus 2 + 2 through the pinned children
        q = (counter.codes.code[1], counter.codes.code[4])
        assert terms == [("C", 0, q, 2)]
        assert counter.down(0, q) == 6
        assert counter.down(1, q[1:]) == counter.down(2, q[1:]) == 2


def test_census_case_a_golden():
    y = forest_of({0: 0, 1: 0, 2: 2, 3: 2, 4: 4})
    # anchored at the isolated root 4; the witnesses are the leaves under 0
    # and 2, in trees the closure does not touch
    counter, total, terms = census_at(y, "Lvl2(w) & !(pi(w) = v1)", (4,), 5)
    assert total == 2
    q = (counter.codes.code[0], counter.codes.code[1])
    assert terms == [("A", q, 2)]


def test_census_case_b_golden():
    y = forest_of({0: 0, 1: 0, 2: 1})
    # the witness is forced onto the anchor's own root path
    counter, total, terms = census_at(y, "Lvl2(w) & pi(v1) = w", (2,), 2)
    assert total == 1
    assert terms == [("B", 1)]


def test_forest_tables_count_code_paths_by_brute_force():
    rng = random.Random(41)
    for _ in range(100):
        y = random_colored_forest(rng, rng.randint(1, 12), height=4, n_marks=1)
        tables = ForestTables(y)
        code, parent = tables.codes.code, y.forest.parent
        down, full = Counter(), Counter()
        for w in y.forest.vertices:
            below = (code[w],)  # codes from just under an ancestor down to w
            v = w
            while parent[v] != v:
                v = parent[v]
                down[(v, below)] += 1
                below = (code[v],) + below
            full[below] += 1
        assert tables.down == down
        assert tables.n_table == full
        for v in y.forest.vertices:
            assert tables.paths_from.get(v, []) == sorted(q for (u, q) in down if u == v)
            assert tables.codes.letters[code[v]] == y.letters[v]
        for t, qs in tables.paths_ending.items():
            assert qs == sorted(q for q in full if q[-1] == t)
        assert sum(map(len, tables.paths_ending.values())) == len(full)


def test_forest_tables_build_scales_linearly():
    """Trace events of building a base's forest from its parent map, its
    marks and its census tables, at n and 4n vertices of height 3: deriving
    levels, children or root paths beyond a constant per vertex fails."""

    def work(n):
        y = random_colored_forest(random.Random(n), n, height=3)
        parent, marks = dict(y.forest.parent), dict(y.marks)
        return trace_events(lambda: ForestTables(ColoredForest(EliminationForest(parent), y.signature, marks)))

    small, big = work(500), work(2000)
    assert big <= 4.5 * small, (small, big)


# ---------------------------------------------------------------------------
# modulo elimination on a forest
# ---------------------------------------------------------------------------


def test_engine_residue_matches_witness_count():
    rng = random.Random(43)
    for _ in range(150):
        y = random_colored_forest(rng, rng.randint(1, 10), height=4)
        h = y.forest.height
        fsig = forest_signature(y.signature, h)
        k = rng.choice((0, 1, 2))
        fv = ("v1", "v2")[:k]
        sigma = random_quantifier_free(rng, fsig, list(fv) + ["w"], depth=2, max_funcs=2)
        b = rng.choice((2, 3, 4, 5))
        counter = forest_counter(y, sigma, b, "w")
        fs = forest_structure(y)
        for _ in range(3):
            nu = {v: rng.choice(y.forest.vertices) for v in fv}
            assert counter.residue(nu) == count_witnesses(fs, sigma, "w", nu) % b


def test_counter_memoizes_residues_by_argument_shape():
    y = branching_forest()
    fs = forest_structure(y)
    sigma = parse_formula(BRANCHING_BODY, forest_signature(y.signature, y.forest.height))
    calls = []

    def accept(nu):
        calls.append(nu)
        return eval_naive(fs, sigma, nu)

    counter = ModForestCounter(ForestTables(y), 3, ("v1", "v2"), "w", accept)
    codes = counter.codes
    # (4, 6) and (5, 8) are automorphic; (4, 5) puts both entries under one child
    assert typed_shape_key(codes, (4, 6)) == typed_shape_key(codes, (5, 8))
    assert typed_shape_key(codes, (4, 5)) != typed_shape_key(codes, (4, 6))
    first = counter.residue({"v1": 4, "v2": 6})
    assert calls
    seen = len(calls)
    assert counter.residue({"v1": 5, "v2": 8}) == first
    assert len(calls) == seen  # an equal key makes no acceptance call
    counter.residue({"v1": 4, "v2": 5})
    assert len(calls) > seen  # a new shape runs the census
    for vbar in itertools.product(y.forest.vertices, repeat=2):
        nu = dict(zip(("v1", "v2"), vbar))
        assert counter.residue(nu) == forest_counter(y, sigma, 3, "w").residue(nu), vbar


def test_guards_settled_from_codes_equal_guarded_acceptance():
    """A counter with guards {v: mark} and body ς counts as forest_counter
    on marks ∧ ς, at every argument tuple and in every materialization."""
    rng = random.Random(67)
    for _ in range(100):
        y = random_colored_forest(rng, rng.randint(1, 8), height=3)
        fsig = forest_signature(y.signature, y.forest.height)
        xvars = ("v1", "v2")[: rng.choice((0, 1, 2))]
        body = random_quantifier_free(rng, fsig, list(xvars) + ["w"], depth=2, max_funcs=1)
        guards = {
            v: rng.choice(y.signature.unary_relations)
            for v in (*xvars, "w")
            if rng.random() < 0.7
        }
        b = rng.choice((2, 3))
        fs = forest_structure(y)
        guarded = ModForestCounter(
            ForestTables(y), b, xvars, "w", lambda nu: eval_naive(fs, body, nu), guards
        )
        # x = x pins forest_counter's arguments to xvars, in order
        sigma = and_all(
            [EqAtom(Term(x), Term(x)) for x in xvars]
            + [MarkAtom(mark, Term(v)) for v, mark in guards.items()]
            + [body]
        )
        plain = forest_counter(y, sigma, b, "w")
        assert plain.xvars == xvars
        for vbar in itertools.product(y.forest.vertices, repeat=len(xvars)):
            nu = dict(zip(xvars, vbar))
            assert guarded.residue(nu) == plain.residue(nu), (guards, vbar)
        for c in range(b):
            got_forest, got_zeta = guarded.materialize(c)
            want_forest, want_zeta = plain.materialize(c)
            assert repr(got_zeta) == repr(want_zeta)
            assert got_forest.signature == want_forest.signature
            assert got_forest.marks == want_forest.marks


def test_guards_name_the_counter_variables():
    y = branching_forest()
    with pytest.raises(ValueError, match="neither an argument nor the witness"):
        ModForestCounter(ForestTables(y), 2, ("v1",), "w", lambda nu: True, {"v2": "P0"})
    with pytest.raises(ValueError, match="not a mark of the forest"):
        ModForestCounter(ForestTables(y), 2, ("v1",), "w", lambda nu: True, {"w": "P9"})


def test_eliminate_extensional_contract():
    rng = random.Random(47)
    for trial in range(120):
        y = random_colored_forest(rng, rng.randint(1, 9), height=3)
        h = y.forest.height
        fsig = forest_signature(y.signature, h)
        k = rng.choice((0, 1, 1, 2))
        fv = ("v1", "v2")[:k]
        if trial % 5 == 0:
            sigma = random_formula(rng, fsig, list(fv) + ["w"], q_budget=1, depth=2, max_funcs=2)
        else:
            sigma = random_quantifier_free(rng, fsig, list(fv) + ["w"], depth=2, max_funcs=2)
        b = rng.choice((2, 3, 4))
        c = rng.randrange(b)
        y_star, zeta = eliminate_mod_on_forest(y, sigma, c, b, yvar="w")
        assert is_quantifier_free(zeta)
        assert set(free_vars(zeta)) <= {v for v in free_vars(sigma) if v != "w"}
        phi = ModExists(c, b, "w", sigma)
        fs = forest_structure(y)
        fs_star = forest_structure(y_star)
        for vbar in itertools.product(y.forest.vertices, repeat=k):
            nu = dict(zip(fv, vbar))
            assert eval_naive(fs, phi, nu) == eval_naive(fs_star, zeta, nu), (
                f"trial {trial}, vbar {vbar}"
            )


def test_eliminate_constant_false_body():
    y = branching_forest()
    for c in (0, 1):
        y_star, zeta = eliminate_mod_on_forest(y, BoolConst(False), c, 2, yvar="w")
        assert zeta == BoolConst(c == 0)


def test_eliminate_global_count_sentence():
    y = forest_of({0: 0, 1: 0, 2: 0, 3: 3, 4: 3}, marks={"P0": (1, 2, 4)})
    sigma = MarkAtom("P0", Term("w"))
    y_star, zeta = eliminate_mod_on_forest(y, sigma, 0, 3, yvar="w")
    assert zeta == BoolConst(True)  # three marked vertices, 3 = 0 mod 3
    y_star, zeta = eliminate_mod_on_forest(y, sigma, 1, 3, yvar="w")
    assert zeta == BoolConst(False)


def test_eliminate_adds_residue_marks():
    y = branching_forest()
    fsig = forest_signature(y.signature, y.forest.height)
    sigma = parse_formula("pi(pi(w)) = pi(pi(v1))", fsig)
    y_star, zeta = eliminate_mod_on_forest(y, sigma, 0, 2, yvar="w")
    names = y_star.signature.unary_relations
    assert any(n.startswith("ZCode") for n in names)
    assert any(n.startswith("ZBlue") for n in names)
    # the original vocabulary is preserved
    assert set(y.signature.unary_relations) <= set(names)


def test_eliminate_deterministic():
    rng1, rng2 = random.Random(53), random.Random(53)
    y1 = random_colored_forest(rng1, 9)
    y2 = random_colored_forest(rng2, 9)
    fsig = forest_signature(y1.signature, y1.forest.height)
    sigma = parse_formula("P0(w) | adj(w, v1)", fsig)
    a_star, a_zeta = eliminate_mod_on_forest(y1, sigma, 1, 3, yvar="w")
    b_star, b_zeta = eliminate_mod_on_forest(y2, sigma, 1, 3, yvar="w")
    assert a_zeta == b_zeta
    assert a_star.marks == b_star.marks
    assert a_star.signature == b_star.signature


def test_eliminate_height_bound():
    y = forest_of({0: 0, 1: 0, 2: 1})
    with pytest.raises(ValueError, match="height"):
        eliminate_mod_on_forest(y, BoolConst(True), 0, 2, yvar="w", height_bound=1)


def test_eliminate_closed_body_needs_yvar():
    y = branching_forest()
    with pytest.raises(ValueError, match="witness variable"):
        eliminate_mod_on_forest(y, BoolConst(True), 0, 2)


def test_case_counters_reachable_through_engine():
    reset_case_counters()
    rng = random.Random(59)
    for _ in range(30):
        y = random_colored_forest(rng, 9, height=3)
        fsig = forest_signature(y.signature, y.forest.height)
        sigma = random_quantifier_free(rng, fsig, ["v1", "w"], depth=1, max_funcs=1)
        counter = forest_counter(y, sigma, 3, "w")
        for v in y.forest.vertices:
            counter.residue({"v1": v})
    assert CASE_COUNTER["A"] > 0 and CASE_COUNTER["B"] > 0 and CASE_COUNTER["C"] > 0
