"""Tests for fast forest evaluation, pattern counting, and elimination."""

import itertools
import random

import pytest

from modcheck.coloring import EliminationForest
from modcheck.forest_codec import ColoredForest, forest_signature, forest_structure
from modcheck.forest_eval import (
    CASE_COUNTER,
    ModForestCounter,
    PatternNode,
    ResidueAnnotation,
    SubtreeTypeTable,
    TightLabeledForest,
    annotate_counts,
    count_instances_mod,
    eliminate_mod_on_forest,
    eval_forest,
    make_pattern_node,
    reset_case_counters,
    shape_at,
    typed_shape_key,
)
from modcheck.logic import (
    BoolConst,
    Formula,
    MarkAtom,
    ModExists,
    Term,
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
    """parents: dict v -> parent (v -> v for roots); levels derived."""
    level = {}

    def lvl(v, trail=()):
        if v in level:
            return level[v]
        if parents[v] == v:
            level[v] = 1
        else:
            level[v] = lvl(parents[v]) + 1
        return level[v]

    for v in parents:
        lvl(v)
    sig = Signature(tuple(f"P{i}" for i in range(n_marks)))
    return ColoredForest(EliminationForest(dict(parents), level), sig, marks or {})


def branching_forest():
    """One root, three children, each with two leaves (the counting golden)."""
    parents = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}
    return forest_of(parents)


def three_level_pattern(k_labels):
    """Root over singleton-child chains; labels on the grandchildren."""
    kids = []
    for lbl in k_labels:
        leaf = make_pattern_node((), (lbl,))
        kids.append(make_pattern_node((), (), [leaf]))
    root = make_pattern_node((), (), kids)
    return TightLabeledForest.of([root], max(k_labels))


def brute_count(y, pattern, vbar, b):
    """Independent census: test every witness by canonical shape equality."""
    hits = sum(
        1 for w in y.forest.vertices() if shape_at(y, tuple(vbar) + (w,)) == pattern
    )
    return hits % b


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
            level = {}
            for i in range(n):
                level[i] = 1 if parent[i] == i else level[parent[i]] + 1
            if max(level.values()) > max_height:
                continue
            key = canon(parent, n)
            if key in seen:
                continue
            seen.add(key)
            out.append(parent)
    return out


# ---------------------------------------------------------------------------
# subtree type codes
# ---------------------------------------------------------------------------


def _iso_canon(idx, v):
    return (idx.letter[v], tuple(sorted(_iso_canon(idx, c) for c in idx.children[v])))


def test_exact_codes_match_subtree_isomorphism():
    rng = random.Random(7)
    for _ in range(60):
        y = random_colored_forest(rng, rng.randint(2, 11))
        table = SubtreeTypeTable(y)
        idx = table.index
        verts = y.forest.vertices()
        for u in verts:
            for v in verts:
                expected = _iso_canon(idx, u) == _iso_canon(idx, v)
                assert (table.code[u] == table.code[v]) == expected


def test_truncated_codes_coarsen_exact_codes():
    rng = random.Random(8)
    for _ in range(40):
        y = random_colored_forest(rng, rng.randint(2, 12))
        exact = SubtreeTypeTable(y)
        coarse = SubtreeTypeTable(y, threshold=2, modulus=2)
        for u in y.forest.vertices():
            for v in y.forest.vertices():
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


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def test_shape_at_path_golden():
    y = forest_of({0: 0, 1: 0, 2: 1})
    shape = shape_at(y, (2,))
    leaf = make_pattern_node((), (1,))
    mid = make_pattern_node((), (), [leaf])
    root = make_pattern_node((), (), [mid])
    assert shape == TightLabeledForest.of([root], 1)
    assert shape.height == 3 and shape.size() == 3


def test_shape_at_empty_tuple():
    y = branching_forest()
    assert shape_at(y, ()) == TightLabeledForest.of([], 0)


def test_shape_at_duplicate_entries_share_a_node():
    y = forest_of({0: 0, 1: 0})
    shape = shape_at(y, (1, 1))
    node = shape.trees[0]
    assert node.labels == ()
    assert shape.trees[0].children[0].labels == (1, 2)


def test_shape_equality_matches_closure_isomorphism():
    # brute-force oracle: search for a label- and letter-preserving bijection
    def closure(y, vbar):
        out = set()
        for v in vbar:
            out.add(v)
            out.update(y.forest.strict_ancestors(v))
        return sorted(out)

    def iso_exists(y, a, b):
        ca, cb = closure(y, a), closure(y, b)
        if len(ca) != len(cb):
            return False
        idx_letter = SubtreeTypeTable(y).index.letter
        forest = y.forest
        for perm in itertools.permutations(cb):
            m = dict(zip(ca, perm))
            ok = True
            for v in ca:
                w = m[v]
                if idx_letter[v] != idx_letter[w] or forest.level[v] != forest.level[w]:
                    ok = False
                    break
                pv, pw = forest.parent[v], forest.parent[w]
                if (pv == v) != (pw == w) or (pv != v and m[pv] != pw):
                    ok = False
                    break
            if ok and all(m[a[i]] == b[i] for i in range(len(a))):
                return True
        return False

    rng = random.Random(11)
    checked = 0
    for _ in range(25):
        y = random_colored_forest(rng, rng.randint(3, 7), height=3, n_marks=1)
        verts = y.forest.vertices()
        for _ in range(12):
            k = rng.choice((1, 2))
            a = tuple(rng.choice(verts) for _ in range(k))
            b = tuple(rng.choice(verts) for _ in range(k))
            same = shape_at(y, a) == shape_at(y, b)
            assert same == iso_exists(y, a, b)
            checked += 1
    assert checked >= 250


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
    """The closure of vbar as canonical PatternNode trees, exact subtree
    codes as letters: the reference partition for typed_shape_key."""
    idx = codes.index
    forest = idx.forest
    closure = set(vbar).union(*(forest.strict_ancestors(v) for v in vbar))
    labels_at = {}
    for i, v in enumerate(vbar, start=1):
        labels_at.setdefault(v, []).append(i)

    def build(v):
        kids = [build(c) for c in idx.children[v] if c in closure]
        return make_pattern_node((codes.code[v],), labels_at.get(v, ()), kids)

    roots = [v for v in sorted(closure) if forest.parent[v] == v]
    return tuple(sorted(build(r).key() for r in roots))


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
            tuples = list(itertools.product(y.forest.vertices(), repeat=k))
            flat = [typed_shape_key(codes, t) for t in tuples]
            tree = [tree_shape_key(codes, t) for t in tuples]
            # equal partitions: the joint key has no more classes than either
            assert len(set(flat)) == len(set(zip(flat, tree))) == len(set(tree)), (y, k)
            checked += len(tuples)
    assert checked >= 20000


def test_pattern_validation():
    with pytest.raises(ValueError, match="not tight"):
        TightLabeledForest.of([make_pattern_node((), (), [make_pattern_node((), ())])], 0)
    with pytest.raises(ValueError, match="labels"):
        TightLabeledForest.of([make_pattern_node((), (1, 1))], 2)
    p = three_level_pattern((1, 2, 3))
    assert p.restrict_labels(2).size() == 5
    assert p.label_path(3)[-1].labels == (3,)


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
                    vals = [{v: rng.choice(y.forest.vertices()) for v in fv} for _ in range(2)]
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
        nu = {v: rng.choice(y.forest.vertices()) for v in fv}
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
        return ColoredForest(EliminationForest(parent, level), sig1, marks)

    def work(n):
        y = single_tree(random.Random(23), n)
        return trace_events(eval_forest, y, phi, height_bound=3)

    small, big = work(4000), work(8000)
    assert big / small <= 2.5, (small, big)


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def path_pattern(letters, label_at_end=1):
    node = make_pattern_node(letters[-1], (label_at_end,))
    for letter in reversed(letters[:-1]):
        node = make_pattern_node(letter, (), [node])
    return TightLabeledForest.of([node], label_at_end)


def test_annotation_golden_branching():
    y = branching_forest()
    f1 = path_pattern([(), (), ()])
    ann = annotate_counts(y, f1, 7)
    assert ann.blue[0] == 6
    assert ann.green[1] == 2 and ann.green[2] == 2 and ann.green[3] == 2
    assert ann.blue[1] == 0  # a depth-2 vertex has no grandchildren
    assert ann.b_index[0] == 6
    assert ann.total == 6


def test_annotation_single_vertex_pattern():
    y = forest_of({0: 0, 1: 0, 2: 0, 3: 3, 4: 3}, marks={"P0": (1, 2, 4)})
    f1 = TightLabeledForest.of([make_pattern_node(("P0",), (1,))], 1)
    ann = annotate_counts(y, f1, 5)
    assert ann.b_index[0] == 2  # two marked vertices in the first tree
    assert ann.b_index[3] == 1
    assert ann.total == 3


def test_annotation_total_matches_b_marks():
    rng = random.Random(29)
    for _ in range(80):
        y = random_colored_forest(rng, rng.randint(1, 12))
        letters = [(), ("P0",), ("P1",), ("P0", "P1")]
        f1 = path_pattern([rng.choice(letters) for _ in range(rng.randint(1, 3))])
        b = rng.choice((2, 3, 4, 7))
        ann = annotate_counts(y, f1, b)
        assert ann.total == sum(ann.b_index.values()) % b
        assert all(0 <= x < b for x in ann.blue.values())


def brute_embeddings(idx, v, node):
    """Injective letter-preserving embeddings, counted by explicit search."""
    if idx.letter[v] != node.letter:
        return 0
    if not node.children:
        return 1
    total = 0
    kids = idx.children[v]
    for images in itertools.permutations(kids, len(node.children)):
        prod = 1
        for child_node, image in zip(node.children, images):
            prod *= brute_embeddings(idx, image, child_node)
            if prod == 0:
                break
        total += prod
    return total


def test_annotation_blue_green_against_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        y = random_colored_forest(rng, rng.randint(1, 9), height=3, n_marks=1)
        letters = [(), ("P0",)]
        depth = rng.randint(1, 3)
        f1 = path_pattern([rng.choice(letters) for _ in range(depth)])
        b = 97  # large modulus: residues equal the raw counts here
        ann = annotate_counts(y, f1, b)
        idx = SubtreeTypeTable(y).index
        root = f1.trees[0]
        for v in y.forest.vertices():
            assert ann.blue[v] == brute_embeddings(idx, v, root) % b
            if len(root.children) == 1:
                assert ann.green[v] == brute_embeddings(idx, v, root.children[0]) % b


def test_annotation_branching_pattern_against_brute_force():
    rng = random.Random(37)
    leaf_a = make_pattern_node((), (2,))
    leaf_b = make_pattern_node(("P0",), (1,))
    f1 = TightLabeledForest.of([make_pattern_node((), (), [leaf_a, leaf_b])], 2)
    for _ in range(40):
        y = random_colored_forest(rng, rng.randint(2, 9), height=3, n_marks=1)
        ann = annotate_counts(y, f1, 97)
        idx = SubtreeTypeTable(y).index
        for v in y.forest.vertices():
            assert ann.blue[v] == brute_embeddings(idx, v, f1.trees[0]) % 97
        assert set(ann.green.values()) == {0}  # multi-child root: no green counts


def test_annotation_iso_relabeling_invariance():
    y = forest_of({0: 0, 1: 0, 2: 0, 3: 1}, marks={"P0": (3,)})
    # same forest with ids permuted
    y2 = forest_of({5: 5, 4: 5, 2: 5, 0: 4}, marks={"P0": (0,)})
    f1 = path_pattern([(), ()])
    a1 = annotate_counts(y, f1, 5)
    a2 = annotate_counts(y2, f1, 5)
    relabel = {0: 5, 1: 4, 2: 2, 3: 0}
    for v, w in relabel.items():
        assert a1.blue[v] == a2.blue[w]
        assert a1.green[v] == a2.green[w]
    assert a1.total == a2.total


def test_annotation_rejects_bad_input():
    y = branching_forest()
    two_trees = TightLabeledForest.of(
        [make_pattern_node((), (1,)), make_pattern_node((), (2,))], 2
    )
    with pytest.raises(ValueError, match="single tree"):
        annotate_counts(y, two_trees, 3)
    with pytest.raises(ValueError, match="modulus"):
        annotate_counts(y, path_pattern([()]), 0)


# ---------------------------------------------------------------------------
# the three-case census
# ---------------------------------------------------------------------------


def test_census_golden_branching_case():
    """The counting golden: 6 descending paths, 2+2 through pinned children."""
    y = branching_forest()
    pattern = three_level_pattern((1, 2, 3))
    reset_case_counters()
    assert count_instances_mod(y, pattern, (4, 6), 3) == 2
    assert CASE_COUNTER["C"] == 1
    # the raw difference 6 - (2 + 2) = 2 is visible with a large modulus
    assert count_instances_mod(y, pattern, (4, 6), 100) == 2
    ann = annotate_counts(y, path_pattern([(), (), ()]), 100)
    assert ann.blue[0] - (ann.green[1] + ann.green[2]) == 2


def test_census_case_a_golden():
    y = forest_of({0: 0, 1: 0, 2: 2, 3: 2, 4: 4})
    # witness tree untouched by the anchor: count trees that are bare 2-paths
    pattern = TightLabeledForest.of(
        [
            make_pattern_node((), (1,)),
            make_pattern_node((), (), [make_pattern_node((), (2,))]),
        ],
        2,
    )
    reset_case_counters()
    # anchored at the isolated root 4; matching witnesses live under 0 and 2
    assert count_instances_mod(y, pattern, (4,), 5) == 2
    assert CASE_COUNTER["A"] == 1


def test_census_case_b_golden():
    y = forest_of({0: 0, 1: 0, 2: 1})
    # both labels on the same root path: the witness position is forced
    leaf = make_pattern_node((), (1,))
    mid = make_pattern_node((), (2,), [leaf])
    pattern = TightLabeledForest.of([make_pattern_node((), (), [mid])], 2)
    reset_case_counters()
    assert count_instances_mod(y, pattern, (2,), 2) == 1
    assert CASE_COUNTER["B"] == 1
    # a pattern whose closure shape does not match yields zero
    off = TightLabeledForest.of(
        [make_pattern_node((), (2,), [make_pattern_node((), (1,))])], 2
    )
    assert count_instances_mod(y, off, (2,), 2) == 0


def test_census_matches_brute_force():
    rng = random.Random(41)
    checked_cases = set()
    for trial in range(400):
        y = random_colored_forest(rng, rng.randint(2, 12), height=4, n_marks=1)
        verts = y.forest.vertices()
        k = rng.choice((0, 1, 1, 2))
        vbar = tuple(rng.choice(verts) for _ in range(k))
        w0 = rng.choice(verts)
        pattern = shape_at(y, vbar + (w0,))
        b = rng.choice((2, 3, 4))
        reset_case_counters()
        got = count_instances_mod(y, pattern, vbar, b)
        assert got == brute_count(y, pattern, vbar, b), f"trial {trial}"
        checked_cases.update(k for k, v in CASE_COUNTER.items() if v)
    assert checked_cases == {"A", "B", "C"}


def test_census_zero_on_mismatched_closure():
    y = branching_forest()
    pattern = three_level_pattern((1, 2, 3))
    # anchors on two leaves under the SAME child: closure shape differs
    assert count_instances_mod(y, pattern, (4, 5), 3) == 0


def test_census_label_count_validation():
    y = branching_forest()
    pattern = three_level_pattern((1, 2, 3))
    with pytest.raises(ValueError, match="labels"):
        count_instances_mod(y, pattern, (4,), 3)


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
        counter = ModForestCounter(y, sigma, b, yvar="w")
        fs = forest_structure(y)
        for _ in range(3):
            nu = {v: rng.choice(y.forest.vertices()) for v in fv}
            assert counter.residue(nu) == count_witnesses(fs, sigma, "w", nu) % b


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
        for vbar in itertools.product(y.forest.vertices(), repeat=k):
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
        counter = ModForestCounter(y, sigma, 3, yvar="w")
        for v in y.forest.vertices():
            counter.residue({"v1": v})
    assert CASE_COUNTER["A"] > 0 and CASE_COUNTER["B"] > 0 and CASE_COUNTER["C"] > 0
