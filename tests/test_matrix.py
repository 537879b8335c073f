"""Tests for the sparse matrix calculus with set-rank constants."""

import functools
import itertools
import logging
import random

import numpy as np
import pytest

from modcheck.elimination import eval_pipeline
from modcheck.logic import parse_formula
from modcheck.matrix import (
    Add,
    AllOnes,
    Hadamard,
    Ident,
    InputRef,
    Lit,
    MatrixFormatError,
    MatrixHandle,
    Mul,
    Scalar,
    SetRankConst,
    SparseFieldMatrix,
    Transpose,
    all_ones_matrix,
    build_marking,
    check_field,
    eval_expr,
    format_matrix,
    identity_matrix,
    parse_expr,
    parse_matrix,
    rank_F2,
    rank_Fp,
    slice_matrix,
    srank,
    support_degeneracy,
)
from modcheck.structures import GuidedStructure, Signature

from gens import random_max_degree_graph, trace_events


def dense(m: SparseFieldMatrix) -> np.ndarray:
    out = np.zeros((m.n, m.n), dtype=np.int64)
    for (i, j), v in m.entries.items():
        out[i, j] = v
    return out


def random_matrix(rng, p, n, density=0.4) -> SparseFieldMatrix:
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = rng.randrange(1, p)
    return SparseFieldMatrix(p, n, entries)


def random_low_srank_matrix(rng, p, n, rects=2) -> SparseFieldMatrix:
    """Union of value-labeled combinatorial rectangles (later rectangles win)."""
    entries = {}
    for _ in range(rects):
        d = rng.randrange(1, p)
        rows = [i for i in range(n) if rng.random() < 0.5]
        cols = [j for j in range(n) if rng.random() < 0.5]
        for i in rows:
            for j in cols:
                entries[(i, j)] = d
    return SparseFieldMatrix(p, n, entries)


# ---------------------------------------------------------------------------
# fields and storage
# ---------------------------------------------------------------------------


def test_check_field_accepts_primes_up_to_the_cap():
    for p in (2, 3, 5, 7, 251, 257):
        check_field(p)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 258, 263, 259])
def test_check_field_rejects_composites_units_and_oversize(bad):
    with pytest.raises(ValueError):
        check_field(bad)


def test_entries_are_normalized_modulo_p_and_zeros_dropped():
    m = SparseFieldMatrix(5, 3, {(0, 0): 7, (1, 2): 10, (2, 1): -1})
    assert m.entries == {(0, 0): 2, (2, 1): 4}
    assert m.entry(1, 2) == 0
    assert m.nnz == 2
    assert m.domain() == (2, 4)


def test_out_of_range_indices_are_rejected():
    with pytest.raises(ValueError):
        SparseFieldMatrix(3, 2, {(0, 2): 1})
    with pytest.raises(ValueError):
        SparseFieldMatrix(3, 2, {(-1, 0): 1})
    m = SparseFieldMatrix(3, 2, {})
    with pytest.raises(ValueError):
        m.entry(2, 0)


def test_transpose_is_an_involution():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 5, 6)
        assert m.transpose().transpose() == m
        assert np.array_equal(dense(m.transpose()), dense(m).T)


def test_slices_are_disjoint_indicators_that_rebuild_the_matrix():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(10):
            m = random_matrix(rng, p, 7)
            total = np.zeros((7, 7), dtype=np.int64)
            seen = np.zeros((7, 7), dtype=np.int64)
            for d in m.domain():
                sl = dense(slice_matrix(m, d))
                assert set(np.unique(sl)) <= {0, 1}
                assert np.all(seen + sl <= 1), "slices overlap"
                seen += sl
                total += d * sl
            assert np.array_equal(total % p, dense(m))


def test_slice_of_zero_is_rejected():
    m = SparseFieldMatrix(3, 2, {(0, 0): 1})
    with pytest.raises(ValueError):
        slice_matrix(m, 0)
    with pytest.raises(ValueError):
        slice_matrix(m, 3)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def brute_rank_F2(m: SparseFieldMatrix) -> int:
    """Span size of the indicator rows over F_2 (independent oracle)."""
    rows = [0] * m.n
    for (i, j) in m.entries:
        rows[i] |= 1 << j
    span = {0}
    for row in rows:
        span |= {row ^ s for s in span}
    return len(span).bit_length() - 1


def dense_rank_Fp(m: SparseFieldMatrix) -> int:
    """Dense Gaussian elimination over F_p (independent oracle)."""
    a = dense(m) % m.p
    p, n = m.p, m.n
    rank = 0
    col = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r, col] % p), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        for r in range(n):
            if r != rank and a[r, col] % p:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
    return rank


def test_rank_F2_matches_the_span_oracle():
    rng = random.Random(19)
    for _ in range(60):
        m = random_matrix(rng, 2, rng.randrange(1, 9), density=rng.uniform(0.1, 0.8))
        assert rank_F2(m) == brute_rank_F2(m)


def test_rank_F2_goldens():
    assert rank_F2(identity_matrix(2, 5)) == 5
    assert rank_F2(all_ones_matrix(2, 5)) == 1
    assert rank_F2(SparseFieldMatrix(2, 4, {})) == 0


def test_rank_F2_reads_nonzero_positions_not_values():
    # over F_5 the indicator of {1,2,3,4} entries is what gets ranked
    m = SparseFieldMatrix(5, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
    assert rank_F2(m) == 1  # both indicator rows are 11


def test_rank_Fp_matches_dense_elimination():
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            m = random_matrix(rng, p, rng.randrange(1, 8), density=rng.uniform(0.1, 0.9))
            assert rank_Fp(m) == dense_rank_Fp(m)


def test_rank_Fp_goldens():
    assert rank_Fp(identity_matrix(7, 4)) == 4
    assert rank_Fp(all_ones_matrix(7, 4)) == 1
    # rows (1,2) and (2,4) are dependent over F_7
    m = SparseFieldMatrix(7, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank_Fp(m) == 1


def test_srank_goldens():
    assert srank(all_ones_matrix(3, 6)) == 1
    assert srank(identity_matrix(3, 6)) == 6
    assert srank(SparseFieldMatrix(3, 6, {})) == 0
    # two values, each slice of rank one
    m = SparseFieldMatrix(3, 4, {(i, j): 1 for i in (0, 1) for j in (0, 1)})
    m = SparseFieldMatrix(3, 4, {**m.entries, **{(i, j): 2 for i in (2, 3) for j in (2, 3)}})
    assert srank(m) == 2


def test_srank_is_transpose_invariant():
    rng = random.Random(29)
    for _ in range(20):
        m = random_matrix(rng, 5, 6)
        assert srank(m) == srank(m.transpose())


def test_rank_srank_sandwich():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(40):
            m = random_matrix(rng, p, rng.randrange(1, 9), density=rng.uniform(0.1, 0.9))
            r, s = rank_Fp(m), srank(m)
            assert r <= s <= p * r or (r == 0 and s == 0)


# ---------------------------------------------------------------------------
# markings
# ---------------------------------------------------------------------------


def test_marking_reconstructs_every_entry():
    rng = random.Random(37)
    done = 0
    while done < 40:
        p = rng.choice((2, 3, 5))
        n = rng.randrange(2, 13)
        m = random_low_srank_matrix(rng, p, n, rects=rng.randrange(1, 4))
        s = srank(m)
        if s > 6:
            continue
        done += 1
        marked = build_marking(m, s)
        for i in range(n):
            for j in range(n):
                assert marked.entry(i, j) == m.entry(i, j)
                for d in m.domain():
                    assert marked.query(d, i, j) == (m.entry(i, j) == d)


def test_marking_budget_is_enforced():
    m = identity_matrix(2, 5)  # srank 5
    with pytest.raises(ValueError):
        build_marking(m, 4)
    build_marking(m, 5)  # exactly at budget


def test_marking_of_the_zero_matrix_is_empty():
    marked = build_marking(SparseFieldMatrix(3, 4, {}), 0)
    assert marked.domain() == ()
    assert marked.entry(1, 2) == 0


def test_marking_of_all_ones_uses_a_single_class():
    marked = build_marking(all_ones_matrix(2, 6), 1)
    assert marked.domain() == (1,)
    assert len(marked.basis[1]) == 1
    w = marked.row_marks(1)
    assert list(w.values()) == [tuple(range(6))]
    (ls,) = w
    assert marked.col_sets[1][ls] == frozenset(range(6))


def test_each_row_carries_at_most_one_mark_per_value():
    rng = random.Random(41)
    for _ in range(10):
        m = random_low_srank_matrix(rng, 3, 8, rects=2)
        marked = build_marking(m, srank(m))
        for d in marked.domain():
            seen = {}
            for ls, rowset in marked.row_marks(d).items():
                for i in rowset:
                    assert i not in seen
                    seen[i] = ls


def test_zero_rows_of_a_slice_carry_no_mark():
    m = SparseFieldMatrix(2, 4, {(0, 1): 1, (0, 2): 1})
    marked = build_marking(m, 1)
    assert set(marked.row_class[1]) == {0}
    assert all(not marked.query(1, i, j) for i in (1, 2, 3) for j in range(4))


# ---------------------------------------------------------------------------
# expression evaluation vs a dense oracle
# ---------------------------------------------------------------------------


def oracle_eval(expr, inputs, p, n):
    """Mirror semantics with numpy dense arrays."""
    if isinstance(expr, InputRef):
        return ("m", dense(inputs[expr.name]) % p)
    if isinstance(expr, Ident):
        return ("m", np.eye(n, dtype=np.int64))
    if isinstance(expr, AllOnes):
        return ("m", np.ones((n, n), dtype=np.int64))
    if isinstance(expr, Lit):
        return ("s", expr.value % p)
    if isinstance(expr, SetRankConst):
        out = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                out[i, j] = expr.matrix.entry(i, j)
        return ("m", out)
    if isinstance(expr, Scalar):
        kind, v = oracle_eval(expr.sub, inputs, p, n)
        return (kind, (expr.value * v) % p)
    if isinstance(expr, Transpose):
        kind, v = oracle_eval(expr.sub, inputs, p, n)
        assert kind == "m"
        return ("m", v.T % p)
    a_kind, a = oracle_eval(expr.left, inputs, p, n)
    b_kind, b = oracle_eval(expr.right, inputs, p, n)
    if isinstance(expr, Add):
        assert a_kind == b_kind
        return (a_kind, (a + b) % p)
    if isinstance(expr, Mul):
        if a_kind == "s" or b_kind == "s":
            return ("m" if "m" in (a_kind, b_kind) else "s", (a * b) % p)
        return ("m", (a @ b) % p)
    if isinstance(expr, Hadamard):
        assert a_kind == b_kind == "m"
        return ("m", (a * b) % p)
    raise TypeError(type(expr))


def random_expr(rng, p, n, names, srconsts, depth, want="m"):
    if depth == 0 or rng.random() < 0.25:
        if want == "s":
            return Lit(rng.randrange(p))
        leaf = rng.randrange(4)
        if leaf == 0:
            return InputRef(rng.choice(names))
        if leaf == 1:
            return Ident()
        if leaf == 2:
            return AllOnes()
        return SetRankConst(rng.choice(srconsts))
    if want == "s":
        op = rng.choice((Add, Mul))
        return op(
            random_expr(rng, p, n, names, srconsts, depth - 1, "s"),
            random_expr(rng, p, n, names, srconsts, depth - 1, "s"),
        )
    op = rng.randrange(7)
    rec = lambda w="m": random_expr(rng, p, n, names, srconsts, depth - 1, w)
    if op == 0:
        return Add(rec(), rec())
    if op == 1:
        return Mul(rec(), rec())
    if op == 2:
        return Mul(rec("s"), rec())
    if op == 3:
        return Mul(rec(), rec("s"))
    if op == 4:
        return Hadamard(rec(), rec())
    if op == 5:
        return Transpose(rec())
    return Scalar(rng.randrange(p), rec())


def test_random_expressions_match_the_dense_oracle():
    rng = random.Random(43)
    for trial in range(120):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(2, 13)
        inputs = {name: random_matrix(rng, p, n) for name in ("A", "B", "C")}
        srconsts = []
        while len(srconsts) < 2:
            cand = random_low_srank_matrix(rng, p, n)
            if srank(cand) <= 6:
                srconsts.append(build_marking(cand, srank(cand)))
        expr = random_expr(rng, p, n, ("A", "B", "C"), srconsts, depth=4)
        handle = eval_expr(expr, inputs)
        kind, want = oracle_eval(expr, inputs, p, n)
        assert kind == "m"
        assert np.array_equal(dense(handle.materialize()), want % p)
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            assert handle.entry(i, j) == want[i, j] % p


def test_expression_goldens():
    p, n = 3, 4
    a = SparseFieldMatrix(p, n, {(0, 1): 1, (1, 2): 2, (3, 3): 2})
    inputs = {"A": a}
    assert eval_expr(parse_expr("I"), inputs).materialize() == identity_matrix(p, n)
    assert eval_expr(parse_expr("J"), inputs).materialize() == all_ones_matrix(p, n)
    assert eval_expr(parse_expr("A"), inputs).materialize() == a
    assert eval_expr(parse_expr("t(A)"), inputs).materialize() == a.transpose()
    two_a = eval_expr(parse_expr("A + A"), inputs).materialize()
    assert np.array_equal(dense(two_a), (2 * dense(a)) % p)
    assert eval_expr(parse_expr("2 * A"), inputs).materialize() == two_a
    jj = eval_expr(parse_expr("J * J"), inputs)
    assert np.array_equal(dense(jj.materialize()), (n * np.ones((n, n), dtype=int)) % p)


def test_products_with_the_ones_constant_stay_low_rank():
    rng = random.Random(47)
    a = random_matrix(rng, 5, 20)
    handle = eval_expr(parse_expr("A * J"), {"A": a})
    assert handle.kind == "lowrank"
    assert np.array_equal(
        dense(handle.materialize()), (dense(a) @ np.ones((20, 20), dtype=int)) % 5
    )
    both = eval_expr(parse_expr("J * A * J"), {"A": a})
    assert both.kind == "lowrank"


def test_set_rank_constants_stay_low_rank_in_products():
    rng = random.Random(53)
    m = random_low_srank_matrix(rng, 3, 16)
    marked = build_marking(m, srank(m))
    a = random_matrix(rng, 3, 16)
    handle = eval_expr(Mul(InputRef("A"), SetRankConst(marked)), {"A": a})
    assert handle.kind == "lowrank"
    assert np.array_equal(
        dense(handle.materialize()), (dense(a) @ dense(m)) % 3
    )


def test_long_low_rank_sums_materialize_past_the_term_cap():
    expr = functools.reduce(Add, [AllOnes()] * 70)
    handle = eval_expr(expr, p=3, n=4)
    assert handle.kind == "sparse"
    assert np.array_equal(dense(handle.materialize()), (70 % 3) * np.ones((4, 4), dtype=int))


def test_transpose_of_a_product_reverses_factors():
    rng = random.Random(59)
    a, b = random_matrix(rng, 5, 8), random_matrix(rng, 5, 8)
    inputs = {"A": a, "B": b}
    lhs = eval_expr(parse_expr("t(A * B)"), inputs).materialize()
    rhs = eval_expr(parse_expr("t(B) * t(A)"), inputs).materialize()
    assert lhs == rhs


def test_hadamard_is_commutative():
    rng = random.Random(61)
    a, b = random_matrix(rng, 3, 7), random_matrix(rng, 3, 7)
    inputs = {"A": a, "B": b}
    assert (
        eval_expr(parse_expr("A o B"), inputs).materialize()
        == eval_expr(parse_expr("B o A"), inputs).materialize()
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parser_precedence_product_binds_tighter_than_sum():
    assert parse_expr("A + B * C") == Add(
        InputRef("A"), Mul(InputRef("B"), InputRef("C"))
    )
    assert parse_expr("(A + B) * C") == Mul(
        Add(InputRef("A"), InputRef("B")), InputRef("C")
    )


def test_parser_grammar_cases():
    assert parse_expr("t(A)") == Transpose(InputRef("A"))
    assert parse_expr("A o B") == Hadamard(InputRef("A"), InputRef("B"))
    assert parse_expr("2 * J + I") == Add(Mul(Lit(2), AllOnes()), Ident())
    assert parse_expr("t(t(A))") == Transpose(Transpose(InputRef("A")))
    assert parse_expr("A * B o C") == Hadamard(Mul(InputRef("A"), InputRef("B")), InputRef("C"))


def test_parser_names_can_shadow_nothing_reserved():
    assert parse_expr("alpha_1 * beta") == Mul(InputRef("alpha_1"), InputRef("beta"))


@pytest.mark.parametrize(
    "bad",
    ["", "A +", "t A", "A )", "( A", "A $ B", "* A", "A B", "t(A", "A + + B"],
)
def test_parser_rejects_malformed_expressions(bad):
    with pytest.raises(MatrixFormatError):
        parse_expr(bad)


# ---------------------------------------------------------------------------
# evaluation errors and warnings
# ---------------------------------------------------------------------------


def test_scalar_valued_expressions_are_rejected():
    with pytest.raises(ValueError, match="scalar"):
        eval_expr(parse_expr("2"), p=3, n=4)
    with pytest.raises(ValueError, match="scalar"):
        eval_expr(parse_expr("2 * 3"), p=3, n=4)


def test_scalar_matrix_type_errors():
    a = identity_matrix(3, 4)
    with pytest.raises(ValueError):
        eval_expr(parse_expr("2 + A"), {"A": a})
    with pytest.raises(ValueError):
        eval_expr(parse_expr("2 o A"), {"A": a})
    with pytest.raises(ValueError):
        eval_expr(parse_expr("t(2)"), {"A": a})


def test_unknown_inputs_and_mismatches_are_rejected():
    a = identity_matrix(3, 4)
    with pytest.raises(ValueError, match="unknown input"):
        eval_expr(parse_expr("Z"), {"A": a})
    with pytest.raises(ValueError, match="field mismatch"):
        eval_expr(parse_expr("A + B"), {"A": a, "B": identity_matrix(5, 4)})
    with pytest.raises(ValueError, match="dimension mismatch"):
        eval_expr(parse_expr("A + B"), {"A": a, "B": identity_matrix(3, 5)})
    with pytest.raises(ValueError, match="must be given"):
        eval_expr(parse_expr("J"))
    marked = build_marking(all_ones_matrix(2, 3), 1)
    with pytest.raises(ValueError, match="set-rank constant"):
        eval_expr(Add(InputRef("A"), SetRankConst(marked)), {"A": a})


def test_dense_support_triggers_the_degeneracy_warning(caplog):
    a = all_ones_matrix(3, 12)
    with caplog.at_level(logging.WARNING, logger="modcheck.matrix"):
        eval_expr(parse_expr("A"), {"A": a})
    assert any("degeneracy" in rec.message for rec in caplog.records)


def test_sparse_support_stays_quiet(caplog):
    a = identity_matrix(3, 12)
    with caplog.at_level(logging.WARNING, logger="modcheck.matrix"):
        eval_expr(parse_expr("A"), {"A": a})
    assert not caplog.records


def test_support_degeneracy_goldens():
    star = SparseFieldMatrix(2, 6, {(0, j): 1 for j in range(1, 6)})
    assert support_degeneracy(star) == 1
    clique = SparseFieldMatrix(2, 5, {(i, j): 1 for i in range(5) for j in range(5) if i != j})
    assert support_degeneracy(clique) == 4
    assert support_degeneracy(SparseFieldMatrix(2, 5, {})) == 0
    diag = identity_matrix(2, 5)
    assert support_degeneracy(diag) == 0


def min_peel_degeneracy(m: SparseFieldMatrix) -> int:
    """The quadratic smallest-last peel: a min over the live vertices per step."""
    adj = {}
    for (i, j) in m.entries:
        if i != j:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
    deg = {v: len(ns) for v, ns in adj.items()}
    out = 0
    live = dict(adj)
    while live:
        v = min(live, key=lambda x: (deg[x], x))
        out = max(out, deg[v])
        for w in live[v]:
            live[w].discard(v)
            deg[w] -= 1
        del live[v]
    return out


def test_support_degeneracy_matches_the_min_peel():
    rng = random.Random(71)
    cases = [SparseFieldMatrix(3, 7, {}), identity_matrix(5, 9)]
    for _ in range(200):
        n = rng.randrange(1, 40)
        cases.append(random_matrix(rng, rng.choice((2, 3, 257)), n, rng.uniform(0.0, 0.5)))
    for m in cases:
        assert support_degeneracy(m) == min_peel_degeneracy(m)


def test_support_degeneracy_scales_linearly():
    def work(n):
        g = random_max_degree_graph(random.Random(29), n, max_deg=4)
        m = SparseFieldMatrix(2, n, {e: 1 for e in g.edges()})
        return trace_events(support_degeneracy, m)

    small, big = work(2000), work(4000)
    assert big / small <= 2.5, (small, big)


def assert_computed(m: SparseFieldMatrix, p: int, n: int) -> None:
    """The invariant of computed results: nonzero values below p, in range."""
    assert (m.p, m.n) == (p, n)
    for (i, j), v in m.entries.items():
        assert 0 <= i < n and 0 <= j < n, (i, j)
        assert 1 <= v < p, v


def test_computed_results_hold_reduced_nonzero_in_range_entries():
    rng = random.Random(73)
    fixed = ("A * J + J * B", "t(A * J) + 3 * B", "A o B + 2 * A", "A * B + t(A)")
    for trial in range(80):
        p = rng.choice((2, 3, 5, 257))
        n = rng.randrange(2, 12)
        inputs = {name: random_matrix(rng, p, n) for name in ("A", "B", "C")}
        srconsts = []
        while len(srconsts) < 2:
            cand = random_low_srank_matrix(rng, p, n, rects=3)
            if srank(cand) <= 6:
                srconsts.append(build_marking(cand, srank(cand)))
        exprs = [
            parse_expr(fixed[trial % len(fixed)]),
            random_expr(rng, p, n, ("A", "B", "C"), srconsts, depth=4),
            Add(Mul(SetRankConst(srconsts[0]), InputRef("A")), SetRankConst(srconsts[1])),
            Scalar(p, SetRankConst(srconsts[0])),
        ]
        for expr in exprs:
            assert_computed(eval_expr(expr, inputs).materialize(), p, n)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_matrix_file_roundtrip():
    rng = random.Random(67)
    for _ in range(15):
        m = random_matrix(rng, rng.choice((2, 3, 5, 7)), rng.randrange(1, 9))
        assert parse_matrix(format_matrix(m)) == m


def test_matrix_format_is_deterministic_and_sorted():
    m = SparseFieldMatrix(3, 3, {(2, 1): 2, (0, 0): 1, (1, 2): 1})
    text = format_matrix(m)
    assert text == "p 3\nn 3\n0 0 1\n1 2 1\n2 1 2\n"
    assert format_matrix(parse_matrix(text)) == text


def test_matrix_parse_allows_comments_and_blank_lines():
    text = "# header\np 5\n\nn 2\n0 1 3  # an entry\n"
    m = parse_matrix(text)
    assert m == SparseFieldMatrix(5, 2, {(0, 1): 3})


# malformed file -> the line its error names
MALFORMED_MATRIX_FILES = {
    "n 2\n0 0 1\n": 2,  # entry before p
    "p 3\n0 0 1\n": 2,  # entry before n
    "p 3\nn 2\n0 0 1\n0 0 2\n": 4,  # duplicate
    "p 3\nn 2\nhello\n": 3,  # garbage
    "p 3\n": 1,  # missing n
    "p 4\nn 2\n": 1,  # composite field
    "p 3\nn 2\n0 5 1\n": 3,  # column out of range
    "p 3\nn 2\nn 3\n": 3,  # repeated n
    "p 3\nn 2\n0 0 1\np 5\n": 4,  # header after the entries
    "p three\nn 2\n": 1,  # non-integer field
    "p 3\nn 2\n1 1 1\n0 -1 1\n": 4,  # negative index
    "p 3\nn 2\n# entries\n\n0 0 1\n1 1 x  # bad value\n": 6,
}


@pytest.mark.parametrize("bad", list(MALFORMED_MATRIX_FILES))
def test_matrix_parse_rejects_malformed_files(bad):
    lineno = MALFORMED_MATRIX_FILES[bad]
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(bad)
    assert exc.value.lineno == lineno
    assert str(exc.value).startswith(f"line {lineno}: ")


def test_matrix_parse_reduces_values_like_the_constructor():
    rng = random.Random(73)
    for _ in range(20):
        p = rng.choice((2, 3, 5, 257))
        n = rng.randrange(1, 12)
        entries = {
            (rng.randrange(n), rng.randrange(n)): rng.randrange(-3 * p, 3 * p)
            for _ in range(rng.randrange(3 * n))
        }
        text = f"p {p}\nn {n}\n" + "".join(f"{i} {j} {v}\n" for (i, j), v in entries.items())
        parsed = parse_matrix(text)
        assert parsed == SparseFieldMatrix(p, n, entries)
        assert 0 not in parsed.entries.values()


# ---------------------------------------------------------------------------
# connection to the logic pipeline
# ---------------------------------------------------------------------------


def test_row_parity_product_query_agrees_with_the_formula_pipeline():
    """Over F_2, (A @ J) row entries are vertex-degree parities of the support
    graph, the same query as an even/odd counting quantifier."""
    rng = random.Random(71)
    n = 9
    edges = set()
    for _ in range(14):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    a = SparseFieldMatrix(
        2, n, {(u, v): 1 for (u, v) in edges} | {(v, u): 1 for (u, v) in edges}
    )
    handle = eval_expr(parse_expr("A * J"), {"A": a})
    m = GuidedStructure(Signature((), ()), range(n), sorted(edges), {}, {})
    odd_degree = parse_formula("Emod[1,2] y . adj(x, y)", m.signature)
    for i in range(n):
        parity = handle.entry(i, 0)
        assert parity == handle.entry(i, n - 1)  # constant along the row
        assert eval_pipeline(m, odd_degree, {"x": i}) == (parity == 1)
