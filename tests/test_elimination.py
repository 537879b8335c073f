"""Tests for modulo-counting quantifier elimination over guided structures."""

import gc
import itertools
import json
import logging
import random
import weakref

import pytest

from modcheck import elimination, forest_codec, forest_eval
from modcheck.coloring import optimal_elimination_forest
from modcheck.elimination import (
    UnsupportedFragmentError,
    ZetaFormula,
    color_type_of,
    count_definable,
    eliminate,
    eliminate_all,
    eliminate_one,
    eval_pipeline,
    suffix_closure,
)
from modcheck.forest_codec import forest_structure, pullback_IS
from modcheck.forest_eval import eliminate_mod_on_forest
from modcheck.logic import (
    BoolConst,
    MarkAtom,
    ModExists,
    Term,
    and_all,
    collect_term_tuples,
    count_naive,
    count_witnesses,
    eval_naive,
    free_vars,
    is_quantifier_free,
    parse_formula,
)
from modcheck.structures import GuidedStructure, Signature, expand_monadic, gaifman, restrict

from gens import random_guided_structure, random_quantifier_free, trace_events


def all_args(m, xvars):
    return itertools.product(m.domain, repeat=len(xvars))


def cycle_graph(n):
    sig = Signature((), ())
    edges = [(i, (i + 1) % n) for i in range(n)]
    return GuidedStructure(sig, range(n), edges, {}, {})


def chain_structure(n):
    """Path graph with one function walking toward the far end (a fixpoint)."""
    sig = Signature((), ("f0",))
    edges = [(i, i + 1) for i in range(n - 1)]
    f = {i: min(i + 1, n - 1) for i in range(n)}
    return GuidedStructure(sig, range(n), edges, {}, {"f0": f})


# ---------------------------------------------------------------------------
# composition bookkeeping
# ---------------------------------------------------------------------------


def test_suffix_closure_contains_all_trailing_subtuples():
    out = suffix_closure([(1, 2, 3)])
    assert set(out) == {(), (3,), (2, 3), (1, 2, 3)}


def test_suffix_closure_of_nothing_is_the_empty_composition():
    assert suffix_closure([]) == ((),)
    assert suffix_closure([()]) == ((),)


def test_suffix_closure_is_idempotent_and_sorted():
    base = [(2, 1), (1,), (1, 1, 2)]
    once = suffix_closure(base)
    assert suffix_closure(once) == once
    assert list(once) == sorted(once)


def test_collect_term_tuples_feed_matches_suffix_closure_expectation():
    sig = Signature(("P0",), ("f0", "g0"))
    rho = parse_formula("adj(f0(g0(x)), y)", sig)
    t = suffix_closure(collect_term_tuples(rho))
    assert (1, 2) in t and (2,) in t and () in t


# ---------------------------------------------------------------------------
# color types and guards
# ---------------------------------------------------------------------------


def test_color_type_of_with_only_the_empty_composition_is_the_color():
    m = chain_structure(4)
    colors = {v: v % 2 for v in m.domain}
    for v in m.domain:
        assert color_type_of(m, colors, [()], v) == (v % 2,)


def test_color_type_of_identity_functions_is_constant():
    sig = Signature((), ("f0",))
    m = GuidedStructure(sig, range(5), [], {}, {"f0": {v: v for v in range(5)}})
    colors = {v: v for v in m.domain}
    comps = [(), (1,), (1, 1)]
    for v in m.domain:
        assert color_type_of(m, colors, comps, v) == (v, v, v)


def test_color_type_of_matches_direct_recomputation():
    rng = random.Random(7)
    for _ in range(20):
        m = random_guided_structure(rng, 9, family="maxdeg", n_funcs=2)
        colors = {v: rng.randrange(4) for v in m.domain}
        comps = suffix_closure([(1, 2), (2,), (1, 1)])
        for v in m.domain:
            got = color_type_of(m, colors, comps, v)
            names = m.signature.unary_functions
            expect = []
            for alpha in comps:
                w = v
                for idx in reversed(alpha):
                    w = m.functions[names[idx - 1]][w]
                expect.append(colors[w])
            assert got == tuple(expect)


def test_guarded_body_bridges_whole_structure_and_piece():
    """A piece's type-guarded body holds on the full expansion exactly when
    both vertices lie in the piece and the body holds on the piece itself."""
    rng = random.Random(23)
    checked_true = 0
    for trial in range(12):
        m = random_guided_structure(rng, 7, family=("maxdeg", "lowtd")[trial % 2], n_funcs=1)
        rho = random_quantifier_free(rng, m.signature, ["x", "y"], depth=2)
        while set(free_vars(rho)) != {"x", "y"}:
            rho = random_quantifier_free(rng, m.signature, ["x", "y"], depth=2)
        res = eliminate_one(m, 0, 2, rho, "y")
        restricted = {}
        for v, w in itertools.product(m.domain, repeat=2):
            nu = {"x": v, "y": w}
            for tbar in {res.type_of[v], 0}:
                for t in {res.type_of[w], len(res.types) - 1}:
                    piece = res.piece((tbar,), t)
                    if piece.key not in restricted:
                        restricted[piece.key] = restrict(res.m_star, piece.domain)
                    lhs = eval_naive(res.m_star, piece.sigma, nu)
                    rhs = (
                        v in piece.domain
                        and w in piece.domain
                        and eval_naive(restricted[piece.key], piece.sigma, nu)
                    )
                    assert lhs == rhs
                    checked_true += lhs
    assert checked_true > 10  # the equivalence was exercised on both sides


def test_clamped_function_can_fake_a_color_type_inside_a_piece():
    """Restriction clamps function values that leave the piece, so the
    color-type guard evaluated inside a piece can accept a vertex whose true
    type is different.  This is exactly why witness counting reads exact
    type marks computed before restriction instead of re-testing colors."""
    m = chain_structure(3)  # 0 -> 1 -> 2, f fixes 2
    colors = {0: 1, 1: 0, 2: 1}  # centered by hand: the middle is unique
    comps = ((), (1,), (1, 1))
    mark = lambda c: f"Vc{c}"
    classes = {}
    for v in m.domain:
        classes.setdefault(colors[v], []).append(v)
    m_plus = expand_monadic(m, {mark(c): vs for c, vs in classes.items()})
    t_all_one = (1, 1, 1)
    assert color_type_of(m_plus, colors, comps, 0) != t_all_one
    guard = and_all([MarkAtom(mark(c), Term("y", alpha)) for alpha, c in zip(comps, t_all_one)])
    assert not eval_naive(m_plus, guard, {"y": 0})
    piece = restrict(m_plus, [0, 2])  # the color-1 class; f(0) clamps to 0
    assert eval_naive(piece, guard, {"y": 0})  # the spurious acceptance


# ---------------------------------------------------------------------------
# residue distributions: the oracle of the residual formula's verdict
# ---------------------------------------------------------------------------


def residue_distributions(a, b, realized):
    """All assignments of residues to the realized keys summing to ``a`` mod ``b``.

    Lazily enumerated in lexicographic order; ``b ** (len(realized) - 1)``
    assignments when at least one key is realized, and the empty assignment
    alone when none are (empty sums hit 0 only).
    """
    if b < 1:
        raise ValueError("modulus must be at least 1")
    keys = list(realized)
    a %= b
    if not keys:
        if a == 0:
            yield {}
        return
    for head in itertools.product(range(b), repeat=len(keys) - 1):
        last = (a - sum(head)) % b
        yield dict(zip(keys, (*head, last)))


def test_residue_distributions_single_key_is_the_target():
    assert list(residue_distributions(2, 5, ["t"])) == [{"t": 2}]


def test_residue_distributions_counts_and_sums():
    for m_keys in range(1, 4):
        for b in range(1, 5):
            for a in range(b):
                keys = [f"t{i}" for i in range(m_keys)]
                out = list(residue_distributions(a, b, keys))
                assert len(out) == b ** (m_keys - 1)
                seen = {tuple(sorted(r.items())) for r in out}
                assert len(seen) == len(out)
                for r in out:
                    assert set(r) == set(keys)
                    assert sum(r.values()) % b == a
                    assert all(0 <= c < b for c in r.values())


def test_residue_distributions_no_keys_follows_the_empty_sum():
    assert list(residue_distributions(0, 3, [])) == [{}]
    assert list(residue_distributions(1, 3, [])) == []
    assert list(residue_distributions(3, 3, [])) == [{}]  # target normalized


def test_residue_distributions_is_lazy():
    gen = residue_distributions(0, 4, ["a", "b", "c", "d", "e"])
    assert next(gen) == {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}


def test_residue_distributions_rejects_bad_modulus():
    with pytest.raises(ValueError):
        list(residue_distributions(0, 0, ["t"]))


def test_residue_vector_matches_a_distribution_exactly_when_true():
    rng = random.Random(47)
    m = random_guided_structure(rng, 8, family="lowtd", n_funcs=1)
    rho = random_quantifier_free(rng, m.signature, ["x", "y"], depth=1)
    a, b = 1, 3
    res = eliminate_one(m, a, b, rho, "y")
    keys = list(range(len(res.types)))
    for v in m.domain:
        rv = res.residue_vector({"x": v})
        hit = any(r == rv for r in residue_distributions(a, b, keys))
        assert res.eval({"x": v}) == hit


# ---------------------------------------------------------------------------
# one elimination: goldens
# ---------------------------------------------------------------------------


def test_eliminate_one_on_a_cycle_of_even_degrees():
    m = cycle_graph(4)
    rho = parse_formula("adj(x, y)", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    assert all(res.eval({"x": v}) for v in m.domain)
    naive = ModExists(0, 2, "y", rho)
    assert all(eval_naive(m, naive, {"x": v}) for v in m.domain)


def test_eliminate_one_false_body_reduces_to_the_zero_test():
    m = cycle_graph(5)
    rho = BoolConst(False)
    for a, b in [(0, 2), (1, 2), (0, 3), (2, 3)]:
        res = eliminate_one(m, a, b, rho, "y")
        assert res.eval({}) == (a == 0)


def test_eliminate_one_modulus_one_is_always_true():
    m = cycle_graph(5)
    rho = parse_formula("adj(x, y)", m.signature)
    res = eliminate_one(m, 0, 1, rho, "y")
    assert all(res.eval({"x": v}) for v in m.domain)


def test_eliminate_one_body_mentioning_only_arguments():
    sig = Signature(("P0",), ())
    m = GuidedStructure(sig, range(5), [(0, 1)], {"P0": [0, 3]}, {})
    rho = parse_formula("P0(x)", sig)
    res = eliminate_one(m, 0, 2, rho, "y")
    for v in m.domain:
        # count is 5 (odd) when P0(v) holds, 0 otherwise
        want = (5 % 2 == 0) if v in (0, 3) else True
        assert res.eval({"x": v}) == want


def test_eliminate_one_rejects_quantified_bodies():
    m = cycle_graph(4)
    rho = parse_formula("E z . adj(z, y)", m.signature)
    with pytest.raises(UnsupportedFragmentError):
        eliminate_one(m, 0, 2, rho, "y")


def test_eliminate_one_rejects_modulus_zero():
    m = cycle_graph(4)
    with pytest.raises(ValueError):
        eliminate_one(m, 0, 0, BoolConst(True), "y")


# ---------------------------------------------------------------------------
# one elimination: the extensional contract
# ---------------------------------------------------------------------------


def test_eliminate_one_agrees_with_naive_counting_everywhere():
    rng = random.Random(101)
    families = ("maxdeg", "forest", "planar", "lowtd")
    for trial in range(40):
        m = random_guided_structure(
            rng, 7 + trial % 5, family=families[trial % 4], n_funcs=1 + trial % 2
        )
        pool = (["x", "y"], ["x1", "x2", "y"], ["y"])[trial % 3]
        rho = random_quantifier_free(rng, m.signature, pool, depth=2)
        b = 2 + trial % 3
        res = eliminate_one(m, 0, b, rho, "y")
        for vbar in all_args(m, res.xvars):
            nu = dict(zip(res.xvars, vbar))
            assert res.total_residue(nu) == count_witnesses(m, rho, "y", nu) % b


def test_eliminate_one_verdict_matches_each_target_residue():
    rng = random.Random(31)
    m = random_guided_structure(rng, 9, family="maxdeg", n_funcs=1)
    rho = random_quantifier_free(rng, m.signature, ["x", "y"], depth=2)
    b = 3
    for a in range(b):
        res = eliminate_one(m, a, b, rho, "y")
        naive = ModExists(a, b, "y", rho)
        for v in m.domain:
            assert res.eval({"x": v}) == eval_naive(m, naive, {"x": v})


def test_eliminate_one_chain_fixpoints_with_piece_clamping():
    """Regression: a function chain that leaves a piece is clamped there, and
    the clamped shortcut satisfies self-referential bodies spuriously.  The
    witness count must still be exact, and at least one piece must be a
    strict restriction for the run to exercise clamping at all."""
    m = chain_structure(8)
    rho = parse_formula("f0(f0(y)) = y", m.signature)
    assert count_witnesses(m, rho, "y") == 1  # only the far end is fixed
    for a in (0, 1):
        res = eliminate_one(m, a, 2, rho, "y")
        assert res.eval({}) == (a == 1)
    res = eliminate_one(m, 1, 2, rho, "y")
    res.eval({})
    sizes = [len(p.domain) for p in res._pieces.values()]
    assert sizes and min(sizes) < len(m.domain)


def test_zeta_is_a_quantifier_free_custom_node():
    m = cycle_graph(4)
    rho = parse_formula("adj(x, y)", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    assert isinstance(res.zeta, ZetaFormula)
    assert is_quantifier_free(res.zeta)
    assert free_vars(res.zeta) == ("x",)
    # usable inside larger formulas via the evaluation hook
    assert eval_naive(res.m_star, res.zeta, {"x": 2})


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


def test_pieces_are_lazy_and_respect_the_color_budget():
    rng = random.Random(53)
    m = random_guided_structure(rng, 10, family="maxdeg", n_funcs=1)
    rho = parse_formula("adj(x, f0(y))", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    assert res.pieces_materialized() == ()
    res.eval({"x": m.domain[0]})
    keys = res.pieces_materialized()
    assert 0 < len(keys) <= len(res.types)
    for key in keys:
        piece = res._pieces[key]
        assert len(piece.colors) <= res.p
        used = {c for i in (*key[0], key[1]) for c in res.types[i]}
        dom = {v for v in m.domain if res.coloring.colors[v] in used}
        assert set(piece.domain) == dom


def test_piece_gaifman_treedepth_is_within_the_color_budget():
    rng = random.Random(59)
    for trial in range(6):
        m = random_guided_structure(rng, 9, family="lowtd", n_funcs=1)
        rho = random_quantifier_free(rng, m.signature, ["x", "y"], depth=1)
        res = eliminate_one(m, 0, 2, rho, "y")
        res.eval({"x": m.domain[trial % len(m.domain)]})
        for piece in res._pieces.values():
            sub = restrict(res.m_star, piece.domain)
            assert optimal_elimination_forest(gaifman(sub)).height <= res.p


def test_piece_forest_parent_tables_are_kept_as_side_data():
    m = cycle_graph(6)
    rho = parse_formula("adj(x, y)", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    res.eval({"x": 0})
    for piece in res._pieces.values():
        parent = piece.forest.forest.parent
        assert set(parent) == set(piece.domain)
        for v, par in parent.items():
            assert par in piece.domain
    # the expanded structure's functions are untouched
    assert res.m_star.signature.unary_functions == m.signature.unary_functions


def test_piece_residue_marks_agree_with_the_counter():
    rng = random.Random(61)
    m = random_guided_structure(rng, 8, family="forest", n_funcs=1)
    rho = parse_formula("adj(x, y) | P0(y)", m.signature)
    b = 2
    res = eliminate_one(m, 0, b, rho, "y")
    v0 = m.domain[0]
    res.eval({"x": v0})
    key = next(iter(res.pieces_materialized()))
    piece = res._pieces[key]
    for c in range(b):
        marked_forest, residual = piece.counter.materialize(c, mark_prefix=f"{piece.name}r{c}_")
        fs = forest_structure(marked_forest, height=piece.forest.height)
        assert is_quantifier_free(residual)
        for v in piece.domain:
            want = piece.counter.residue({"x": v}) == c
            assert eval_naive(fs, residual, {"x": v}) == want


@pytest.mark.parametrize("seed, text", [(None, "adj(x, f0(y))"), (61, "adj(x, y) | P0(f0(y))")])
def test_piece_eliminated_equals_a_fresh_forest_elimination(seed, text):
    """Materializing a residue through the piece's own counter gives the
    marks and formula of a fresh elimination of the guard pulled back to the
    forest vocabulary, for every piece and residue."""
    if seed is None:
        m = chain_structure(8)
    else:
        m = random_guided_structure(random.Random(seed), 8, family="forest", n_funcs=1)
    b = 3
    res = eliminate_one(m, 1, b, parse_formula(text, m.signature), "y")
    assert len(res.types) >= 2
    for tbar, t in itertools.product(range(len(res.types)), repeat=2):
        piece = res.piece((tbar,), t)
        pulled = pullback_IS(piece.sigma, piece.forest.signature, piece.forest.height)
        for c in range(b):
            got_forest, got_zeta = piece.counter.materialize(c, mark_prefix=f"{piece.name}r{c}_")
            want_forest, want_zeta = eliminate_mod_on_forest(
                piece.forest,
                pulled,
                c,
                b,
                yvar=piece.counter.yvar,
                height_bound=piece.forest.height,
                mark_prefix=f"{piece.name}r{c}_",
            )
            assert repr(got_zeta) == repr(want_zeta)
            assert got_forest.signature == want_forest.signature
            assert got_forest.marks == want_forest.marks


def test_residue_rejects_mismatched_argument_types():
    m = chain_structure(8)
    rho = parse_formula("adj(x, f0(y))", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    by_type = {}
    for v in m.domain:
        by_type.setdefault(res.type_of[v], v)
    if len(by_type) >= 2:
        (t1, v1), (t2, v2) = list(by_type.items())[:2]
        with pytest.raises(ValueError):
            res.residue((t2,), 0, {"x": v1})


def test_evaluation_touches_only_the_pieces_of_the_bound_types():
    m = chain_structure(8)
    rho = parse_formula("f0(f0(y)) = y", m.signature)
    res = eliminate_one(m, 1, 2, rho, "y")
    assert res.pieces_materialized() == ()
    res.eval({})
    # a sentence reads one piece per realized witness type, and no other
    assert res.pieces_materialized() == tuple(((), t) for t in range(len(res.types)))
    # with an argument, only the pieces of its own type are built
    res = eliminate_one(m, 1, 2, parse_formula("adj(x, f0(y))", m.signature), "y")
    assert len(res.types) >= 2
    v = m.domain[0]
    res.eval({"x": v})
    assert res.pieces_materialized() == tuple(
        ((res.type_of[v],), t) for t in range(len(res.types))
    )


def test_pieces_share_forest_tables_per_base_and_build_no_forest_structure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a piece built a forest structure")

    for module in (forest_codec, forest_eval):
        monkeypatch.setattr(module, "forest_structure", refuse)
    m = chain_structure(8)
    phi = parse_formula("Emod[1,2] y . adj(x, f0(y))", m.signature)
    res = eliminate_one(m, 1, 2, phi.body, "y")
    assert len(res.types) >= 2
    for v in m.domain:
        assert res.eval({"x": v}) == eval_naive(m, phi, {"x": v})
    monkeypatch.undo()
    pieces = list(res._pieces.values())
    shared = 0
    for p1, p2 in itertools.combinations(pieces, 2):
        if p1.colors == p2.colors:
            assert p1.counter.tables is p2.counter.tables
            shared += 1
        else:
            assert p1.counter.tables is not p2.counter.tables
    assert shared  # some base serves several (argument types, witness type) keys


def test_acceptance_sees_only_the_piece_types(monkeypatch):
    """A piece settles its type guards from the forest's codes: every
    acceptance call evaluates the body on a witness and arguments of the
    piece's own types, tuples of other types count 0 without a call, and
    each residue equals the guarded body's witness count on the piece."""
    calls = []

    def counting(structure, phi, nu):
        calls.append((structure, phi, dict(nu)))
        return eval_naive(structure, phi, nu)

    # acceptance looks eval_naive up in the elimination module at each call
    monkeypatch.setattr(elimination, "eval_naive", counting)
    rng = random.Random(131)
    rejected = examined = 0
    for trial in range(12):
        family = ("maxdeg", "planar", "forest")[trial % 3]
        m = random_guided_structure(rng, 8 + trial % 4, family=family, n_funcs=1 + trial % 2)
        pool = (["x", "y"], ["x1", "x2", "y"])[trial % 2]
        rho = random_quantifier_free(rng, m.signature, pool, depth=2)
        while set(free_vars(rho)) != set(pool):
            rho = random_quantifier_free(rng, m.signature, pool, depth=2)
        b = 2 + trial % 3
        res = eliminate_one(m, 0, b, rho, "y")
        keys = list(itertools.product(range(len(res.types)), repeat=len(res.xvars) + 1))
        for *tbar, t in rng.sample(keys, min(10, len(keys))):
            piece = res.piece(tbar, t)
            piece_struct = restrict(res.m_star, piece.domain)
            for vbar in itertools.product(piece.domain, repeat=len(res.xvars)):
                nu = dict(zip(res.xvars, vbar))
                del calls[:]
                got = piece.counter.residue(nu)
                assert got == count_witnesses(piece_struct, piece.sigma, "y", nu) % b
                if tuple(res.type_of[v] for v in vbar) != tuple(tbar):
                    assert got == 0 and not calls
                    rejected += 1
                for structure, phi, call in calls:
                    assert phi is rho  # the body alone: the guards are settled
                    assert set(structure.domain) == set(piece.domain)
                    assert res.type_of[call["y"]] == t
                    assert tuple(res.type_of[call[x]] for x in res.xvars) == tuple(tbar)
                examined += len(calls)
    assert rejected and examined  # both kinds of tuple were probed


def test_unrealized_type_index_is_rejected():
    m = cycle_graph(4)
    rho = parse_formula("adj(x, y)", m.signature)
    res = eliminate_one(m, 0, 2, rho, "y")
    with pytest.raises(ValueError):
        res.piece((0,), len(res.types))
    with pytest.raises(ValueError, match="one argument type per argument"):
        res.piece((), 0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_elimination_serialization_is_deterministic():
    rng1, rng2 = random.Random(71), random.Random(71)
    m1 = random_guided_structure(rng1, 9, family="planar", n_funcs=1)
    m2 = random_guided_structure(rng2, 9, family="planar", n_funcs=1)
    rho1 = parse_formula("adj(x, f0(y)) & P0(y)", m1.signature)
    rho2 = parse_formula("adj(x, f0(y)) & P0(y)", m2.signature)
    r1 = eliminate_one(m1, 1, 3, rho1, "y")
    r2 = eliminate_one(m2, 1, 3, rho2, "y")
    assert r1.serialize() == r2.serialize()
    payload = json.loads(r1.serialize())
    assert payload["modulus"] == 3 and payload["witness"] == "y"


def test_pipeline_serialization_is_deterministic():
    m1, m2 = cycle_graph(6), cycle_graph(6)
    phi1 = parse_formula("Emod[0,2] y . Emod[1,2] z . adj(y, z)", m1.signature)
    phi2 = parse_formula("Emod[0,2] y . Emod[1,2] z . adj(y, z)", m2.signature)
    assert eliminate_all(m1, phi1).serialize() == eliminate_all(m2, phi2).serialize()


def test_mark_prefix_avoids_existing_relation_names():
    sig = Signature(("Qc0", "Qt1"), ())
    m = GuidedStructure(sig, range(4), [(0, 1), (2, 3)], {"Qc0": [0], "Qt1": [1]}, {})
    rho = parse_formula("adj(x, y)", sig)
    res = eliminate_one(m, 0, 2, rho, "y")
    assert not res.prefix == "Q"
    for v in m.domain:
        naive = ModExists(0, 2, "y", rho)
        assert res.eval({"x": v}) == eval_naive(m, naive, {"x": v})


# ---------------------------------------------------------------------------
# nesting
# ---------------------------------------------------------------------------


def test_eliminate_all_quantifier_free_identity():
    m = cycle_graph(4)
    phi = parse_formula("adj(x, y) & !(x = y)", m.signature)
    run = eliminate_all(m, phi)
    assert run.zeta == phi
    assert run.stages == ()
    assert run.m_star is m


def test_eliminate_all_nested_triangle_golden():
    # every vertex of a triangle has exactly 2 neighbors, so the inner
    # "odd neighbor count" test fails everywhere; zero outer witnesses
    m = cycle_graph(3)
    phi = parse_formula("Emod[0,2] y . Emod[1,2] z . adj(y, z)", m.signature)
    run = eliminate_all(m, phi)
    assert run.eval() is True
    assert run.zeta == BoolConst(True)
    assert len(run.stages) == 2
    assert run.report.stages[0].materialized_mark is not None
    assert run.report.stages[1].constant_folded is True


def test_eliminate_all_inner_elimination_becomes_a_mark():
    rng = random.Random(83)
    m = random_guided_structure(rng, 8, family="maxdeg", n_funcs=1)
    phi = parse_formula("Emod[1,3] y . Emod[0,2] z . (adj(y, z) & P1(z))", m.signature)
    run = eliminate_all(m, phi)
    mark = run.report.stages[0].materialized_mark
    assert mark in run.m_star.signature.unary_relations
    assert mark not in m.signature.unary_relations
    assert run.eval() == eval_naive(m, phi)


def test_eliminate_all_boolean_combinations_pointwise():
    rng = random.Random(89)
    for trial in range(15):
        m = random_guided_structure(rng, 7 + trial % 4, family="lowtd", n_funcs=1)
        phi = parse_formula(
            "!(Emod[0,2] y . adj(x, y)) & (Emod[1,2] y . P0(y) | P1(x))",
            m.signature,
        )
        run = eliminate_all(m, phi)
        for v in m.domain:
            assert run.eval({"x": v}) == eval_naive(m, phi, {"x": v})


def test_eliminate_all_top_level_two_argument_quantifier():
    rng = random.Random(97)
    m = random_guided_structure(rng, 8, family="maxdeg", n_funcs=1)
    phi = parse_formula("Emod[0,2] z . (adj(x, z) & adj(y, z))", m.signature)
    run = eliminate_all(m, phi)
    assert isinstance(run.zeta, ZetaFormula)
    for v, w in itertools.product(m.domain, repeat=2):
        nu = {"x": v, "y": w}
        assert run.eval(nu) == eval_naive(m, phi, nu)


def test_finished_pipeline_is_freed_without_the_cycle_collector():
    # with the collector off, dropping a run must free its stages and every
    # piece they built: no reference cycle may keep them alive
    rng = random.Random(107)
    m = random_guided_structure(rng, 8, family="maxdeg", n_funcs=1)
    texts = ("Emod[1,2] y . adj(x, y)", "Emod[0,2] z . (adj(x, z) & adj(y, z))")
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            phi = parse_formula(text, m.signature)
            run = eliminate_all(m, phi)
            fvs = free_vars(phi)
            for vbar in itertools.islice(itertools.product(m.domain, repeat=len(fvs)), 6):
                run.eval(dict(zip(fvs, vbar)))
            refs = [weakref.ref(stage) for stage in run.stages]
            refs += [weakref.ref(p) for stage in run.stages for p in stage._pieces.values()]
            assert len(refs) > len(run.stages), "the run built no piece"
            del run
            assert [r() for r in refs] == [None] * len(refs), text
    finally:
        gc.enable()


def test_eliminate_all_random_nested_agreement():
    rng = random.Random(103)
    texts = [
        "Emod[0,2] y . (P0(y) | adj(x, y))",
        "Emod[1,3] y . Emod[0,2] z . (adj(y, z) | P0(f0(z)))",
        "Emod[0,2] y . (P1(f0(y)) & !(y = x))",
        "Emod[1,2] y . adj(x, y) | Emod[0,3] y . P0(y)",
    ]
    for trial in range(20):
        m = random_guided_structure(
            rng, 7 + trial % 4, family=("maxdeg", "forest", "planar")[trial % 3], n_funcs=1
        )
        phi = parse_formula(texts[trial % 4], m.signature)
        run = eliminate_all(m, phi)
        fvs = free_vars(phi)
        for vbar in itertools.product(m.domain, repeat=len(fvs)):
            nu = dict(zip(fvs, vbar))
            assert run.eval(nu) == eval_naive(m, phi, nu)


def test_eliminate_all_rejects_plain_quantifiers():
    m = cycle_graph(4)
    phi = parse_formula("Emod[0,2] y . E z . adj(y, z)", m.signature)
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, phi)
    assert "z" in str(exc.value)
    assert exc.value.node is phi.body
    phi = parse_formula("A x . Emod[0,2] y . adj(x, y)", m.signature)
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, phi)
    assert "forall" in str(exc.value)
    assert exc.value.node is phi
    # a plain quantifier is met before its body, a modulo one after
    phi = parse_formula("Emod[0,2] y . E z . Emod[1,2] w . (adj(z, w) & adj(y, w))", m.signature)
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, phi)
    assert exc.value.node is phi.body


def test_eliminate_all_rejects_wide_inner_eliminations():
    # the inner quantifier keeps two free variables, so its residual formula
    # cannot be materialized as a unary mark for the outer matrix
    m = cycle_graph(5)
    phi = parse_formula(
        "Emod[0,2] y . Emod[1,2] z . (adj(x, z) & adj(y, z))", m.signature
    )
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, phi)
    assert "quantifier-free" in str(exc.value)
    assert exc.value.node is phi


def test_eliminate_all_rejects_foreign_nodes():
    class Strange:  # not a Formula node the rewriter knows
        pass

    m = cycle_graph(4)
    node = Strange()
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, node)
    assert exc.value.node is node
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate(m, node)
    assert exc.value.node is node


def test_eliminate_leaves_what_eliminate_all_rejects():
    # the same layers, in the same order; the rewrite goes on inside them
    m = cycle_graph(5)
    phi = parse_formula(
        "A x . ((Emod[0,2] y . E z . adj(y, z))"
        " | (Emod[1,2] y . Emod[0,2] z . (adj(x, z) & adj(y, z))))",
        m.signature,
    )
    run = eliminate(m, phi)
    left, right = phi.body.left, phi.body.right
    assert [e.node for e in run.left] == [phi, left.body, left, right]
    with pytest.raises(UnsupportedFragmentError) as exc:
        eliminate_all(m, phi)
    assert exc.value.node is phi
    assert [str(e) for e in run.left] == json.loads(run.serialize())["notices"]
    assert len(run.stages) == 1  # the wide inner quantifier
    assert run.eval() == eval_naive(m, phi)


# ---------------------------------------------------------------------------
# evaluation entry points
# ---------------------------------------------------------------------------


def test_eval_pipeline_plain_wrappers_round_trip():
    rng = random.Random(107)
    texts = [
        "E x . Emod[0,2] y . adj(x, y)",
        "A x . (!P0(x) | Emod[1,2] y . adj(x, y))",
        "Emod[0,2] y . E z . adj(y, z)",
        "E x . (P0(x) & Emod[1,2] y . (adj(x, y) | P1(f0(y))))",
    ]
    for trial in range(24):
        m = random_guided_structure(rng, 7 + trial % 3, family="maxdeg", n_funcs=1)
        phi = parse_formula(texts[trial % 4], m.signature)
        assert eval_pipeline(m, phi) == eval_naive(m, phi)


def test_eval_pipeline_logs_what_the_oracle_had_to_handle(caplog):
    m = cycle_graph(4)
    phi = parse_formula("Emod[0,2] y . E z . adj(y, z)", m.signature)
    with caplog.at_level(logging.INFO, logger="modcheck.elimination"):
        eval_pipeline(m, phi)
    assert any("naive evaluator" in r.message for r in caplog.records)


def test_eval_pipeline_supports_wide_nesting_loosely():
    rng = random.Random(109)
    m = random_guided_structure(rng, 7, family="maxdeg", n_funcs=1)
    phi = parse_formula(
        "Emod[0,2] y . Emod[1,2] z . (adj(x, z) & adj(y, z))", m.signature
    )
    for v in m.domain:
        assert eval_pipeline(m, phi, {"x": v}) == eval_naive(m, phi, {"x": v})


def test_count_definable_cycle_golden():
    m = cycle_graph(4)
    phi = parse_formula("Emod[0,2] y . adj(x, y)", m.signature)
    assert count_definable(m, phi) == 4


def test_count_definable_star_golden():
    # star with five leaves: the center sees 5 neighbors, each leaf sees 1;
    # no vertex has an even neighbor count
    sig = Signature((), ())
    m = GuidedStructure(sig, range(6), [(0, i) for i in range(1, 6)], {}, {})
    phi = parse_formula("Emod[0,2] y . adj(x, y)", sig)
    assert count_naive(m, phi) == 0  # confirm before trusting the golden
    assert count_definable(m, phi) == 0


def test_count_definable_matches_the_naive_counter():
    rng = random.Random(113)
    texts = [
        "Emod[0,2] y . (adj(x, y) | P0(y))",
        "Emod[2,3] y . adj(x, f0(y))",
        "P0(x) & Emod[1,2] y . adj(x, y)",
    ]
    for trial in range(15):
        m = random_guided_structure(rng, 8 + trial % 4, family="planar", n_funcs=1)
        phi = parse_formula(texts[trial % 3], m.signature)
        assert count_definable(m, phi) == count_naive(m, phi)


def test_count_definable_scales_linearly_on_marked_inputs():
    # marks make exact subtree codes, and so the census's code paths, grow
    # with n; one census per argument shape keeps the whole pipeline linear
    def work(family, n):
        m = random_guided_structure(random.Random(7), n, family=family, n_marks=2, n_funcs=0)
        phi = parse_formula("Emod[1,3] y . (adj(x, y) & !P0(y))", m.signature)
        return trace_events(count_definable, m, phi)

    for family in ("maxdeg", "planar"):
        small, big = work(family, 256), work(family, 1024)
        assert big / small <= 4.0, (family, small, big)


def test_count_definable_falls_back_and_logs(caplog):
    m = cycle_graph(4)
    phi = parse_formula("E z . adj(x, z)", m.signature)  # outside the fragment
    with caplog.at_level(logging.INFO, logger="modcheck.elimination"):
        got = count_definable(m, phi)
    assert got == count_naive(m, phi)
    assert any("plain exists quantifier on 'z'" in r.message for r in caplog.records)


def test_count_definable_eliminates_inside_plain_quantifiers():
    # the inner modulo quantifier is eliminated to a mark, and the plain one
    # around it is left to the naive evaluator over the expansion
    rng = random.Random(127)
    phi_text = "E z . (adj(x, z) & Emod[0,2] y . (adj(z, y) & P0(y)))"
    for trial in range(12):
        m = random_guided_structure(
            rng, 6 + trial % 5, family=("maxdeg", "planar", "forest")[trial % 3], n_funcs=1
        )
        phi = parse_formula(phi_text, m.signature)
        run = eliminate(m, phi)
        assert len(run.stages) == 1
        assert [e.node for e in run.left] == [phi]
        assert run.report.stages[0].materialized_mark is not None
        assert count_definable(m, phi) == count_naive(m, phi)
        for v in m.domain:
            assert run.eval({"x": v}) == eval_naive(m, phi, {"x": v})


def test_count_definable_requires_one_free_variable():
    m = cycle_graph(4)
    phi = parse_formula("adj(x, y)", m.signature)
    with pytest.raises(ValueError):
        count_definable(m, phi)
