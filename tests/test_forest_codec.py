"""Tests for the forest encoding/decoding and formula pullback."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcheck.coloring import EliminationForest, heuristic_elimination_forest
from modcheck.forest_codec import (
    ColoredForest,
    DecodeConflictError,
    decode_IS,
    encode_IY,
    forest_signature,
    forest_structure,
    parse_forest,
    pullback_IS,
    serialize_forest,
    validate_codec_marks,
)
from modcheck.logic import eval_naive, parse_formula
from modcheck.structures import (
    GraphFormatError,
    GuidedStructure,
    Signature,
    gaifman,
    validate_guided,
)

from gens import random_formula, random_guided_structure


def encode_via_heuristic(m: GuidedStructure):
    forest = heuristic_elimination_forest(gaifman(m))
    return encode_IY(m, forest), forest


# ---------------------------------------------------------------------------
# encode basics
# ---------------------------------------------------------------------------


def test_encode_single_vertex():
    m = GuidedStructure(Signature(), [0])
    y, _ = encode_via_heuristic(m)
    assert y.edge_marks == {} and y.func_marks == {} and y.height == 1


def test_encode_single_edge():
    m = GuidedStructure(Signature(), [0, 1], [(0, 1)])
    forest = EliminationForest({0: 0, 1: 0})
    y = encode_IY(m, forest)
    assert y.edge_marks == {(1, 2): (1,)}


def test_encode_function_marks_both_directions():
    sig = Signature(unary_functions=("f",))
    # 0 is the root; f(1) = 0 is an ancestor image, f(0) = 2 a descendant image
    m = GuidedStructure(
        sig, [0, 1, 2], [(0, 1), (0, 2)], functions={"f": {0: 2, 1: 0, 2: 2}}
    )
    forest = EliminationForest({0: 0, 1: 0, 2: 0})
    y = encode_IY(m, forest)
    assert y.func_marks == {("f", 1, 2, 1): (1,), ("f", 1, 2, 0): (2,)}
    validate_codec_marks(y)


def test_encode_rejects_cross_edges():
    m = GuidedStructure(Signature(), [0, 1, 2], [(1, 2)])
    forest = EliminationForest({0: 0, 1: 0, 2: 0})
    with pytest.raises(ValueError, match="ancestor-descendant"):
        encode_IY(m, forest)


def test_encode_rejects_domain_mismatch():
    m = GuidedStructure(Signature(), [0, 1])
    forest = EliminationForest({0: 0})
    with pytest.raises(ValueError, match="domain"):
        encode_IY(m, forest)


# ---------------------------------------------------------------------------
# decode and roundtrip
# ---------------------------------------------------------------------------


def test_decode_unmarked_forest_is_edgeless_identity():
    sig = Signature(("P",), ("f",))
    forest = EliminationForest({0: 0, 1: 0, 2: 1})
    y = ColoredForest(forest, sig, {"P": (1,)})
    m = decode_IS(y)
    assert m.edges == ()
    assert m.functions["f"] == {0: 0, 1: 1, 2: 2}
    assert m.marks["P"] == (1,)


def test_decode_conflict_is_an_error():
    sig = Signature(unary_functions=("f",))
    forest = EliminationForest({0: 0, 1: 0, 2: 1})
    # both marks claim an image for f(1): its level-1 ancestor and itself via
    # the descendant mark on 2
    y = ColoredForest(
        forest,
        sig,
        edge_marks={(1, 2): (1,), (2, 3): (2,)},
        func_marks={("f", 1, 2, 1): (1,), ("f", 2, 3, 0): (2,)},
    )
    with pytest.raises(DecodeConflictError, match=r"f\(1\)"):
        decode_IS(y)


def test_two_vertex_roundtrip():
    m = GuidedStructure(Signature(), [0, 1], [(0, 1)])
    forest = EliminationForest({0: 0, 1: 0})
    assert decode_IS(encode_IY(m, forest)) == m


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 16), st.sampled_from(["forest", "lowtd", "maxdeg"]))
def test_roundtrip_random_structures(seed, n, family):
    rng = random.Random(seed)
    m = random_guided_structure(rng, n, family=family, n_marks=2, n_funcs=2)
    validate_guided(m)
    y, _ = encode_via_heuristic(m)
    validate_codec_marks(y)
    back = decode_IS(y)
    assert back == m


def test_encode_preserves_vertex_set():
    rng = random.Random(3)
    m = random_guided_structure(rng, 9, family="lowtd")
    y, forest = encode_via_heuristic(m)
    assert y.forest.vertices == m.domain
    assert sorted(forest.parent) == list(m.domain)


# ---------------------------------------------------------------------------
# forest as structure + pullback
# ---------------------------------------------------------------------------


def test_forest_structure_levels_and_parent():
    sig = Signature(("P",), ())
    forest = EliminationForest({0: 0, 1: 0, 2: 1})
    y = ColoredForest(forest, sig, {"P": (2,)})
    fs = forest_structure(y)
    assert fs.marks["Lvl1"] == (0,) and fs.marks["Lvl3"] == (2,)
    assert fs.functions["pi"] == {0: 0, 1: 0, 2: 1}
    validate_guided(fs)


def test_forest_structure_height_padding():
    sig = Signature()
    forest = EliminationForest({0: 0})
    y = ColoredForest(forest, sig)
    fs = forest_structure(y, height=3)
    assert "Lvl3" in fs.marks and fs.marks["Lvl3"] == ()
    with pytest.raises(ValueError, match="below forest height"):
        forest_structure(y, height=0)


def test_reserved_names_rejected():
    forest = EliminationForest({0: 0})
    with pytest.raises(ValueError, match="collides"):
        ColoredForest(forest, Signature(("Lvl1",), ()))
    with pytest.raises(ValueError, match="collides"):
        ColoredForest(forest, Signature((), ("pi",)))


def test_encode_refuses_names_of_the_forest_vocabulary():
    forest = EliminationForest({0: 0, 1: 0})
    for sig in (Signature(("Lvl1",), ()), Signature((), ("pi",))):
        m = GuidedStructure(sig, range(2), [(0, 1)])
        with pytest.raises(ValueError, match="collides"):
            encode_IY(m, forest)


def test_pullback_equality_unchanged():
    sig = Signature(("P",), ("f",))
    phi = parse_formula("x = y", sig)
    assert pullback_IS(phi, sig, 3) == phi


def test_pullback_edge_atom_semantics():
    sig = Signature(("P",), ())
    m = GuidedStructure(sig, [0, 1, 2], [(0, 1), (1, 2)], {"P": [2]})
    y, forest = encode_via_heuristic(m)
    fs = forest_structure(y)
    phi = parse_formula("adj(x,y)", sig)
    psi = pullback_IS(phi, sig, y.height)
    for a in m.domain:
        for b in m.domain:
            nu = {"x": a, "y": b}
            assert eval_naive(fs, psi, nu) == eval_naive(m, phi, nu)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 9))
def test_pullback_agrees_with_decode_then_eval(seed, n):
    rng = random.Random(seed)
    m = random_guided_structure(rng, n, family="lowtd", n_marks=2, n_funcs=2)
    y, _ = encode_via_heuristic(m)
    fs = forest_structure(y)
    free = ["x", "y"][: rng.randint(1, 2)]
    phi = random_formula(rng, m.signature, free, q_budget=1, depth=2, max_funcs=2)
    psi = pullback_IS(phi, m.signature, y.height)
    for _ in range(4):
        nu = {v: rng.choice(m.domain) for v in free}
        assert eval_naive(fs, psi, dict(nu)) == eval_naive(m, phi, dict(nu)), (phi, nu)


def test_pullback_function_fixpoint_case():
    # f(v) = v must pull back to "no mark claims an image", including when
    # some other vertex has marks
    sig = Signature((), ("f",))
    m = GuidedStructure(sig, [0, 1, 2], [(0, 1), (0, 2)], functions={"f": {0: 0, 1: 0, 2: 2}})
    y, forest = encode_via_heuristic(m)
    fs = forest_structure(y)
    phi = parse_formula("f(x) = x", sig)
    psi = pullback_IS(phi, sig, y.height)
    for v in m.domain:
        assert eval_naive(fs, psi, {"x": v}) == (m.functions["f"][v] == v)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_forest_file_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        m = random_guided_structure(rng, rng.randint(1, 12), family="lowtd", n_marks=2, n_funcs=2)
        y, _ = encode_via_heuristic(m)
        text = serialize_forest(y)
        back = parse_forest(text)
        assert back == y
        assert serialize_forest(back) == text


def test_forest_file_examples():
    text = "rel P\nfn f\nr 0\np 1 0\nm 1 P TE_1_2 Tf_f_1_2_1\n"
    y = parse_forest(text)
    assert y.marks["P"] == (1,)
    assert y.edge_marks == {(1, 2): (1,)}
    assert y.func_marks == {("f", 1, 2, 1): (1,)}
    m = decode_IS(y)
    assert m.edges == ((0, 1),) and m.functions["f"][1] == 0


@pytest.mark.parametrize(
    "text,frag",
    [
        ("r 0\np 0 1\n", "already placed"),
        ("p 0 1\np 1 0\n", "parent cycle"),
        ("p 1 0\n", "vertex 0 has no 'r' or 'p' line"),
        ("r 0\nm 5 P\n", "unknown vertex"),
        ("r 0\nm 0 P\n", "not declared"),
        ("r 0\nm 0 Tf_g_1_2_1\n", "undeclared function"),
        ("q 0\n", "unknown directive"),
        ("r 0\nr 0\np 0 0\n", "already placed"),
    ],
)
def test_forest_file_errors(text, frag):
    with pytest.raises(GraphFormatError, match=frag):
        parse_forest(text)


def test_forest_file_isolated_roots():
    y = parse_forest("r 3\nr 7\n")
    assert y.forest.roots == (3, 7)
    assert y.height == 1
