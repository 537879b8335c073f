"""Acceptance suite: one end-to-end test per release criterion.

Each criterion is a single test function, so a verbose run prints exactly
one pass/fail line per criterion.  On success a summary line with the
measured coverage is emitted (visible with ``pytest -rA`` or ``-s``).

The criteria, in order:

1. master differential oracle — the elimination pipeline agrees with the
   naive evaluator on thousands of random structure/query instances;
2. counting golden — the worked branching-forest example on the
   pipeline's census: 6 - (2+2) = 2, residue 2 mod 3;
3. forest codec roundtrip — decode(encode(M, F)) == M on random
   low-tree-depth structures and the full corpus of tiny structures;
4. forest modulo-elimination is extensional over every tuple, with all
   three census cases exercised;
5. both coloring backends validate, and the validator matches a
   connected-subgraph enumeration oracle;
6. matrix expressions match a dense oracle; set-rank markings reconstruct
   exactly; rank/set-rank sandwich holds;
7. local complementation is an involution and independent-set
   complementation is order-independent;
8. scaling smoke report (non-gating timing ratios, verified verdicts).
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from modcheck.coloring import compute_p_centered, heuristic_elimination_forest, validate_p_centered
from modcheck.elimination import eval_pipeline
from modcheck.forest_codec import decode_IS, encode_IY, forest_signature, forest_structure
from modcheck.forest_eval import CASE_COUNTER, eliminate_mod_on_forest, reset_case_counters
from modcheck.logic import ModExists, eval_naive, free_vars, is_quantifier_free
from modcheck.matrix import SparseFieldMatrix, build_marking, eval_expr, rank_Fp, srank
from modcheck.structures import Graph, GuidedStructure, Signature, gaifman
from modcheck.vertex_minor import local_complement, local_complement_set

from gens import (
    grid_graph,
    low_treedepth_graph,
    path_graph,
    random_colored_forest,
    random_forest_graph,
    random_formula,
    random_max_degree_graph,
    random_planarish_graph,
    random_quantifier_free,
    structure_from_graph,
)
from test_coloring import p_centered_by_definition
from test_forest_eval import BRANCHING_BODY, branching_forest, census_at, enumerate_forest_shapes, forest_of
from test_matrix import dense, oracle_eval, random_expr, random_low_srank_matrix, random_matrix
from test_vertex_minor import gkey, parity_complement_oracle, random_graph, random_independent_set

import numpy as np


def _report(line: str) -> None:
    print(f"[acceptance] {line}")


# ---------------------------------------------------------------------------
# criterion 1: master differential oracle
# ---------------------------------------------------------------------------


def test_criterion_1_master_oracle_equivalence():
    """eval_pipeline == eval_naive on >= 2000 random instances.

    Families: grids, planar-ish subgraphs, max-degree-4 random graphs, and
    random forests.  Queries: modulo-prenex, at most two modulo quantifiers,
    moduli <= 5, at most two free variables, one random valuation each.
    Sizes are tiered so the sweep stays well inside a ten-minute budget.
    """
    rng = random.Random(20260816)
    t0 = time.perf_counter()
    instances = 0
    quantified = 0
    family_counts = {"grid": 0, "planar": 0, "maxdeg": 0, "forest": 0}

    def graph_for(family, n):
        if family == "grid":
            rows = max(2, int(n ** 0.5))
            return grid_graph(rows, max(2, n // rows))
        if family == "planar":
            return random_planarish_graph(rng, n)
        if family == "forest":
            return random_forest_graph(rng, n)
        return random_max_degree_graph(rng, n)

    def run_instance(family, n, q_budget, n_funcs, free):
        nonlocal instances, quantified
        g = graph_for(family, n)
        m = structure_from_graph(rng, g, n_marks=2, n_funcs=n_funcs)
        phi = random_formula(
            rng, m.signature, free=free, q_budget=q_budget, depth=2,
            moduli=(2, 3, 4, 5), kinds=("Emod",), max_funcs=1,
        )
        valuation = {v: rng.choice(m.domain) for v in free_vars(phi)}
        assert eval_pipeline(m, phi, valuation) == eval_naive(m, phi, valuation), (
            f"{family} n={n} free={free} q={q_budget}: {phi}, valuation {valuation}"
        )
        instances += 1
        quantified += 0 if is_quantifier_free(phi) else 1
        family_counts[family] += 1

    free_choices = ((), ("x",), ("x",), ("x", "y"))
    families = ("grid", "planar", "maxdeg", "forest")
    # tier A: small structures, full query variety
    for i in range(1520):
        run_instance(
            families[i % 4],
            rng.randint(4, 14),
            rng.choice((1, 2, 2)),
            rng.choice((0, 1, 1)),
            rng.choice(free_choices),
        )
    # tier B: mid-size structures
    for i in range(450):
        n = rng.randint(15, 30)
        run_instance(
            families[i % 4],
            n,
            2 if n <= 20 and rng.random() < 0.5 else 1,
            rng.choice((0, 1)),
            rng.choice(free_choices),
        )
    # tier C: larger sparse structures, single quantifier
    for i in range(80):
        run_instance(
            ("planar", "maxdeg", "forest")[i % 3],
            rng.randint(31, 48),
            1,
            rng.choice((0, 1)),
            rng.choice(((), ("x",))),
        )
    # tier D: a grid ladder up to the full 15x15
    for rows, cols, q_budget, n_funcs in (
        (4, 4, 2, 1), (4, 5, 2, 1), (5, 5, 2, 0), (5, 5, 1, 1),
        (6, 6, 1, 1), (7, 7, 1, 1), (8, 8, 1, 0), (10, 10, 1, 0),
        (12, 12, 1, 0), (15, 15, 1, 0),
    ):
        g = grid_graph(rows, cols)
        m = structure_from_graph(rng, g, n_marks=2, n_funcs=n_funcs)
        phi = random_formula(
            rng, m.signature, free=("x",), q_budget=q_budget, depth=2,
            moduli=(2, 3, 4, 5), kinds=("Emod",), max_funcs=1,
        )
        valuation = {v: rng.choice(m.domain) for v in free_vars(phi)}
        assert eval_pipeline(m, phi, valuation) == eval_naive(m, phi, valuation)
        instances += 1
        quantified += 0 if is_quantifier_free(phi) else 1
        family_counts["grid"] += 1

    elapsed = time.perf_counter() - t0
    assert instances >= 2000, instances
    assert quantified >= 800, quantified
    assert all(family_counts[f] >= 100 for f in families), family_counts
    assert elapsed <= 600, f"sweep took {elapsed:.0f}s"
    _report(
        f"criterion 1: {instances} instances agreed ({quantified} with a modulo "
        f"quantifier; families {family_counts}) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 2: the branching-forest counting golden
# ---------------------------------------------------------------------------


def test_criterion_2_counting_golden():
    """One root with three children of two leaves each; anchors on leaves of
    two different children; the witnesses are the leaves off the anchors'
    root paths.  On the pipeline's census six descending 3-paths start at
    the root, the two pinned children eat 2 + 2 of them, leaving
    6 - (2+2) = 2, which is residue 2 mod 3."""
    y = branching_forest()
    counter, total, terms = census_at(y, BRANCHING_BODY, (4, 6), 3)
    assert total == 2
    q = (counter.codes.code[1], counter.codes.code[4])
    assert terms == [("C", 0, q, 2)]
    assert counter.down(0, q) == 6
    assert (counter.down(1, q[1:]), counter.down(2, q[1:])) == (2, 2)
    # with a huge modulus the raw difference itself is visible
    counter, total, terms = census_at(y, BRANCHING_BODY, (4, 6), 100)
    assert total == 2 and terms == [("C", 0, q, 2)]
    _report("criterion 2: counting golden 6 - (2+2) = 2, residue 2 mod 3")


# ---------------------------------------------------------------------------
# criterion 3: forest codec roundtrip
# ---------------------------------------------------------------------------


def test_criterion_3_codec_roundtrip():
    """decode(encode(M, F)) == M structurally: 500 random structures of
    tree-depth <= 5, then the complete corpus of structures on <= 4 vertices
    with <= 2 marks and <= 1 guided function (every graph, every mark
    assignment, every function map)."""
    rng = random.Random(314159)
    t0 = time.perf_counter()

    # part 1: random low-tree-depth structures
    for trial in range(500):
        n = rng.randint(1, 20)
        if trial % 2:
            g = low_treedepth_graph(rng, n, height=rng.randint(1, 5))
        else:
            g = random_forest_graph(rng, n, height=rng.randint(1, 5))
        m = structure_from_graph(rng, g, n_marks=rng.randint(0, 2), n_funcs=rng.randint(0, 2))
        forest = heuristic_elimination_forest(gaifman(m))
        assert decode_IS(encode_IY(m, forest)) == m, f"random trial {trial}"

    # part 2: exhaustive tiny corpus
    total = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            g = Graph(range(n), edges)
            forest = heuristic_elimination_forest(g)
            fchoices = [[v] + list(g.adj[v]) for v in range(n)]
            for n_marks in (0, 1, 2):
                rels = tuple(f"Q{i}" for i in range(n_marks))
                for n_funcs in (0, 1):
                    sig = Signature(rels, ("g0",) if n_funcs else ())
                    fmaps = itertools.product(*fchoices) if n_funcs else (None,)
                    for fvals in fmaps:
                        functions = {"g0": dict(enumerate(fvals))} if n_funcs else {}
                        for mark_bits in itertools.product(range(2 ** n), repeat=n_marks):
                            marks = {
                                rels[r]: tuple(v for v in range(n) if mark_bits[r] >> v & 1)
                                for r in range(n_marks)
                            }
                            m = GuidedStructure(sig, tuple(range(n)), edges, marks, functions)
                            assert decode_IS(encode_IY(m, forest)) == m
                            total += 1

    elapsed = time.perf_counter() - t0
    assert total >= 800_000, total
    _report(
        f"criterion 3: 500 random + {total} exhaustive roundtrips, "
        f"zero mismatches, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: forest modulo-elimination is extensional
# ---------------------------------------------------------------------------


def test_criterion_4_forest_elimination_extensional():
    """Eliminating one modulo quantifier preserves truth at every tuple.

    Exhaustive corpus: every rooted-forest shape with <= 8 vertices and
    height <= 3, three markings each, one quantifier-free body per arity
    k in {0, 1, 2}, verified over every k-tuple.  Then 10,000 random larger
    forests, again verified over every tuple.  All three census cases
    (untouched tree / forced position / branch below the closure) must each
    fire at least 100 times across the run.
    """
    rng = random.Random(36)
    t0 = time.perf_counter()
    reset_case_counters()
    shapes = enumerate_forest_shapes(8, 3)
    assert len(shapes) >= 200
    eliminations = 0
    tuples_checked = 0

    def verify(y, k, sigma, c, b):
        nonlocal eliminations, tuples_checked
        fv = ("v1", "v2")[:k]
        y_star, zeta = eliminate_mod_on_forest(y, sigma, c, b, yvar="w")
        phi = ModExists(c, b, "w", sigma)
        fs, fs_star = forest_structure(y), forest_structure(y_star)
        for vbar in itertools.product(y.forest.vertices, repeat=k):
            nu = dict(zip(fv, vbar))
            assert eval_naive(fs, phi, nu) == eval_naive(fs_star, zeta, nu), (
                f"n={len(y.forest.vertices)} k={k} c={c} b={b} vbar={vbar}: {sigma}"
            )
            tuples_checked += 1
        eliminations += 1

    for parents in shapes:
        n = len(parents)
        markings = [
            {},
            {"P0": tuple(v for v in range(n) if rng.random() < 0.45)},
            {
                "P0": tuple(v for v in range(n) if rng.random() < 0.5),
                "P1": tuple(v for v in range(n) if rng.random() < 0.3),
            },
        ]
        for marks in markings:
            y = forest_of(parents, marks=marks)
            fsig = forest_signature(y.signature, y.forest.height)
            for k in (0, 1, 2):
                fv = ("v1", "v2")[:k]
                sigma = random_quantifier_free(rng, fsig, list(fv) + ["w"], depth=2, max_funcs=2)
                b = rng.choice((2, 3, 4, 5))
                verify(y, k, sigma, rng.randrange(b), b)

    for trial in range(10_000):
        y = random_colored_forest(rng, 9 + trial % 8, height=4)
        fsig = forest_signature(y.signature, y.forest.height)
        k = (0, 1, 1, 2)[trial % 4]
        fv = ("v1", "v2")[:k]
        sigma = random_quantifier_free(rng, fsig, list(fv) + ["w"], depth=2, max_funcs=2)
        b = (2, 3, 4, 5)[(trial // 4) % 4]
        verify(y, k, sigma, trial % b, b)

    elapsed = time.perf_counter() - t0
    cases = {name: CASE_COUNTER[name] for name in ("A", "B", "C")}
    assert all(cases[name] >= 100 for name in cases), cases
    _report(
        f"criterion 4: {eliminations} eliminations extensional over "
        f"{tuples_checked} tuples, census cases {cases}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 5: coloring backends and validator
# ---------------------------------------------------------------------------


def test_criterion_5_coloring_validity():
    """Both backends produce validator-accepted colorings for p in {2,3,4}
    on the whole corpus (sized to the exact backend's reach), and the
    validator agrees with brute-force connected-subgraph enumeration."""
    rng = random.Random(55)
    t0 = time.perf_counter()

    corpus = [
        grid_graph(2, 2), grid_graph(2, 3), grid_graph(3, 3),
        grid_graph(3, 4), grid_graph(3, 5), grid_graph(4, 4),
        path_graph(13),
        Graph(range(12), [(i, (i + 1) % 12) for i in range(12)]),  # cycle
        Graph(range(6), itertools.combinations(range(6), 2)),  # complete
        Graph(range(9), [(0, i) for i in range(1, 9)]),  # star
        Graph(range(5), ()),  # independent set
    ]
    corpus += [random_max_degree_graph(rng, rng.randint(6, 15)) for _ in range(3)]
    corpus += [random_planarish_graph(rng, rng.randint(6, 14)) for _ in range(3)]
    corpus += [random_forest_graph(rng, rng.randint(6, 16)) for _ in range(3)]
    corpus += [low_treedepth_graph(rng, rng.randint(6, 14), height=3) for _ in range(2)]

    colorings = 0
    for g in corpus:
        for p in (2, 3, 4):
            for backend in ("heuristic", "exact"):
                coloring = compute_p_centered(g, p, backend=backend)
                assert validate_p_centered(g, coloring, p) is None, (
                    f"{backend} backend rejected on {len(g.vertices)} vertices, p={p}"
                )
                colorings += 1

    # validator vs the definition, on accepting and rejecting inputs alike
    agreements = accepted = 0
    from modcheck.coloring import CenteredColoring

    for trial in range(150):
        n = rng.randint(1, 12)
        g = random_max_degree_graph(rng, n, max_deg=rng.choice((3, 4)))
        p = rng.choice((2, 3, 4))
        if trial % 3 == 0:
            coloring = compute_p_centered(g, p, backend="heuristic")
        else:
            coloring = CenteredColoring(p, {v: rng.randint(1, 3) for v in g.vertices})
        verdict = validate_p_centered(g, coloring, p) is None
        assert verdict == p_centered_by_definition(g, coloring, p), f"trial {trial}"
        agreements += 1
        accepted += verdict

    elapsed = time.perf_counter() - t0
    assert accepted and accepted < agreements  # both verdicts exercised
    _report(
        f"criterion 5: {colorings} colorings validated on {len(corpus)} graphs; "
        f"validator matched the enumeration oracle {agreements}/150 "
        f"({accepted} accepts), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 6: matrix oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_matrix_oracles():
    """500 random expressions match a dense oracle entrywise; 200 set-rank
    markings reconstruct all n^2 entries; srank(J) = 1; and the
    rank/set-rank sandwich holds on 200 samples."""
    rng = random.Random(64)
    t0 = time.perf_counter()

    # part A: expression evaluation vs the dense oracle
    for trial in range(500):
        p = rng.choice((2, 3, 5))
        roll = rng.random()
        if roll < 0.6:
            n = rng.randint(2, 16)
        elif roll < 0.9:
            n = rng.randint(17, 32)
        else:
            n = rng.randint(33, 64)
        density = 0.35 if n <= 24 else 0.12
        inputs = {name: random_matrix(rng, p, n, density=density) for name in ("A", "B", "C")}
        srconsts = []
        while len(srconsts) < 2:
            cand = random_low_srank_matrix(rng, p, n)
            s = srank(cand)
            if s <= 6:
                srconsts.append(build_marking(cand, s))
        expr = random_expr(rng, p, n, ("A", "B", "C"), srconsts, depth=4)
        handle = eval_expr(expr, inputs)
        kind, want = oracle_eval(expr, inputs, p, n)
        assert kind == "m"
        assert np.array_equal(dense(handle.materialize()), want % p), f"trial {trial} (p={p}, n={n})"
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            assert handle.entry(i, j) == want[i, j] % p

    # part B: marking reconstruction on all entries
    reconstructions = 0
    while reconstructions < 200:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(4, 24)
        mat = random_low_srank_matrix(rng, p, n, rects=rng.randint(1, 3))
        s = srank(mat)
        if s > 6:
            continue
        marked = build_marking(mat, s)
        for i in range(n):
            for j in range(n):
                assert marked.entry(i, j) == mat.entry(i, j)
        reconstructions += 1

    # part C: the all-ones matrix has set-rank exactly 1
    for p in (2, 3, 5, 7, 11):
        for n in (1, 2, 3, 8, 17):
            j_mat = SparseFieldMatrix(p, n, {(i, j): 1 for i in range(n) for j in range(n)})
            assert srank(j_mat) == 1

    # part D: rank <= srank <= p * rank
    for trial in range(200):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 20)
        m = random_matrix(rng, p, n, density=rng.choice((0.15, 0.4, 0.8)))
        r, s = rank_Fp(m), srank(m)
        assert r <= s <= p * r or (r == 0 and s == 0), (p, n, r, s)

    elapsed = time.perf_counter() - t0
    _report(
        f"criterion 6: 500 expressions, 200 reconstructions, srank(J)=1, "
        f"200 sandwich samples, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 7: vertex-minor operation properties
# ---------------------------------------------------------------------------


def test_criterion_7_vertex_minor_properties():
    """Complementing twice at the same independent set is the identity
    (1000 instances), and set complementation is order-independent and
    matches the parity oracle (1000 instances)."""
    rng = random.Random(77)
    t0 = time.perf_counter()

    for trial in range(1000):
        g = random_graph(rng, rng.randint(1, 14), density=rng.choice((0.15, 0.3, 0.5)))
        s = random_independent_set(rng, g)
        assert gkey(local_complement_set(local_complement_set(g, s), s)) == gkey(g), (
            f"involution trial {trial}"
        )

    for trial in range(1000):
        g = random_graph(rng, rng.randint(2, 14), density=rng.choice((0.2, 0.4)))
        s = random_independent_set(rng, g)
        base = local_complement_set(g, s)
        assert gkey(base) == gkey(parity_complement_oracle(g, s)), f"oracle trial {trial}"
        for _ in range(2):
            order = list(s)
            rng.shuffle(order)
            h = g
            for v in order:
                h = local_complement(h, v)
            assert gkey(h) == gkey(base), f"order trial {trial}: {order}"

    elapsed = time.perf_counter() - t0
    _report(
        f"criterion 7: 1000 involution + 1000 order-independence instances, "
        f"zero failures, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 8: scaling smoke report (non-gating)
# ---------------------------------------------------------------------------


def test_criterion_8_scaling_smoke_report():
    """Runs the grid-doubling probe and reports wall-time ratios.  Gates
    only on the verdicts being correct; the timing ratios are informational
    evidence, not a pass/fail condition."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_smoke.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--json", "--base-rows", "8", "--base-cols", "8",
         "--doublings", "3", "--reps", "2"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["verified"] is True
    assert len(data["ratios"]) == 3
    ratios = [round(r, 2) for r in data["ratios"]]
    _report(
        f"criterion 8 (non-gating): vertices {data['vertices']}, per-doubling "
        f"wall-time ratios {ratios}, all <= 2.5: {data['within_threshold']}"
    )


def test_oracle_sweep_script_finds_no_mismatch():
    """The standalone differential sweep runs and reports no disagreement
    between the pipeline and the naive evaluator."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "oracle_sweep.py"), "--instances", "20", "--json"],
        capture_output=True, text=True, timeout=600, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["instances"] == 20
    assert data["mismatches"] == []
