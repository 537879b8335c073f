"""Fast FOM evaluation and modulo-counting elimination on colored forests.

Three layers:

* subtree type codes: canonical integer codes for rooted subtrees, either
  exact or truncated to (threshold, modulus) child multiplicities.  Formula
  truth depends only on these codes, which powers everything below.
* eval_forest: evaluates any FOM formula by shrinking the forest to a
  bounded-size pruned representative (per-class child caps) and running the
  naive evaluator there.
* the code-path census and elimination: counts the witnesses w of one
  modulo quantifier at x̄ by where w sits against the closure of x̄ (the
  root paths of its entries).  Case B: w is a closure vertex, tested one by
  one.  Case C: w hangs below a closure vertex s off the closure; witnesses
  are grouped by the code path from s down to w, counted as the paths below
  s minus those through s's pinned children (its children in the closure).
  Case A: w lies in a tree the closure does not touch; witnesses are grouped
  by their full code path, counted forest-wide minus those under the
  closure's roots.  Each group is accepted or rejected on one
  representative, and the counts of the accepted groups are summed modulo
  b.  Elimination turns the census into a quantifier-free formula over
  parent compositions and residue marks.

A counter may carry guards: marks its variables must have.  An exact code
records its vertex's marks, so guards are settled from codes, not by
acceptance: the census examines only the witness classes whose last code
carries the witness's mark, and a tuple whose argument codes lack theirs
counts 0 without a census.

Every layer reads the forest's own tables: levels, children and root paths
from ``EliminationForest``, each vertex's marks from ``ColoredForest.letters``.

A closure is described without building it: ``typed_shape_key`` records the
exact subtree codes along each entry's root path and, per pair of entries,
how many levels their root paths share.  Tuples with equal keys are
automorphic, so each counter memoizes its residues by the key of the
argument tuple, and materialization writes its shape test from it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .coloring import EliminationForest
from .forest_codec import ColoredForest, _pi_term, forest_structure, level_mark_name
from .logic import (
    EqAtom,
    Formula,
    MarkAtom,
    Not,
    Term,
    and_all,
    eval_naive,
    free_vars,
    moduli_of,
    or_all,
    quantifier_depth,
)

# how often each proof case fired; tests assert minimum coverage
CASE_COUNTER: Counter = Counter()


def reset_case_counters() -> None:
    CASE_COUNTER.clear()


# ---------------------------------------------------------------------------
# subtree type codes
# ---------------------------------------------------------------------------


class SubtreeTypeTable:
    """Canonical codes for the subtree below each vertex.

    With threshold=None codes are exact: equal codes iff the mark-preserving
    rooted subtrees are isomorphic.  With a threshold t and modulus B, child
    multiplicities are recorded as (min(count, t), count mod B), which is the
    coarsening used by the pruning evaluator.  ``path[v]`` lists the codes
    along v's root path, root first, and ``letters[tid]`` is the letter (the
    marks) of every vertex with code ``tid``.
    """

    def __init__(self, y: ColoredForest, threshold: Optional[int] = None, modulus: int = 1):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.threshold = threshold
        self.modulus = modulus
        self.forest = forest = y.forest
        letter = y.letters
        self.code: Dict[int, int] = {}
        self.letters: List[Tuple[str, ...]] = []
        self._intern: Dict[tuple, int] = {}
        # deepest level first, ids ascending within a level: the numbering
        # of exact codes shows in materialized mark names
        for v in sorted(forest.vertices, key=forest.level.__getitem__, reverse=True):
            counts = Counter(self.code[c] for c in forest.children[v])
            if threshold is None:
                summary = tuple(sorted(counts.items()))
            else:
                summary = tuple(sorted((c, (min(n, threshold), n % modulus)) for c, n in counts.items()))
            key = (letter[v], summary)
            tid = self._intern.get(key)
            if tid is None:
                tid = len(self._intern)
                self._intern[key] = tid
                self.letters.append(key[0])
            self.code[v] = tid
        self.path: Dict[int, Tuple[int, ...]] = {
            v: tuple(map(self.code.__getitem__, p)) for v, p in forest.path.items()
        }


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def _closure_vertices(forest: EliminationForest, vbar: Sequence[int]) -> List[int]:
    return sorted({u for v in vbar for u in forest.path[v]})


def typed_shape_key(codes: SubtreeTypeTable, vbar: Sequence[int]) -> tuple:
    """Canonical key of the closure of vbar with exact subtree codes: the
    codes along each entry's root path (root first), and for each pair of
    entries i < j the number of levels their root paths share.

    Paths and shared levels rebuild the labeled closure, and equal exact
    codes extend a match of closures to a forest automorphism, so tuples
    with equal keys are automorphic and any formula value at them agrees.
    """
    paths = codes.forest.path
    shared: List[int] = []
    for i, u in enumerate(vbar):
        pu = paths[u]
        for v in vbar[i + 1 :]:
            pv = paths[v]
            n, top = 0, min(len(pu), len(pv))
            while n < top and pu[n] == pv[n]:
                n += 1
            shared.append(n)
    return tuple(codes.path[v] for v in vbar), tuple(shared)


# ---------------------------------------------------------------------------
# eval_forest: prune to a bounded representative, then evaluate naively
# ---------------------------------------------------------------------------


def _kept_count(n: int, threshold: int, modulus: int) -> int:
    if n <= threshold:
        return n
    return threshold + ((n - threshold) % modulus)


def _prune(y: ColoredForest, table: SubtreeTypeTable, anchors: Sequence[int]) -> Tuple[ColoredForest, Dict[int, int]]:
    """Bounded-size forest satisfying the same formulas at the anchors."""
    forest = y.forest
    anchored = set(_closure_vertices(forest, anchors))
    parent: Dict[int, int] = {}
    copies: Dict[int, List[int]] = {}  # vertex of y -> its copies
    counter = itertools.count()

    def emit(v: int, new_parent: Optional[int]) -> None:
        nid = next(counter)
        parent[nid] = nid if new_parent is None else new_parent
        copies.setdefault(v, []).append(nid)
        emit_children(forest.children[v], nid)

    def emit_children(kids: Sequence[int], new_parent: Optional[int]) -> None:
        free_groups: Dict[int, List[int]] = {}
        for c in kids:
            if c in anchored:
                emit(c, new_parent)
            else:
                free_groups.setdefault(table.code[c], []).append(c)
        for code in sorted(free_groups):
            group = sorted(free_groups[code])
            keep = _kept_count(len(group), table.threshold, table.modulus)
            rep = group[0]
            for _ in range(keep):
                emit(rep, new_parent)

    emit_children(forest.roots, None)

    def remap(mark_table: dict) -> dict:
        return {k: tuple(nid for v in vs for nid in copies.get(v, ())) for k, vs in mark_table.items()}

    pruned = ColoredForest(
        EliminationForest(parent), y.signature, remap(y.marks), remap(y.edge_marks), remap(y.func_marks)
    )
    # an anchored vertex is copied once
    return pruned, {v: copies[v][0] for v in anchored}


def eval_forest(
    y: ColoredForest,
    phi: Formula,
    valuation: Optional[Dict[str, int]] = None,
    height_bound: Optional[int] = None,
) -> bool:
    """Evaluate a forest-vocabulary FOM formula; linear in the forest size.

    The forest is shrunk to a pruned representative whose child multiplicities
    are capped at quantifier depth + number of anchors + 1 (and reduced modulo
    the lcm of the formula's moduli beyond the cap), then evaluated naively.
    """
    if height_bound is not None and y.forest.height > height_bound:
        raise ValueError(f"forest height {y.forest.height} exceeds bound {height_bound}")
    nu = dict(valuation or {})
    verts = set(y.forest.vertices)
    for var, v in nu.items():
        if v not in verts:
            raise ValueError(f"valuation sends {var} to {v}, not a forest vertex")
    moduli = moduli_of(phi)
    big_b = math.lcm(*moduli) if moduli else 1
    threshold = quantifier_depth(phi) + len(nu) + 1
    table = SubtreeTypeTable(y, threshold=threshold, modulus=big_b)
    pruned, vmap = _prune(y, table, sorted(set(nu.values())))
    vocab_height = height_bound if height_bound is not None else (y.forest.height or None)
    fs = forest_structure(pruned, height=vocab_height)
    return eval_naive(fs, phi, {var: vmap[v] for var, v in nu.items()})


# ---------------------------------------------------------------------------
# modulo-quantifier elimination on a forest
# ---------------------------------------------------------------------------


class ForestTables:
    """Formula-independent census tables of one forest ``y``, shareable by
    counters: exact subtree codes, which record each code's letter, and, for
    every realized descending code-path, its occurrences below each vertex
    (``down``, listed per vertex in ``paths_from``) and from the roots
    (``n_table``, its paths sorted once in ``full_paths`` and grouped by
    their last code in ``paths_ending``), all read off the vertices' root
    paths."""

    def __init__(self, y: ColoredForest):
        self.y = y
        self.codes = SubtreeTypeTable(y)
        code_path = self.codes.path
        self.down = Counter(
            (path[d], code_path[w][d + 1 :])
            for w, path in y.forest.path.items()
            for d in range(len(path) - 1)
        )
        self.n_table = Counter(code_path.values())
        self.full_paths = sorted(self.n_table)
        self.paths_ending: Dict[int, List[Tuple[int, ...]]] = {}
        for q in self.full_paths:
            self.paths_ending.setdefault(q[-1], []).append(q)
        paths_from: Dict[int, List[Tuple[int, ...]]] = {}
        for (v, q) in self.down:
            paths_from.setdefault(v, []).append(q)
        self.paths_from = {v: sorted(qs) for v, qs in paths_from.items()}


class ModForestCounter:
    """Counts witnesses of one modulo quantifier over a fixed forest.

    For the formula ∃^{c mod b} y ς(x̄, y): residue(ν) returns the witness
    count mod b at ν, and materialize(c) produces an expanded forest plus a
    quantifier-free formula over parent compositions and residue marks.

    The census reads the forest's shared ``ForestTables`` and decides each
    witness class on one representative with ``accept``, a callback on
    valuations of ``xvars`` and ``yvar``.  ``guards`` maps variables to
    marks they must carry, conjoined with the callback: they are settled
    from exact codes, so only witness classes whose last code carries the
    witness's mark reach the callback, and an argument tuple whose codes
    lack its marks has residue 0 with no call.  The callback must be invariant
    under mark-preserving forest automorphisms (any evaluation against a
    structure the forest encodes qualifies, since decoding commutes with
    such automorphisms): tuples with equal ``typed_shape_key`` are
    automorphic, so residue(ν) is memoized by the key of ν's argument tuple,
    and materialization writes ζ's shape test from the same key.
    ``forest_counter`` builds a counter whose callback evaluates ς on the
    forest structure.
    """

    def __init__(
        self,
        tables: ForestTables,
        b: int,
        xvars: Tuple[str, ...],
        yvar: str,
        accept: Callable[[Dict[str, int]], bool],
        guards: Optional[Dict[str, str]] = None,
    ):
        if b < 1:
            raise ValueError("modulus must be positive")
        guards = guards or {}
        for var, mark in guards.items():
            if var != yvar and var not in xvars:
                raise ValueError(f"guard on {var!r}, which is neither an argument nor the witness")
            if mark not in tables.y.marks:
                raise ValueError(f"guard mark {mark!r} is not a mark of the forest")
        self.tables = tables
        self.y = tables.y
        self.forest = tables.y.forest
        self.codes = tables.codes
        self.b = b
        self.xvars = xvars
        self.yvar = yvar
        self._accept_fn = accept
        self._residues: Dict[tuple, int] = {}
        self._arg_guards = tuple((i, guards[x]) for i, x in enumerate(xvars) if x in guards)
        # the codes a witness may have (those of the witness mark's
        # vertices), and the root code paths ending in them
        mark = guards.get(yvar)
        if mark is None:
            self._witness_codes = frozenset(range(len(self.codes.letters)))
            self._full_paths = tables.full_paths
        else:
            self._witness_codes = frozenset(map(self.codes.code.__getitem__, self.y.marks[mark]))
            self._full_paths = sorted(
                q for t in self._witness_codes for q in tables.paths_ending.get(t, ())
            )

    # -- tables -------------------------------------------------------------

    def down(self, v: int, q: Tuple[int, ...]) -> int:
        if not q:
            return 1
        return self.tables.down.get((v, q), 0)

    def root_count(self, r: int, qfull: Tuple[int, ...]) -> int:
        if self.codes.code[r] != qfull[0]:
            return 0
        return self.down(r, qfull[1:])

    # -- acceptance ---------------------------------------------------------

    def _accept(self, vbar: Tuple[int, ...], w: int) -> bool:
        nu = dict(zip(self.xvars, vbar))
        nu[self.yvar] = w
        return self._accept_fn(nu)

    # -- witness search -----------------------------------------------------

    def _find_below(self, v: int, q: Tuple[int, ...], skip: FrozenSet[int] = frozenset()) -> Optional[int]:
        if not q:
            return v
        for c in self.forest.children[v]:
            if c in skip or self.codes.code[c] != q[0]:
                continue
            got = self._find_below(c, q[1:])
            if got is not None:
                return got
        return None

    # -- the census ---------------------------------------------------------

    def _closure_data(self, vbar: Tuple[int, ...]):
        forest = self.forest
        closure = _closure_vertices(forest, vbar)
        cset = set(closure)
        pinned: Dict[int, List[int]] = {
            s: [c for c in forest.children[s] if c in cset] for s in closure
        }
        roots = [v for v in closure if forest.parent[v] == v]
        return closure, pinned, roots

    def residue(self, valuation: Optional[Dict[str, int]] = None) -> int:
        nu = valuation or {}
        try:
            vbar = tuple(nu[x] for x in self.xvars)
        except KeyError as exc:
            raise ValueError(f"valuation missing variable {exc.args[0]!r}") from None
        key = typed_shape_key(self.codes, vbar)
        hit = self._residues.get(key)
        if hit is None:
            hit = self._residues[key] = self._residue_at(vbar)[0]
        return hit

    def _residue_at(self, vbar: Tuple[int, ...]) -> Tuple[int, list]:
        """Witness count mod b plus the class terms it was assembled from."""
        code, letters = self.codes.code, self.codes.letters
        if any(mark not in letters[code[vbar[i]]] for i, mark in self._arg_guards):
            return 0, []
        admitted = self._witness_codes
        closure, pinned, closure_roots = self._closure_data(vbar)
        total = 0
        terms: list = []
        for w in closure:
            if code[w] not in admitted:
                continue
            CASE_COUNTER["B"] += 1
            if self._accept(vbar, w):
                total += 1
                terms.append(("B", w))
        for s in closure:
            for q in self.tables.paths_from.get(s, ()):
                if q[-1] not in admitted:
                    continue
                cnt = self.down(s, q)
                for c in pinned[s]:
                    if self.codes.code[c] == q[0]:
                        cnt -= self.down(c, q[1:])
                if cnt % self.b == 0:
                    continue
                CASE_COUNTER["C"] += 1
                w = self._find_below(s, q, skip=frozenset(pinned[s]))
                assert w is not None, "positive census count must have a witness"
                if self._accept(vbar, w):
                    total += cnt
                    terms.append(("C", s, q, cnt))
        croots = set(closure_roots)
        for qfull in self._full_paths:
            cnt = self.tables.n_table[qfull] - sum(self.root_count(r, qfull) for r in closure_roots)
            if cnt % self.b == 0:
                continue
            CASE_COUNTER["A"] += 1
            w = None
            for r in self.forest.roots:
                if r in croots or self.codes.code[r] != qfull[0]:
                    continue
                w = self._find_below(r, qfull[1:])
                if w is not None:
                    break
            assert w is not None, "positive untouched-tree count must have a witness"
            if self._accept(vbar, w):
                total += cnt
                terms.append(("A", qfull, cnt))
        return total % self.b, terms

    # -- materialization ----------------------------------------------------

    def materialize(self, c: int, mark_prefix: str = "Z") -> Tuple[ColoredForest, Formula]:
        """Expanded forest plus a quantifier-free formula testing residue c.

        The formula is a disjunction over realized closure shapes: a shape
        test (level marks, parent-composition equalities, subtree-code marks)
        conjoined with residue-mark reads at the contributing positions.
        """
        if not 0 <= c < self.b:
            raise ValueError(f"residue {c} out of range for modulus {self.b}")
        domain = self.forest.vertices
        k = len(self.xvars)
        groups: Dict[tuple, Tuple[int, ...]] = {}
        for vbar in itertools.product(domain, repeat=k):
            key = typed_shape_key(self.codes, vbar)
            groups.setdefault(key, vbar)

        used_codes: Set[int] = set()
        used_paths: Dict[Tuple[str, Tuple[int, ...]], int] = {}

        def path_id(kind: str, q: Tuple[int, ...]) -> int:
            key = (kind, q)
            if key not in used_paths:
                used_paths[key] = len(used_paths)
            return used_paths[key]

        disjuncts: List[Formula] = []
        for key in sorted(groups):
            vbar = groups[key]
            total, terms = self._residue_at(vbar)
            if total != c:
                continue
            code_paths, shared = key
            levels = [len(q) for q in code_paths]
            conj: List[Formula] = [
                MarkAtom(level_mark_name(lvl), Term(x)) for x, lvl in zip(self.xvars, levels)
            ]
            for (i, j), meet in zip(itertools.combinations(range(k), 2), shared):
                xi, xj, li, lj = self.xvars[i], self.xvars[j], levels[i], levels[j]
                if meet >= 1:
                    conj.append(EqAtom(_pi_term(xi, li - meet), _pi_term(xj, lj - meet)))
                if meet < min(li, lj):
                    conj.append(Not(EqAtom(_pi_term(xi, li - meet - 1), _pi_term(xj, lj - meet - 1))))
            # each closure vertex as a parent composition of the first entry
            # whose root path reaches it, with its code mark
            pos_term: Dict[int, Term] = {}
            for x, v, q in zip(self.xvars, vbar, code_paths):
                path = self.forest.path[v]
                for d, u in enumerate(path):
                    if u not in pos_term:
                        pos_term[u] = _pi_term(x, len(path) - 1 - d)
                        used_codes.add(q[d])
                        conj.append(MarkAtom(f"{mark_prefix}Code{q[d]}", pos_term[u]))
            _, pinned, closure_roots = self._closure_data(vbar)
            # residue reads at the contributing positions (constant per shape)
            for term in terms:
                if term[0] == "C":
                    _, s, q, _cnt = term
                    qid = path_id("C", q)
                    r_blue = self.down(s, q) % self.b
                    conj.append(MarkAtom(f"{mark_prefix}Blue{qid}x{r_blue}", pos_term[s]))
                    for ch in pinned[s]:
                        r_green = (self.down(ch, q[1:]) if self.codes.code[ch] == q[0] else 0) % self.b
                        conj.append(MarkAtom(f"{mark_prefix}Green{qid}x{r_green}", pos_term[ch]))
                elif term[0] == "A":
                    _, qfull, _cnt = term
                    qid = path_id("A", qfull)
                    for r in closure_roots:
                        conj.append(
                            MarkAtom(f"{mark_prefix}Root{qid}x{self.root_count(r, qfull) % self.b}", pos_term[r])
                        )
            disjuncts.append(and_all(conj))

        zeta = or_all(disjuncts)
        y_star = self._expand_forest(used_codes, used_paths, mark_prefix)
        return y_star, zeta

    def _expand_forest(
        self,
        used_codes: Set[int],
        used_paths: Dict[Tuple[str, Tuple[int, ...]], int],
        mark_prefix: str,
    ) -> ColoredForest:
        new_marks: Dict[str, List[int]] = {}
        for tid in sorted(used_codes):
            new_marks[f"{mark_prefix}Code{tid}"] = [
                v for v in self.forest.vertices if self.codes.code[v] == tid
            ]
        for (kind, q), qid in sorted(used_paths.items(), key=lambda kv: kv[1]):
            for r in range(self.b):
                if kind == "C":
                    new_marks[f"{mark_prefix}Blue{qid}x{r}"] = [
                        v for v in self.forest.vertices if self.down(v, q) % self.b == r
                    ]
                    new_marks[f"{mark_prefix}Green{qid}x{r}"] = [
                        v
                        for v in self.forest.vertices
                        if ((self.down(v, q[1:]) if self.codes.code[v] == q[0] else 0) % self.b) == r
                    ]
                else:
                    new_marks[f"{mark_prefix}Root{qid}x{r}"] = [
                        v
                        for v in self.forest.vertices
                        if ((self.down(v, q[1:]) if self.codes.code[v] == q[0] else 0) % self.b) == r
                    ]
        sig = self.y.signature.with_relations(sorted(new_marks))
        marks = dict(self.y.marks)
        marks.update({name: tuple(vs) for name, vs in new_marks.items()})
        return ColoredForest(self.y.forest, sig, marks, dict(self.y.edge_marks), dict(self.y.func_marks))


def forest_counter(y: ColoredForest, sigma: Formula, b: int, yvar: Optional[str] = None) -> ModForestCounter:
    """Counter for ∃^{c mod b} y ς with ς over y's forest vocabulary,
    accepting by evaluating ς on the forest structure.  The witness
    variable defaults to ς's last free variable; the others, in order of
    first occurrence, are the arguments."""
    fv = free_vars(sigma)
    if yvar is None:
        if not fv:
            raise ValueError("witness variable must be given for a closed formula")
        yvar = fv[-1]
    fs = forest_structure(y)
    xvars = tuple(v for v in fv if v != yvar)
    return ModForestCounter(ForestTables(y), b, xvars, yvar, lambda nu: eval_naive(fs, sigma, nu))


def eliminate_mod_on_forest(
    y: ColoredForest,
    sigma: Formula,
    c: int,
    b: int,
    yvar: Optional[str] = None,
    height_bound: Optional[int] = None,
    mark_prefix: str = "Z",
) -> Tuple[ColoredForest, Formula]:
    """Rewrite ∃^{c mod b} y ς(x̄,y) into marks plus a quantifier-free test.

    Returns (Y*, ζ): Y* is the forest expanded with subtree-code and residue
    marks, ζ a quantifier-free formula over parent compositions and those
    marks with Y ⊨ ∃^{c mod b} y ς(v̄,y) iff Y* ⊨ ζ(v̄) for every v̄ of Y.
    ζ's shape disjunction covers the shapes realized in Y, so the guarantee
    is relative to this forest.
    """
    if height_bound is not None and y.forest.height > height_bound:
        raise ValueError(f"forest height {y.forest.height} exceeds bound {height_bound}")
    return forest_counter(y, sigma, b, yvar).materialize(c, mark_prefix=mark_prefix)
