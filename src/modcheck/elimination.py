"""Modulo-counting quantifier elimination over sparse guided structures.

Eliminating one quantifier ``Emod[a,b] y . rho(xbar, y)`` proceeds in four
moves:

1.  **Color types.**  Close the composition tuples appearing in ``rho`` under
    suffixes (so every intermediate stop of a function chain is named), obtain
    a centered coloring of the Gaifman graph, and tag every vertex with its
    *color type*: the tuple of colors of all those compositions, computed on
    the unrestricted structure.  Color classes and types are materialized as
    fresh unary marks.

2.  **Pieces.**  For each realized combination of argument types and witness
    type, restrict the expanded structure to the union of the color classes
    those types mention.  The restriction of the centered coloring stays
    centered there, so the piece peels into an elimination forest of bounded
    height.

3.  **Forest counters.**  Encode each piece as a colored forest and attach
    a residue counter for the type-guarded body.  The type marks of the
    arguments and the witness are the counter's guards, settled from the
    forest's exact subtree codes, so the census examines only witnesses of
    the piece's own type; each of those it accepts by evaluating the body on
    the piece itself.  Pieces over the same color classes share one encoded
    forest and its census tables.
    Because the types of the arguments and the witness pin every function
    chain of the body inside the piece, the piece-local witness count equals
    the global count of witnesses of that type — the clamped functions of the
    restriction never fire on the terms that matter.

4.  **Output formula.**  The residual formula reads, per argument tuple, the
    witness-count residues of the realized witness types and tests whether
    their sum hits the target residue.  It is quantifier-free: each read is a
    census on one piece's encoded forest, built on first use.

Nesting is handled innermost-first; an inner eliminated quantifier with at
most one free variable is materialized as a fresh unary mark, which keeps the
next matrix quantifier-free.  Every entry point runs the same rewrite.
Layers outside the fragment (plain exists/forall, and modulo quantifiers
whose matrices stay quantified) are not eliminated: ``eliminate`` keeps them
in the rewritten formula, where the naive evaluator reads them over the
expansion, and lists them in ``PipelineResult.left``; ``eliminate_all``
raises the first of them.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coloring import CenteredColoring, compute_p_centered, forest_from_centered
from .forest_codec import ColoredForest, encode_IY
from .forest_eval import ForestTables, ModForestCounter
from .logic import (
    And,
    BoolConst,
    EdgeAtom,
    EqAtom,
    Exists,
    Forall,
    Formula,
    MarkAtom,
    ModExists,
    Not,
    Or,
    Term,
    and_all,
    collect_term_tuples,
    eval_naive,
    free_vars,
    walk,
)
from .structures import (
    GuidedStructure,
    expand_monadic,
    gaifman,
    restrict,
    validate_guided,
)

logger = logging.getLogger("modcheck.elimination")

ColorType = Tuple[int, ...]

_PLAIN_NODES = (And, Or, Not, BoolConst, EdgeAtom, EqAtom, MarkAtom)


class UnsupportedFragmentError(ValueError):
    """A layer outside the supported modulo-prenex fragment; ``node`` is it."""

    def __init__(self, message: str, node: Optional[Formula] = None):
        super().__init__(message)
        self.node = node


def _plain_quantifier_free(phi: Formula) -> bool:
    """True when every node is a core Boolean/atomic node (no quantifiers,
    no structure-relative residue nodes)."""
    return all(isinstance(n, _PLAIN_NODES) for n in walk(phi))


# ---------------------------------------------------------------------------
# color types
# ---------------------------------------------------------------------------


def suffix_closure(tuples: Iterable[Tuple[int, ...]]) -> Tuple[Tuple[int, ...], ...]:
    """Close composition tuples under trailing subtuples; always contains ().

    Compositions are written outermost-first, so the trailing subtuples are
    exactly the intermediate stops when a chain is applied to a vertex.
    """
    out = {()}
    for alpha in tuples:
        alpha = tuple(alpha)
        for i in range(len(alpha)):
            out.add(alpha[i:])
    return tuple(sorted(out))


def apply_composition(m: GuidedStructure, alpha: Tuple[int, ...], v: int) -> int:
    """Apply a composition tuple (1-based function indices, outermost first)."""
    names = m.signature.unary_functions
    for idx in reversed(alpha):
        v = m.functions[names[idx - 1]][v]
    return v


def color_type_of(
    m: GuidedStructure,
    colors: Dict[int, int],
    compositions: Sequence[Tuple[int, ...]],
    v: int,
) -> ColorType:
    """The colors of all tracked compositions applied to ``v``, in order."""
    return tuple(colors[apply_composition(m, alpha, v)] for alpha in compositions)


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


@dataclass
class Piece:
    """One restriction of the expanded structure, with its forest counter.

    ``forest`` is the piece's encoded elimination forest, shared with every
    piece over the same color classes.  ``sigma`` is the type-guarded body
    the counter decides: the type marks of the key on every variable (the
    guards), conjoined with the quantified body, over the piece's own
    vocabulary.  ``counter`` counts its witnesses on ``forest``: it settles
    the guards from the forest's exact codes and accepts a witness class by
    evaluating the body on the piece itself.
    """

    key: Tuple[Tuple[int, ...], int]
    name: str
    colors: Tuple[int, ...]
    domain: Tuple[int, ...]
    forest: ColoredForest
    sigma: Formula
    counter: ModForestCounter


# ---------------------------------------------------------------------------
# one quantifier
# ---------------------------------------------------------------------------


class ZetaFormula(Formula):
    """Residual formula of one elimination: a structure-relative residue test.

    Quantifier-free; evaluation reads the witness-count residues of the
    realized witness types for the bound argument types and compares their
    sum with the target.  Carries explicit terms so free-variable discovery
    sees the argument variables.
    """

    def __init__(self, result: "EliminationResult"):
        self.result = result
        self.terms = tuple(Term(x) for x in result.xvars)

    def _custom_eval(self, m, valuation, recurse) -> bool:
        return self.result.eval(valuation)

    def __repr__(self) -> str:  # deterministic, cycle-free
        r = self.result
        return (
            f"ZetaFormula(args={list(r.xvars)!r}, target={r.a}, "
            f"modulus={r.b}, witness_types={len(r.types)})"
        )


@dataclass
class EliminationResult:
    """Expanded structure plus the residual formula for one eliminated
    modulo-counting quantifier.

    ``m_star`` carries the color-class and color-type marks.  Pieces (with
    their encoded forests and residue counters) are created on demand,
    keyed by realized argument/witness types; pieces over the same color
    classes share one base: restriction, forest, encoding and census tables.
    """

    m_star: GuidedStructure
    a: int
    b: int
    yvar: str
    xvars: Tuple[str, ...]
    rho: Formula
    compositions: Tuple[Tuple[int, ...], ...]
    p: int
    coloring: CenteredColoring
    types: Tuple[ColorType, ...]
    type_of: Dict[int, int]
    prefix: str
    _classes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _pieces: Dict[Tuple[Tuple[int, ...], int], Piece] = field(default_factory=dict)
    _bases: Dict[Tuple[int, ...], tuple] = field(default_factory=dict)  # colors -> base

    @property
    def zeta(self) -> ZetaFormula:
        """The residual formula, built on read: the result keeps no
        reference to it, so the two form no reference cycle."""
        return ZetaFormula(self)

    # -- mark naming ------------------------------------------------------

    def type_mark(self, type_index: int) -> str:
        return f"{self.prefix}t{type_index}"

    # -- pieces -----------------------------------------------------------

    def piece(self, tbar_idx: Sequence[int], t_idx: int) -> Piece:
        """Build (or fetch) the piece for argument types ``tbar_idx`` and
        witness type ``t_idx`` (indices into ``types``)."""
        key = (tuple(tbar_idx), int(t_idx))
        cached = self._pieces.get(key)
        if cached is not None:
            return cached
        for i in (*key[0], key[1]):
            if not 0 <= i < len(self.types):
                raise ValueError(f"unrealized type index {i}")
        if len(key[0]) != len(self.xvars):
            raise ValueError("one argument type per argument variable is required")

        used = sorted({c for i in (*key[0], key[1]) for c in self.types[i]})
        base = self._bases.get(tuple(used))
        if base is None:
            domain = sorted({v for c in used for v in self._classes.get(c, ())})
            piece_struct = restrict(self.m_star, domain)
            encoded = encode_IY(piece_struct, forest_from_centered(piece_struct, self.coloring))
            base = (piece_struct, encoded, ForestTables(encoded))
            self._bases[tuple(used)] = base
        piece_struct, encoded, tables = base
        guards = dict(zip(self.xvars, map(self.type_mark, key[0])))
        guards[self.yvar] = self.type_mark(key[1])
        sigma = and_all(
            [MarkAtom(mark, Term(var)) for var, mark in guards.items()] + [self.rho]
        )
        # The counter settles the type guards from the forest's exact codes,
        # which record every vertex's marks; acceptance evaluates only the
        # quantifier-free body, on the piece itself: extensionally equal to
        # evaluating its pullback on the forest (the encoding is faithful),
        # and free of the pullback's term-flattening quantifiers, so each
        # acceptance call is a few atom reads.  It is invariant under the
        # forest's automorphisms, as the counter's residue memo requires,
        # because the piece decodes from the forest.  The callback holds
        # rho, not self, so a finished result forms no reference cycle.
        rho = self.rho
        counter = ModForestCounter(
            tables,
            self.b,
            self.xvars,
            self.yvar,
            lambda nu: eval_naive(piece_struct, rho, nu),
            guards,
        )
        name = "{}p{}w{}".format(
            self.prefix, "_".join(map(str, key[0])), key[1]
        )
        piece = Piece(
            key=key,
            name=name,
            colors=tuple(used),
            domain=tuple(piece_struct.domain),
            forest=encoded,
            sigma=sigma,
            counter=counter,
        )
        self._pieces[key] = piece
        return piece

    def pieces_materialized(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        return tuple(sorted(self._pieces))

    # -- evaluation -------------------------------------------------------

    def _argument_types(self, valuation: Dict[str, int]) -> Tuple[int, ...]:
        vbar = []
        for x in self.xvars:
            if x not in valuation:
                raise ValueError(f"argument variable {x!r} is unbound")
            vbar.append(valuation[x])
        for v in vbar:
            if v not in self.type_of:
                raise ValueError(f"vertex {v} is outside the domain")
        return tuple(self.type_of[v] for v in vbar)

    def residue(self, tbar_idx: Sequence[int], t_idx: int, valuation: Dict[str, int]) -> int:
        """Witness-count residue of one piece at one argument tuple.

        The argument vertices must realize exactly the argument types of the
        piece — that is the regime in which the piece-local count equals the
        global count of witnesses of the piece's witness type.
        """
        tbar_idx = tuple(tbar_idx)
        actual = self._argument_types(valuation)
        if actual != tbar_idx:
            raise ValueError(
                f"argument types {actual} do not match the piece key {tbar_idx}"
            )
        nu = {x: valuation[x] for x in self.xvars}
        return self.piece(tbar_idx, t_idx).counter.residue(nu)

    def residue_vector(self, valuation: Dict[str, int]) -> Dict[int, int]:
        """Residues of every realized witness type at one argument tuple."""
        tbar = self._argument_types(valuation)
        nu = {x: valuation[x] for x in self.xvars}
        return {
            t_idx: self.piece(tbar, t_idx).counter.residue(nu)
            for t_idx in range(len(self.types))
        }

    def total_residue(self, valuation: Dict[str, int]) -> int:
        """Residue of the full witness count at one argument tuple."""
        return sum(self.residue_vector(valuation).values()) % self.b

    def eval(self, valuation: Dict[str, int]) -> bool:
        """The residual formula's verdict at one argument tuple."""
        return self.total_residue(valuation) == self.a

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        """Canonical JSON identity of the elimination (cache state excluded)."""
        payload = {
            "kind": "modulo-elimination",
            "target": self.a,
            "modulus": self.b,
            "witness": self.yvar,
            "arguments": list(self.xvars),
            "body": repr(self.rho),
            "compositions": [list(t) for t in self.compositions],
            "colors_used": self.p,
            "coloring": sorted(self.coloring.colors.items()),
            "types": [list(t) for t in self.types],
            "type_of": sorted(self.type_of.items()),
            "marks": sorted(self.m_star.signature.unary_relations),
            "zeta": repr(self.zeta),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fresh_prefix(sig, base: str) -> str:
    """A deterministic mark-name prefix no existing relation starts with."""
    candidates = itertools.chain([base], (f"{base}{i}" for i in itertools.count()))
    for prefix in candidates:
        if not any(r.startswith(prefix) for r in sig.unary_relations):
            return prefix
    raise AssertionError("unreachable")


def eliminate_one(
    m: GuidedStructure,
    a: int,
    b: int,
    rho: Formula,
    yvar: str,
    prefix: str = "Q",
) -> EliminationResult:
    """Eliminate ``Emod[a,b] yvar . rho`` over a guided structure.

    ``rho`` must be quantifier-free over the structure's signature.  The
    result's ``eval`` agrees with the naive verdict at every argument tuple;
    its ``zeta`` is a quantifier-free structure-relative node usable inside
    larger formulas.  New mark names start with ``prefix``, extended with a
    number if an existing relation already starts with it.
    """
    if b < 1:
        raise ValueError("modulus must be at least 1")
    a %= b
    if not _plain_quantifier_free(rho):
        raise UnsupportedFragmentError(
            "the body of an eliminated quantifier must be quantifier-free", rho
        )
    validate_guided(m)

    fv = free_vars(rho)
    xvars = tuple(v for v in fv if v != yvar)
    compositions = suffix_closure(collect_term_tuples(rho))
    n_funcs = len(m.signature.unary_functions)
    for alpha in compositions:
        if any(not 1 <= i <= n_funcs for i in alpha):
            raise ValueError(f"composition {alpha} names an unknown function")

    k = len(xvars)
    p = (k + 1) * len(compositions)
    coloring = compute_p_centered(gaifman(m), p + 1)

    classes: Dict[int, List[int]] = {}
    for v in m.domain:
        classes.setdefault(coloring.colors[v], []).append(v)

    vertex_type = {
        v: color_type_of(m, coloring.colors, compositions, v) for v in m.domain
    }
    type_list: List[ColorType] = sorted(set(vertex_type.values()))
    type_index = {t: i for i, t in enumerate(type_list)}
    type_of = {v: type_index[t] for v, t in vertex_type.items()}

    prefix = _fresh_prefix(m.signature, prefix)
    new_marks: Dict[str, Iterable[int]] = {
        f"{prefix}c{c}": vs for c, vs in classes.items()
    }
    for i in range(len(type_list)):
        new_marks[f"{prefix}t{i}"] = [v for v in m.domain if type_of[v] == i]
    m_star = expand_monadic(m, new_marks)

    result = EliminationResult(
        m_star=m_star,
        a=a,
        b=b,
        yvar=yvar,
        xvars=xvars,
        rho=rho,
        compositions=compositions,
        p=p,
        coloring=coloring,
        types=tuple(type_list),
        type_of=type_of,
        prefix=prefix,
    )
    result._classes = {c: tuple(vs) for c, vs in classes.items()}
    return result


# ---------------------------------------------------------------------------
# nesting
# ---------------------------------------------------------------------------


@dataclass
class StageReport:
    stage: int
    witness: str
    arity: int
    n_compositions: int
    p: int
    n_colors: int
    n_types: int
    materialized_mark: Optional[str]
    constant_folded: Optional[bool]


@dataclass
class RunReport:
    stages: List[StageReport] = field(default_factory=list)


@dataclass
class PipelineResult:
    """Cumulative expansion and rewritten formula after nested eliminations.

    ``left`` holds one ``UnsupportedFragmentError`` per layer outside the
    fragment, in the order the rewrite met them; each layer stays in ``zeta``
    and is read by the naive evaluator.
    """

    m_star: GuidedStructure
    phi: Formula
    zeta: Formula
    stages: Tuple[EliminationResult, ...]
    report: RunReport
    left: Tuple[UnsupportedFragmentError, ...]

    def eval(self, valuation: Optional[Dict[str, int]] = None) -> bool:
        return eval_naive(self.m_star, self.zeta, valuation)

    def count(self) -> int:
        """Number of vertices satisfying a formula with one free variable."""
        fv = free_vars(self.phi)
        if len(fv) != 1:
            raise ValueError(
                f"counting needs exactly one free variable, got {list(fv) or 'none'}"
            )
        return sum(1 for v in self.m_star.domain if self.eval({fv[0]: v}))

    def serialize(self) -> str:
        payload = {
            "kind": "modulo-elimination-pipeline",
            "input": repr(self.phi),
            "output": repr(self.zeta),
            "marks": sorted(self.m_star.signature.unary_relations),
            "stages": [json.loads(s.serialize()) for s in self.stages],
            "notices": [str(e) for e in self.left],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Rewriter:
    """Innermost-first elimination of modulo quantifiers.

    The fragment: Boolean combinations and modulo quantifiers whose matrices
    are quantifier-free after inner eliminations.  A layer outside it stays
    in place, rewritten inside, and is recorded in ``left``: a plain
    quantifier before its body is rewritten, a modulo quantifier after.
    The state lives on the instance, not in a recursive closure, so a
    finished run is freed without the cycle collector.
    """

    def __init__(self, m: GuidedStructure):
        self.working = m
        self.stages: List[EliminationResult] = []
        self.report = RunReport()
        self.left: List[UnsupportedFragmentError] = []

    def rec(self, node: Formula) -> Formula:
        if isinstance(node, (EdgeAtom, EqAtom, MarkAtom, BoolConst)):
            return node
        if isinstance(node, Not):
            return Not(self.rec(node.sub))
        if isinstance(node, And):
            return And(self.rec(node.left), self.rec(node.right))
        if isinstance(node, Or):
            return Or(self.rec(node.left), self.rec(node.right))
        if isinstance(node, (Exists, Forall)):
            kind = "exists" if isinstance(node, Exists) else "forall"
            self.left.append(UnsupportedFragmentError(
                f"plain {kind} quantifier on {node.var!r} is outside the "
                "modulo-prenex fragment",
                node,
            ))
            return type(node)(node.var, self.rec(node.body))
        if isinstance(node, ModExists):
            body = self.rec(node.body)
            if not _plain_quantifier_free(body):
                self.left.append(UnsupportedFragmentError(
                    f"matrix of the modulo quantifier on {node.var!r} is not "
                    "quantifier-free after inner eliminations",
                    node,
                ))
                return ModExists(node.residue, node.modulus, node.var, body)
            stage = len(self.stages)
            res = eliminate_one(
                self.working, node.residue, node.modulus, body, node.var, f"Q{stage}_"
            )
            self.stages.append(res)
            self.working = res.m_star
            k = len(res.xvars)
            entry = StageReport(
                stage=stage,
                witness=node.var,
                arity=k,
                n_compositions=len(res.compositions),
                p=res.p,
                n_colors=len(res._classes),
                n_types=len(res.types),
                materialized_mark=None,
                constant_folded=None,
            )
            self.report.stages.append(entry)
            if k == 0:
                value = res.eval({})
                entry.constant_folded = value
                return BoolConst(value)
            if k == 1:
                mark = f"{res.prefix}m"
                xvar = res.xvars[0]
                hits = [v for v in self.working.domain if res.eval({xvar: v})]
                self.working = expand_monadic(self.working, {mark: hits})
                entry.materialized_mark = mark
                return MarkAtom(mark, Term(xvar))
            return res.zeta
        raise UnsupportedFragmentError(
            f"unsupported formula node {type(node).__name__}", node
        )


def eliminate(m: GuidedStructure, phi: Formula) -> PipelineResult:
    """Eliminate every modulo quantifier the fragment reaches.

    Layers outside the fragment stay in the rewritten formula for the naive
    evaluator; each is logged at INFO and listed in ``left``.  A node that is
    not a formula raises ``UnsupportedFragmentError``.  A quantifier-free
    input is returned unchanged.
    """
    rw = _Rewriter(m)
    zeta = rw.rec(phi)
    for exc in rw.left:
        logger.info("%s; left to the naive evaluator", exc)
    return PipelineResult(
        m_star=rw.working,
        phi=phi,
        zeta=zeta,
        stages=tuple(rw.stages),
        report=rw.report,
        left=tuple(rw.left),
    )


def eliminate_all(m: GuidedStructure, phi: Formula) -> PipelineResult:
    """``eliminate`` on a modulo-prenex formula: a layer outside the fragment
    raises, the first one met, as ``UnsupportedFragmentError`` naming it."""
    run = eliminate(m, phi)
    if run.left:
        raise run.left[0]
    return run


# ---------------------------------------------------------------------------
# evaluation entry points
# ---------------------------------------------------------------------------


def eval_pipeline(
    m: GuidedStructure,
    phi: Formula,
    valuation: Optional[Dict[str, int]] = None,
) -> bool:
    """Truth value of any supported formula: ``eliminate``, then evaluate."""
    return eliminate(m, phi).eval(valuation)


def count_definable(m: GuidedStructure, phi: Formula) -> int:
    """Number of vertices satisfying a one-free-variable formula:
    ``eliminate`` once, then evaluate the rewritten formula per vertex."""
    return eliminate(m, phi).count()
