"""Encoding guided structures into colored forests and back.

A bounded-tree-depth guided structure embeds into an elimination forest of
its Gaifman graph: every edge and every function arc joins a vertex to one of
its ancestors.  The encoder records those arcs as unary marks on the deeper
endpoint -- edge marks ``TE_j_i`` ("this level-i vertex is adjacent to its
level-j ancestor") and function marks ``Tf_<f>_j_i_<eps>`` (eps=1: f of this
vertex is its level-j ancestor; eps=0: f of the level-j ancestor is this
vertex).  The decoder rebuilds the structure from the marks alone, so the
forest plus marks is a lossless re-presentation: decode(encode(M, F)) == M.

Formulas over the source vocabulary translate to formulas over the forest
vocabulary (parent compositions, level marks, codec marks) via pullback_IS.
The elimination pipeline tests acceptance on each piece itself and
materializes residues through the piece's own counter, so no program path
calls pullback_IS: the tests use it to check a piece's residual formula
against the pulled-back body, and the benchmark's tracer wraps it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .coloring import EliminationForest
from .logic import (
    And,
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
    atom_terms,
    or_all,
    walk,
)
from .structures import GraphFormatError, GuidedStructure, Signature, _read_ints, _read_lines


class DecodeConflictError(ValueError):
    """Two codec marks claim distinct images for the same function argument."""


PARENT_FUNCTION = "pi"

_EDGE_MARK_RE = re.compile(r"^TE_(\d+)_(\d+)$")
_FUNC_MARK_RE = re.compile(r"^Tf_(.+)_(\d+)_(\d+)_([01])$")


def level_mark_name(i: int) -> str:
    return f"Lvl{i}"


def edge_mark_name(j: int, i: int) -> str:
    return f"TE_{j}_{i}"


def func_mark_name(fname: str, j: int, i: int, eps: int) -> str:
    return f"Tf_{fname}_{j}_{i}_{eps}"


def _check_reserved(names: Iterable[str]) -> None:
    for name in names:
        if name.startswith(("Lvl", "TE_", "Tf_")) or name == PARENT_FUNCTION:
            raise ValueError(f"source symbol {name!r} collides with the forest vocabulary")


def _check_mark_levels(kind: str, j: int, i: int, vs: Iterable[int], level: Dict[int, int]) -> None:
    """A codec mark (j, i) sits on level-i vertices and points up to level j."""
    if not 1 <= j < i:
        raise ValueError(f"bad {kind} mark levels ({j},{i})")
    for v in vs:
        if level.get(v) != i:
            raise ValueError(f"{kind} mark ({j},{i}) on vertex {v} not at level {i}")


@dataclass
class ColoredForest:
    """An elimination forest plus the codec's mark tables.

    marks: the source structure's unary relations (all of them present).
    edge_marks[(j, i)]: level-i vertices adjacent to their level-j ancestor.
    func_marks[(f, j, i, eps)]: see module docstring; the mark always sits on
    the deeper (level-i) endpoint of the arc.
    letters: the three tables inverted per vertex, built when first read.

    Use the constructor, which checks and normalizes, for tables from outside
    the package, and ``_assemble``, which checks nothing, for tables that
    hold its checks and are in its normal form (one sorted tuple per
    relation in signature order, codec tables sorted by key, each a nonempty
    sorted tuple), as the package's own builders make them.
    """

    forest: EliminationForest
    signature: Signature
    marks: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    edge_marks: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)
    func_marks: Dict[Tuple[str, int, int, int], Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        verts = set(self.forest.parent)
        _check_reserved(self.signature.unary_relations + self.signature.unary_functions)
        norm_marks = {}
        for name in self.signature.unary_relations:
            vs = tuple(sorted(set(self.marks.get(name, ()))))
            if not set(vs) <= verts:
                raise ValueError(f"mark {name!r} leaves the forest")
            norm_marks[name] = vs
        unknown = set(self.marks) - set(self.signature.unary_relations)
        if unknown:
            raise ValueError(f"marks {sorted(unknown)} missing from signature")
        self.marks = norm_marks
        lvl = self.forest.level
        emarks = {}
        for (j, i), vs in sorted(self.edge_marks.items()):
            vs = tuple(sorted(set(vs)))
            _check_mark_levels("edge", j, i, vs, lvl)
            if vs:
                emarks[(j, i)] = vs
        self.edge_marks = emarks
        fmarks = {}
        for (fname, j, i, eps), vs in sorted(self.func_marks.items()):
            if not self.signature.has_function(fname):
                raise ValueError(f"function mark for unknown function {fname!r}")
            if eps not in (0, 1):
                raise ValueError(f"bad function mark key ({fname},{j},{i},{eps})")
            vs = tuple(sorted(set(vs)))
            _check_mark_levels("function", j, i, vs, lvl)
            if vs:
                fmarks[(fname, j, i, eps)] = vs
        self.func_marks = fmarks

    @classmethod
    def _assemble(cls, forest, signature, marks, edge_marks, func_marks) -> "ColoredForest":
        out = cls.__new__(cls)
        out.forest, out.signature, out.marks = forest, signature, marks
        out.edge_marks, out.func_marks = edge_marks, func_marks
        return out

    @property
    def height(self) -> int:
        return self.forest.height

    @cached_property
    def letters(self) -> Dict[int, Tuple[str, ...]]:
        """Vertex -> names of its marks: source marks in signature order,
        then edge marks and function marks by key."""
        out: Dict[int, List[str]] = {v: [] for v in self.forest.vertices}
        tables = list(self.marks.items())
        tables += [(edge_mark_name(*key), vs) for key, vs in sorted(self.edge_marks.items())]
        tables += [(func_mark_name(*key), vs) for key, vs in sorted(self.func_marks.items())]
        for name, vs in tables:
            for v in vs:
                out[v].append(name)
        return {v: tuple(names) for v, names in out.items()}


def validate_codec_marks(y: ColoredForest) -> None:
    """Function marks ride on adjacencies: every Tf mark implies the TE mark."""
    for (fname, j, i, eps), vs in sorted(y.func_marks.items()):
        edge_vs = set(y.edge_marks.get((j, i), ()))
        stray = sorted(set(vs) - edge_vs)
        if stray:
            raise ValueError(
                f"function mark ({fname},{j},{i},{eps}) on {stray[0]} lacks the edge mark ({j},{i})"
            )


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def encode_IY(m: GuidedStructure, forest: EliminationForest) -> ColoredForest:
    """Re-present a guided structure as marks on an elimination forest.

    The forest must span exactly the domain, and every Gaifman edge of the
    structure must join an ancestor to a descendant.  Its names are checked
    against the forest vocabulary: all other checks hold by construction.
    """
    _check_reserved(m.signature.unary_relations + m.signature.unary_functions)
    if set(forest.parent) != set(m.domain):
        raise ValueError("forest vertex set differs from the structure's domain")
    lvl = forest.level
    edge_marks: Dict[Tuple[int, int], List[int]] = {}
    for u, v in m.edges:
        if forest.is_ancestor(u, v):
            anc, desc = u, v
        elif forest.is_ancestor(v, u):
            anc, desc = v, u
        else:
            raise ValueError(f"edge ({u},{v}) is not ancestor-descendant in the forest")
        edge_marks.setdefault((lvl[anc], lvl[desc]), []).append(desc)
    func_marks: Dict[Tuple[str, int, int, int], List[int]] = {}
    for fname in m.signature.unary_functions:
        fmap = m.functions[fname]
        for v in m.domain:
            w = fmap[v]
            if w == v:
                continue
            if forest.is_ancestor(w, v):
                func_marks.setdefault((fname, lvl[w], lvl[v], 1), []).append(v)
            elif forest.is_ancestor(v, w):
                func_marks.setdefault((fname, lvl[v], lvl[w], 0), []).append(w)
            else:
                raise ValueError(f"function arc {fname}({v})={w} is not ancestor-descendant in the forest")
    # a vertex has one ancestor per level, so no table lists a vertex twice
    return ColoredForest._assemble(
        forest,
        m.signature,
        m.marks,
        {k: tuple(sorted(vs)) for k, vs in sorted(edge_marks.items())},
        {k: tuple(sorted(vs)) for k, vs in sorted(func_marks.items())},
    )


def decode_IS(y: ColoredForest) -> GuidedStructure:
    """Rebuild the guided structure a colored forest encodes.

    Unset function entries default to the identity; two marks claiming
    distinct images for one argument is a hard DecodeConflictError.
    """
    forest = y.forest
    domain = forest.vertices
    edges = set()
    for (j, i), vs in y.edge_marks.items():
        for v in vs:
            anc = forest.ancestor_at_level(v, j)
            edges.add((anc, v) if anc < v else (v, anc))
    functions: Dict[str, Dict[int, int]] = {f: {} for f in y.signature.unary_functions}
    for (fname, j, i, eps), vs in sorted(y.func_marks.items()):
        fmap = functions[fname]
        for v in vs:
            anc = forest.ancestor_at_level(v, j)
            arg, img = (v, anc) if eps == 1 else (anc, v)
            if fmap.setdefault(arg, img) != img:
                raise DecodeConflictError(f"conflicting images {fmap[arg]} and {img} for {fname}({arg})")
    for fmap in functions.values():
        for v in domain:
            fmap.setdefault(v, v)
    # y's own checks cover the constructor's
    return GuidedStructure._assemble(y.signature, domain, tuple(sorted(edges)), dict(y.marks), functions)


# ---------------------------------------------------------------------------
# the forest as a structure of its own
# ---------------------------------------------------------------------------


def forest_signature(sig: Signature, height: int) -> Signature:
    """Forest vocabulary: source marks + level marks + codec marks + parent."""
    names = list(sig.unary_relations)
    names += [level_mark_name(i) for i in range(1, height + 1)]
    for i in range(2, height + 1):
        for j in range(1, i):
            names.append(edge_mark_name(j, i))
    for fname in sig.unary_functions:
        for i in range(2, height + 1):
            for j in range(1, i):
                for eps in (0, 1):
                    names.append(func_mark_name(fname, j, i, eps))
    return Signature(tuple(names), (PARENT_FUNCTION,))


def forest_structure(y: ColoredForest, height: Optional[int] = None) -> GuidedStructure:
    """The forest with all its marks, as a guided structure over pi.

    The vocabulary is padded up to the given height so formulas produced by
    pullback_IS at that height evaluate directly.
    """
    h = y.forest.height if height is None else height
    if h < y.forest.height:
        raise ValueError(f"height {h} below forest height {y.forest.height}")
    sig = forest_signature(y.signature, h)
    marks: Dict[str, Tuple[int, ...]] = dict(y.marks)
    by_level: Dict[int, List[int]] = {}
    for v in y.forest.vertices:
        by_level.setdefault(y.forest.level[v], []).append(v)
    for i in range(1, h + 1):
        marks[level_mark_name(i)] = tuple(by_level.get(i, ()))
    for i in range(2, h + 1):
        for j in range(1, i):
            marks[edge_mark_name(j, i)] = y.edge_marks.get((j, i), ())
    for fname in y.signature.unary_functions:
        for i in range(2, h + 1):
            for j in range(1, i):
                for eps in (0, 1):
                    marks[func_mark_name(fname, j, i, eps)] = y.func_marks.get((fname, j, i, eps), ())
    edges = sorted((p, v) if p < v else (v, p) for v, p in y.forest.parent.items() if p != v)
    functions = {PARENT_FUNCTION: dict(y.forest.parent)}
    return GuidedStructure._assemble(sig, y.forest.vertices, tuple(edges), marks, functions)


# ---------------------------------------------------------------------------
# formula pullback
# ---------------------------------------------------------------------------


def _pi_term(var: str, steps: int) -> Term:
    return Term(var, (1,) * steps)  # pi is the only forest function


def _lvl(i: int, var: str) -> Formula:
    return MarkAtom(level_mark_name(i), Term(var))


def _edge_rule(a: str, b: str, height: int) -> Formula:
    """a and b are adjacent in the decoded structure."""
    parts: List[Formula] = []
    for deep, shallow in ((b, a), (a, b)):
        for i in range(2, height + 1):
            for j in range(1, i):
                parts.append(
                    and_all(
                        [
                            _lvl(i, deep),
                            MarkAtom(edge_mark_name(j, i), Term(deep)),
                            EqAtom(Term(shallow), _pi_term(deep, i - j)),
                        ]
                    )
                )
    return or_all(parts)


def _graph_of(fname: str, x: str, u: str, height: int, fresh) -> Formula:
    """u = f(x) in the decoded structure, over the forest vocabulary.

    Three sources of truth: x carries an eps=1 mark and u is the matching
    ancestor; u carries an eps=0 mark with x as the matching ancestor; or no
    mark anywhere claims an image for x, which defaults it to u = x.
    """
    up: List[Formula] = []      # u = f(x), u an ancestor of x
    down: List[Formula] = []    # u = f(x), u a descendant of x
    claims_up: List[Formula] = []   # x claims some ancestor image
    for i in range(2, height + 1):
        for j in range(1, i):
            has_up = And(_lvl(i, x), MarkAtom(func_mark_name(fname, j, i, 1), Term(x)))
            claims_up.append(has_up)
            up.append(And(has_up, EqAtom(Term(u), _pi_term(x, i - j))))
            down.append(
                and_all(
                    [
                        _lvl(i, u),
                        MarkAtom(func_mark_name(fname, j, i, 0), Term(u)),
                        EqAtom(Term(x), _pi_term(u, i - j)),
                    ]
                )
            )
    w = fresh()
    claims_down = [
        and_all(
            [
                _lvl(i, w),
                MarkAtom(func_mark_name(fname, j, i, 0), Term(w)),
                EqAtom(Term(x), _pi_term(w, i - j)),
            ]
        )
        for i in range(2, height + 1)
        for j in range(1, i)
    ]
    no_image = And(Not(or_all(claims_up)), Not(Exists(w, or_all(claims_down))))
    return or_all([or_all(up), or_all(down), And(no_image, EqAtom(Term(u), Term(x)))])


def pullback_IS(phi: Formula, sig: Signature, height: int) -> Formula:
    """Translate a source-vocabulary formula to the forest vocabulary.

    The result holds on forest_structure(Y, height) exactly when the source
    formula holds on decode_IS(Y), for any colored forest Y of this height
    over this signature.  Composite terms are flattened through existential
    variables (sound because decoded functions are total).
    """
    used = set(sig.unary_relations) | set(sig.unary_functions) | {PARENT_FUNCTION}
    for node in walk(phi):
        if isinstance(node, (Exists, Forall, ModExists)):
            used.add(node.var)
    for t in atom_terms(phi):
        used.add(t.var)
    counter = itertools.count()

    def fresh() -> str:
        while True:
            name = f"w{next(counter)}"
            if name not in used:
                used.add(name)
                return name

    def flatten_term(t: Term, conds: List[Formula], bound: List[str]) -> str:
        cur = t.var
        for fidx in reversed(t.funcs):
            nxt = fresh()
            bound.append(nxt)
            conds.append(_graph_of(sig.function_name(fidx), cur, nxt, height, fresh))
            cur = nxt
        return cur

    def wrap(core: Formula, conds: List[Formula], bound: List[str]) -> Formula:
        body = and_all(conds + [core])
        for var in reversed(bound):
            body = Exists(var, body)
        return body

    def go(f: Formula) -> Formula:
        if isinstance(f, EdgeAtom):
            conds: List[Formula] = []
            bound: List[str] = []
            a = flatten_term(f.left, conds, bound)
            b = flatten_term(f.right, conds, bound)
            return wrap(_edge_rule(a, b, height), conds, bound)
        if isinstance(f, MarkAtom):
            conds, bound = [], []
            a = flatten_term(f.term, conds, bound)
            return wrap(MarkAtom(f.mark, Term(a)), conds, bound)
        if isinstance(f, EqAtom):
            conds, bound = [], []
            a = flatten_term(f.left, conds, bound)
            b = flatten_term(f.right, conds, bound)
            return wrap(EqAtom(Term(a), Term(b)), conds, bound)
        if isinstance(f, Not):
            return Not(go(f.sub))
        if isinstance(f, And):
            return And(go(f.left), go(f.right))
        if isinstance(f, Or):
            return Or(go(f.left), go(f.right))
        if isinstance(f, Exists):
            return Exists(f.var, go(f.body))
        if isinstance(f, Forall):
            return Forall(f.var, go(f.body))
        if isinstance(f, ModExists):
            return ModExists(f.residue, f.modulus, f.var, go(f.body))
        return f  # BoolConst

    return go(phi)


# ---------------------------------------------------------------------------
# forest file format
#
#   rel <name>             declare a source unary relation (in order)
#   fn <name>              declare a source unary function (in order)
#   r <v>                  root vertex
#   p <child> <parent>     child-parent link
#   m <v> <mark>...        marks: source names or TE_j_i / Tf_<f>_j_i_<eps>
#
# '#' starts a comment.  Vertices exist exactly when named by r/p lines.
# ---------------------------------------------------------------------------


def _line_check(lineno: int, check: Callable[..., None], *args) -> None:
    """Run one of ``ColoredForest``'s checks on the fields of one line, so
    that its error names the line."""
    try:
        check(*args)
    except ValueError as exc:
        raise GraphFormatError(lineno, str(exc)) from None


def parse_forest(text: str) -> ColoredForest:
    """Read a forest file, checking each line as it comes, and assemble the
    colored forest from the checked lines without a second pass of checks."""
    symbols: Dict[str, str] = {}  # name -> 'rel' or 'fn', in order of declaration
    parent: Dict[int, int] = {}
    mark_lines: List[Tuple[int, int, str]] = []
    for lineno, toks in _read_lines(text):
        head, rest = toks[0], toks[1:]
        if head in ("rel", "fn"):
            if len(rest) != 1:
                raise GraphFormatError(lineno, f"{head!r} takes one name")
            _line_check(lineno, _check_reserved, rest)
            if rest[0] in symbols:
                raise GraphFormatError(lineno, f"symbol {rest[0]!r} already declared")
            symbols[rest[0]] = head
        elif head == "r":
            if len(rest) != 1:
                raise GraphFormatError(lineno, "'r' takes one vertex id")
            (r,) = _read_ints(rest, lineno)
            if r in parent:
                raise GraphFormatError(lineno, f"vertex {r} already placed")
            parent[r] = r
        elif head == "p":
            if len(rest) != 2:
                raise GraphFormatError(lineno, "'p' takes child and parent ids")
            c, p = _read_ints(rest, lineno)
            if c in parent:
                raise GraphFormatError(lineno, f"vertex {c} already placed")
            parent[c] = p
        elif head == "m":
            if len(rest) < 2:
                raise GraphFormatError(lineno, "'m' takes a vertex id and marks")
            (v,) = _read_ints(rest[:1], lineno)
            for mk in rest[1:]:
                mark_lines.append((lineno, v, mk))
        else:
            raise GraphFormatError(lineno, f"unknown directive {head!r}")

    try:
        forest = EliminationForest(parent)
    except ValueError as exc:  # a parent cycle or a missing parent
        raise GraphFormatError(1, str(exc)) from None

    rels = tuple(name for name, kind in symbols.items() if kind == "rel")
    marks: Dict[str, Set[int]] = {name: set() for name in rels}
    edge_marks: Dict[Tuple[int, int], Set[int]] = {}
    func_marks: Dict[Tuple[str, int, int, int], Set[int]] = {}
    for lineno, v, mk in mark_lines:
        if v not in parent:
            raise GraphFormatError(lineno, f"mark on unknown vertex {v}")
        em = _EDGE_MARK_RE.match(mk)
        fm = _FUNC_MARK_RE.match(mk)
        if em:
            j, i = int(em.group(1)), int(em.group(2))
            _line_check(lineno, _check_mark_levels, "edge", j, i, (v,), forest.level)
            edge_marks.setdefault((j, i), set()).add(v)
        elif fm:
            fname = fm.group(1)
            if symbols.get(fname) != "fn":
                raise GraphFormatError(lineno, f"mark {mk!r} names undeclared function {fname!r}")
            key = (fname, int(fm.group(2)), int(fm.group(3)), int(fm.group(4)))
            _line_check(lineno, _check_mark_levels, "function", key[1], key[2], (v,), forest.level)
            func_marks.setdefault(key, set()).add(v)
        else:
            if mk not in marks:
                raise GraphFormatError(lineno, f"mark {mk!r} not declared by a 'rel' line")
            marks[mk].add(v)
    return ColoredForest._assemble(
        forest,
        Signature(rels, tuple(name for name, kind in symbols.items() if kind == "fn")),
        {name: tuple(sorted(vs)) for name, vs in marks.items()},
        {k: tuple(sorted(vs)) for k, vs in sorted(edge_marks.items())},
        {k: tuple(sorted(vs)) for k, vs in sorted(func_marks.items())},
    )


def serialize_forest(y: ColoredForest) -> str:
    lines: List[str] = []
    for name in y.signature.unary_relations:
        lines.append(f"rel {name}")
    for name in y.signature.unary_functions:
        lines.append(f"fn {name}")
    for r in y.forest.roots:
        lines.append(f"r {r}")
    for v in y.forest.vertices:
        p = y.forest.parent[v]
        if p != v:
            lines.append(f"p {v} {p}")
    for v, names in y.letters.items():
        if names:
            lines.append("m " + " ".join((str(v),) + names))
    return "\n".join(lines) + "\n"
