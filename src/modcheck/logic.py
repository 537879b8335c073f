"""First-order logic with modulo-counting quantifiers over guided structures.

Terms are variables under a (possibly empty) composition of the structure's
unary functions.  Formulas add adjacency, mark, and equality atoms, Boolean
connectives, plain quantifiers, and the counting quantifier `Emod[a,b] y . f`,
which holds when the number of witnesses for y is congruent to a modulo b.

The concrete syntax:

    phi  := 'E' var '.' phi | 'A' var '.' phi | 'Emod[' a ',' b ']' var '.' phi
          | phi '|' phi | phi '&' phi | '!' phi | '(' phi ')' | atom
    atom := 'adj(' term ',' term ')' | name '(' term ')' | term '=' term
    term := var | name '(' term ')'

'!' binds tighter than '&', which binds tighter than '|'; quantifiers extend
as far right as possible.  Parsing renames bound variables apart, so no
variable is bound twice along a root-to-leaf path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .structures import GuidedStructure, Signature


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A variable under a composition of unary functions.

    `funcs` holds 1-based function indices, outermost first: Term("x", (1, 2))
    with functions (f, g) denotes f(g(x)).
    """

    var: str
    funcs: Tuple[int, ...] = ()

    def text(self, sig: Signature) -> str:
        out = self.var
        for idx in reversed(self.funcs):
            out = f"{sig.function_name(idx)}({out})"
        return out


class Formula:
    """Base class; nodes are frozen dataclasses compared structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class EdgeAtom(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class MarkAtom(Formula):
    mark: str
    term: Term


@dataclass(frozen=True)
class EqAtom(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class BoolConst(Formula):
    """Constant formula; not producible by the parser, used by rewriting."""

    value: bool


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ModExists(Formula):
    """Counting quantifier: number of witnesses is residue mod modulus."""

    residue: int
    modulus: int
    var: str
    body: Formula

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} not in range of modulus {self.modulus}")


def and_all(parts: List[Formula]) -> Formula:
    if not parts:
        return BoolConst(True)
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def or_all(parts: List[Formula]) -> Formula:
    if not parts:
        return BoolConst(False)
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------


def children(phi: Formula) -> Tuple[Formula, ...]:
    if isinstance(phi, Not):
        return (phi.sub,)
    if isinstance(phi, (And, Or)):
        return (phi.left, phi.right)
    if isinstance(phi, (Exists, Forall, ModExists)):
        return (phi.body,)
    return ()


def walk(phi: Formula) -> Iterator[Formula]:
    yield phi
    for c in children(phi):
        yield from walk(c)


def atom_terms(phi: Formula) -> Tuple[Term, ...]:
    if isinstance(phi, (EdgeAtom, EqAtom)):
        return (phi.left, phi.right)
    if isinstance(phi, MarkAtom):
        return (phi.term,)
    custom = getattr(phi, "terms", None)
    if custom is not None:
        return tuple(custom)
    return ()


def free_vars(phi: Formula) -> Tuple[str, ...]:
    """Free variables in order of first occurrence."""
    seen: List[str] = []
    _collect_free_vars(phi, frozenset(), seen)
    return tuple(seen)


def _collect_free_vars(node: Formula, bound: frozenset, seen: List[str]) -> None:
    for t in atom_terms(node):
        if t.var not in bound and t.var not in seen:
            seen.append(t.var)
    if isinstance(node, (Exists, Forall, ModExists)):
        _collect_free_vars(node.body, bound | {node.var}, seen)
    else:
        for c in children(node):
            _collect_free_vars(c, bound, seen)


def quantifier_depth(phi: Formula) -> int:
    if isinstance(phi, (Exists, Forall, ModExists)):
        return 1 + quantifier_depth(phi.body)
    kids = children(phi)
    return max((quantifier_depth(c) for c in kids), default=0)


def moduli_of(phi: Formula) -> Tuple[int, ...]:
    return tuple(sorted({n.modulus for n in walk(phi) if isinstance(n, ModExists)}))


def is_quantifier_free(phi: Formula) -> bool:
    return not any(isinstance(n, (Exists, Forall, ModExists)) for n in walk(phi))


def collect_term_tuples(rho: Formula) -> Tuple[Tuple[int, ...], ...]:
    """Composition tuples of all terms in a quantifier-free formula.

    Always contains the empty tuple.  Sorted for determinism.
    """
    for node in walk(rho):
        if isinstance(node, (Exists, Forall, ModExists)):
            raise ValueError(f"formula is not quantifier-free at {type(node).__name__}({node.var!r})")
    tuples = {()}
    for node in walk(rho):
        for t in atom_terms(node):
            tuples.add(t.funcs)
    return tuple(sorted(tuples))


def format_formula(phi: Formula, sig: Signature) -> str:
    """Concrete syntax; parses back to the same AST."""
    if isinstance(phi, EdgeAtom):
        return f"adj({phi.left.text(sig)}, {phi.right.text(sig)})"
    if isinstance(phi, MarkAtom):
        return f"{phi.mark}({phi.term.text(sig)})"
    if isinstance(phi, EqAtom):
        return f"{phi.left.text(sig)} = {phi.right.text(sig)}"
    if isinstance(phi, Not):
        return f"!({format_formula(phi.sub, sig)})"
    if isinstance(phi, And):
        return f"({format_formula(phi.left, sig)} & {format_formula(phi.right, sig)})"
    if isinstance(phi, Or):
        return f"({format_formula(phi.left, sig)} | {format_formula(phi.right, sig)})"
    if isinstance(phi, Exists):
        return f"E {phi.var} . ({format_formula(phi.body, sig)})"
    if isinstance(phi, Forall):
        return f"A {phi.var} . ({format_formula(phi.body, sig)})"
    if isinstance(phi, ModExists):
        return f"Emod[{phi.residue},{phi.modulus}] {phi.var} . ({format_formula(phi.body, sig)})"
    if isinstance(phi, BoolConst):
        # no literal in the grammar; emit a tautology / contradiction
        return "(x0 = x0)" if phi.value else "!(x0 = x0)"
    raise ValueError(f"cannot format {type(phi).__name__}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    pass


_PUNCT = ("(", ")", "[", "]", ",", ".", "=", "&", "|", "!")


def _tokenize(text: str) -> List[str]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            toks.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}")
    return toks


class _Parser:
    def __init__(self, toks: List[str], sig: Signature):
        self.toks = toks
        self.pos = 0
        self.sig = sig

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.parse_or()
        if self.peek() is not None:
            raise FormulaSyntaxError(f"trailing input at {self.peek()!r}")
        return phi

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.parse_unary())
        return left

    def _at_quantifier(self) -> bool:
        tok = self.peek()
        if tok == "Emod":
            return self.peek(1) == "["
        if tok in ("E", "A"):
            nxt, dot = self.peek(1), self.peek(2)
            return nxt is not None and _is_name(nxt) and dot == "."
        return False

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula")
        if tok == "!":
            self.take()
            return Not(self.parse_unary())
        if self._at_quantifier():
            return self.parse_quantifier()
        if tok == "(":
            self.take()
            phi = self.parse_or()
            self.take(")")
            return phi
        return self.parse_atom()

    def parse_quantifier(self) -> Formula:
        kind = self.take()
        if kind == "Emod":
            self.take("[")
            a = self._nat()
            self.take(",")
            b = self._nat()
            self.take("]")
            if b < 1 or not 0 <= a < b:
                raise FormulaSyntaxError(f"malformed modulus Emod[{a},{b}]")
            var = self._variable()
            self.take(".")
            return ModExists(a, b, var, self.parse_or())
        var = self._variable()
        self.take(".")
        body = self.parse_or()
        return Exists(var, body) if kind == "E" else Forall(var, body)

    def _nat(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise FormulaSyntaxError(f"expected number, got {tok!r}")
        return int(tok)

    def _variable(self) -> str:
        tok = self.take()
        if not _is_name(tok):
            raise FormulaSyntaxError(f"expected variable, got {tok!r}")
        if self.sig.has_relation(tok) or self.sig.has_function(tok):
            raise FormulaSyntaxError(f"variable {tok!r} collides with a signature symbol")
        return tok

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok == "adj":
            self.take()
            self.take("(")
            t1 = self.parse_term()
            self.take(",")
            t2 = self.parse_term()
            self.take(")")
            return EdgeAtom(t1, t2)
        if tok is not None and self.sig.has_relation(tok) and self.peek(1) == "(":
            self.take()
            self.take("(")
            t = self.parse_term()
            self.take(")")
            return MarkAtom(tok, t)
        t1 = self.parse_term()
        self.take("=")
        t2 = self.parse_term()
        return EqAtom(t1, t2)

    def parse_term(self) -> Term:
        tok = self.take()
        if not _is_name(tok):
            raise FormulaSyntaxError(f"expected term, got {tok!r}")
        if self.peek() == "(" and (self.sig.has_function(tok) or self.sig.has_relation(tok)):
            if not self.sig.has_function(tok):
                raise FormulaSyntaxError(f"{tok!r} is a mark, not a function, inside a term")
            self.take("(")
            inner = self.parse_term()
            self.take(")")
            return Term(inner.var, (self.sig.function_index(tok),) + inner.funcs)
        if self.sig.has_relation(tok) or self.sig.has_function(tok):
            raise FormulaSyntaxError(f"signature symbol {tok!r} used as a variable")
        return Term(tok, ())


def _is_name(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


def rename_apart(phi: Formula) -> Formula:
    """Rename bound variables so none repeats along a root-to-leaf path."""
    used: Set[str] = set(free_vars(phi))
    for node in walk(phi):
        if isinstance(node, (Exists, Forall, ModExists)):
            used.add(node.var)

    def fresh(base: str) -> str:
        k = 2
        while f"{base}_{k}" in used:
            k += 1
        name = f"{base}_{k}"
        used.add(name)
        return name

    def sub_term(t: Term, env: Dict[str, str]) -> Term:
        new = env.get(t.var, t.var)
        return t if new == t.var else Term(new, t.funcs)

    def rec(node: Formula, env: Dict[str, str], bound: frozenset) -> Formula:
        if isinstance(node, EdgeAtom):
            return EdgeAtom(sub_term(node.left, env), sub_term(node.right, env))
        if isinstance(node, EqAtom):
            return EqAtom(sub_term(node.left, env), sub_term(node.right, env))
        if isinstance(node, MarkAtom):
            return MarkAtom(node.mark, sub_term(node.term, env))
        if isinstance(node, BoolConst):
            return node
        if isinstance(node, Not):
            return Not(rec(node.sub, env, bound))
        if isinstance(node, And):
            return And(rec(node.left, env, bound), rec(node.right, env, bound))
        if isinstance(node, Or):
            return Or(rec(node.left, env, bound), rec(node.right, env, bound))
        if isinstance(node, (Exists, Forall, ModExists)):
            var = node.var
            if var in bound:
                new = fresh(var)
                env = dict(env)
                env[var] = new
                var = new
            elif var in env:
                env = dict(env)
                del env[var]
            body = rec(node.body, env, bound | {var})
            if isinstance(node, Exists):
                return Exists(var, body)
            if isinstance(node, Forall):
                return Forall(var, body)
            return ModExists(node.residue, node.modulus, var, body)
        raise ValueError(f"cannot rename {type(node).__name__}")

    return rec(phi, {}, frozenset())


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse concrete syntax against a signature; bound variables renamed apart."""
    return rename_apart(_Parser(_tokenize(text), sig).parse())


# ---------------------------------------------------------------------------
# naive evaluation (the semantic oracle)
# ---------------------------------------------------------------------------


def eval_term(m: GuidedStructure, t: Term, valuation: Dict[str, int]) -> int:
    try:
        v = valuation[t.var]
    except KeyError:
        raise ValueError(f"unbound variable {t.var!r}") from None
    if t.funcs:
        names = m.signature.unary_functions
        funcs = m.functions
        for idx in reversed(t.funcs):
            v = funcs[names[idx - 1]][v]
    return v


def eval_naive(m: GuidedStructure, phi: Formula, valuation: Optional[Dict[str, int]] = None) -> bool:
    """Direct Tarskian evaluation; exponential in quantifier depth.

    Nodes outside the core AST may supply `_custom_eval(structure, valuation,
    recurse)`; the pipeline uses this hook for structure-relative residue
    formulas.
    """
    nu = dict(valuation or {})
    for var, v in nu.items():
        if not m.has_vertex(v):
            raise ValueError(f"valuation sends {var!r} outside the domain")
    return _eval(m, phi, nu)


def _eval(m: GuidedStructure, phi: Formula, nu: Dict[str, int]) -> bool:
    if isinstance(phi, EdgeAtom):
        return m.has_edge(eval_term(m, phi.left, nu), eval_term(m, phi.right, nu))
    if isinstance(phi, MarkAtom):
        if phi.mark not in m.marks:
            raise ValueError(f"unknown mark {phi.mark!r}")
        return eval_term(m, phi.term, nu) in m._mark_sets()[phi.mark]
    if isinstance(phi, EqAtom):
        return eval_term(m, phi.left, nu) == eval_term(m, phi.right, nu)
    if isinstance(phi, BoolConst):
        return phi.value
    if isinstance(phi, Not):
        return not _eval(m, phi.sub, nu)
    if isinstance(phi, And):
        return _eval(m, phi.left, nu) and _eval(m, phi.right, nu)
    if isinstance(phi, Or):
        return _eval(m, phi.left, nu) or _eval(m, phi.right, nu)
    if isinstance(phi, Exists):
        var, body, old = phi.var, phi.body, nu.get(phi.var)
        hit = False
        for w in m.domain:
            nu[var] = w
            if _eval(m, body, nu):
                hit = True
                break
        _restore(nu, var, old)
        return hit
    if isinstance(phi, Forall):
        var, body, old = phi.var, phi.body, nu.get(phi.var)
        ok = True
        for w in m.domain:
            nu[var] = w
            if not _eval(m, body, nu):
                ok = False
                break
        _restore(nu, var, old)
        return ok
    if isinstance(phi, ModExists):
        var, body, old = phi.var, phi.body, nu.get(phi.var)
        count = 0
        for w in m.domain:
            nu[var] = w
            if _eval(m, body, nu):
                count += 1
        _restore(nu, var, old)
        return count % phi.modulus == phi.residue
    custom = getattr(phi, "_custom_eval", None)
    if custom is not None:
        return custom(m, dict(nu), _eval)
    raise ValueError(f"cannot evaluate {type(phi).__name__}")


def _restore(nu: Dict[str, int], var: str, old: Optional[int]) -> None:
    if old is None:
        nu.pop(var, None)
    else:
        nu[var] = old


def count_witnesses(m: GuidedStructure, phi: Formula, var: str, valuation: Optional[Dict[str, int]] = None) -> int:
    """Exact number of witnesses for `var`; helper for oracles and tests."""
    nu = dict(valuation or {})
    n = 0
    for w in m.domain:
        nu[var] = w
        if _eval(m, phi, nu):
            n += 1
    return n


def count_naive(m: GuidedStructure, phi: Formula) -> int:
    """Number of vertices satisfying a formula with exactly one free variable."""
    fv = free_vars(phi)
    if len(fv) != 1:
        raise ValueError(f"count_naive needs exactly one free variable, got {fv}")
    return count_witnesses(m, phi, fv[0])
