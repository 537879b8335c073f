"""Sparse matrix calculus over prime fields with set-rank constants.

Matrices over F_p are stored sparsely.  The *domain* of a matrix is the set
of nonzero values among its entries; the *d-slice* is the 0/1 indicator of
the entries equal to d, and the *set-rank* is the sum over the domain of the
F_2-ranks of the slices.  A matrix of set-rank at most r admits a *marking*:
per value d, rows and columns carry subset-indexed marks (W and V families)
built from an F_2 row basis of the d-slice, such that the entry test
"M[i,j] = d" becomes a single disjunction over subsets — constant time for
fixed r and p.

The expression evaluator works with two structured representations — sparse
dictionaries and low-rank term lists (the mark algebra of set-rank
constants) — so products against set-rank constants never materialize dense
intermediates.

The public ``SparseFieldMatrix`` constructor checks the field and every index
and reduces every value mod p, since caller-supplied entries may be anything;
``parse_matrix`` does the same for the entries of a file it reads.  The
matrices the evaluator computes itself (products, sums, Hadamard products,
transposes, scalings and materializations) are built from values it has
already reduced at indices it has already checked.  Those and parsed ones go
through ``SparseFieldMatrix._computed``, which only drops zeros; checking
them again would cost as much as computing them.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .structures import _read_ints, _read_lines, degeneracy_order

logger = logging.getLogger("modcheck.matrix")

MAX_PRIME = 257


class MatrixFormatError(ValueError):
    """A malformed matrix file or expression; for a file, ``lineno`` is the
    1-based line at fault."""

    lineno: Optional[int] = None

    @classmethod
    def at(cls, lineno: int, message: str) -> "MatrixFormatError":
        err = cls(f"line {lineno}: {message}")
        err.lineno = lineno
        return err


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p**0.5) + 1):
        if p % q == 0:
            return False
    return True


def check_field(p: int) -> None:
    if not _is_prime(p) or p > MAX_PRIME:
        raise ValueError(f"field order must be a prime at most {MAX_PRIME}, got {p}")


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseFieldMatrix:
    """Immutable n x n matrix over F_p holding only nonzero entries."""

    __slots__ = ("p", "n", "entries")

    def __init__(self, p: int, n: int, entries: Mapping[Tuple[int, int], int]):
        check_field(p)
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        norm: Dict[Tuple[int, int], int] = {}
        for (i, j), val in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index ({i},{j}) outside [0,{n})")
            val %= p
            if val:
                norm[(i, j)] = val
        self.p = p
        self.n = n
        self.entries: Dict[Tuple[int, int], int] = norm

    @classmethod
    def _computed(
        cls, p: int, n: int, entries: Dict[Tuple[int, int], int]
    ) -> "SparseFieldMatrix":
        """A computed result: ``entries`` is a fresh dict, values already in
        [0, p), indices in range.  It is kept, without zero values; nothing
        is checked or reduced."""
        m = cls.__new__(cls)
        m.p = p
        m.n = n
        if 0 in entries.values():
            entries = {k: v for k, v in entries.items() if v}
        m.entries = entries
        return m

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"index ({i},{j}) outside [0,{self.n})")
        return self.entries.get((i, j), 0)

    def domain(self) -> Tuple[int, ...]:
        """Sorted nonzero values occurring in the matrix."""
        return tuple(sorted(set(self.entries.values())))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SparseFieldMatrix":
        return SparseFieldMatrix._computed(
            self.p, self.n, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def rows(self) -> Dict[int, Dict[int, int]]:
        out: Dict[int, Dict[int, int]] = {}
        for (i, j), v in self.entries.items():
            out.setdefault(i, {})[j] = v
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseFieldMatrix)
            and (self.p, self.n) == (other.p, other.n)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseFieldMatrix(p={self.p}, n={self.n}, nnz={self.nnz})"


def identity_matrix(p: int, n: int) -> SparseFieldMatrix:
    return SparseFieldMatrix(p, n, {(i, i): 1 for i in range(n)})


def all_ones_matrix(p: int, n: int) -> SparseFieldMatrix:
    return SparseFieldMatrix(p, n, {(i, j): 1 for i in range(n) for j in range(n)})


def slice_matrix(m: SparseFieldMatrix, d: int) -> SparseFieldMatrix:
    """0/1 indicator of the entries equal to ``d`` (``d`` nonzero)."""
    if d % m.p == 0:
        raise ValueError("slices are indexed by nonzero values")
    d %= m.p
    return SparseFieldMatrix(
        m.p, m.n, {pos: 1 for pos, v in m.entries.items() if v == d}
    )


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def _bit_rows(m: SparseFieldMatrix) -> List[int]:
    """Rows as bit masks of the nonzero positions (indicator reading)."""
    rows = [0] * m.n
    for (i, j) in m.entries:
        rows[i] |= 1 << j
    return rows


def rank_F2(m: SparseFieldMatrix) -> int:
    """Rank over F_2 of the 0/1 indicator of the nonzero positions."""
    basis: Dict[int, int] = {}
    for row in _bit_rows(m):
        while row:
            pivot = row.bit_length() - 1
            if pivot in basis:
                row ^= basis[pivot]
            else:
                basis[pivot] = row
                break
    return len(basis)


def rank_Fp(m: SparseFieldMatrix) -> int:
    """Rank over F_p by Gaussian elimination on sparse rows."""
    p = m.p
    rows = [dict(r) for r in m.rows().values()]
    basis: Dict[int, Dict[int, int]] = {}  # pivot column -> normalized row
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            pivot = min(row)
            if pivot in basis:
                coef = row[pivot]
                for j, v in basis[pivot].items():
                    new = (row.get(j, 0) - coef * v) % p
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
            else:
                inv = pow(row[pivot], p - 2, p)
                basis[pivot] = {j: (v * inv) % p for j, v in row.items()}
                rank += 1
                break
    return rank


def srank(m: SparseFieldMatrix) -> int:
    """Set-rank: the sum over the domain of the F_2-ranks of the slices."""
    return sum(rank_F2(slice_matrix(m, d)) for d in m.domain())


# ---------------------------------------------------------------------------
# markings
# ---------------------------------------------------------------------------


@dataclass
class SetRankMatrix:
    """A matrix represented by row/column mark families.

    Per domain value d: ``basis[d]`` is a greedy F_2 row basis of the d-slice
    (raw rows, in row order, as bit masks); ``row_class[d][i]`` is the unique
    basis subset whose sum is row i of the slice (absent for zero rows);
    ``col_sets[d][ls]`` is the set of columns where the subset-sum vector of
    ``ls`` has a one.  The entry test "M[i,j] = d" is: the class of row i is
    some ls with j in ``col_sets[d][ls]``.
    """

    p: int
    n: int
    r: int
    basis: Dict[int, Tuple[int, ...]]
    row_class: Dict[int, Dict[int, FrozenSet[int]]]
    col_sets: Dict[int, Dict[FrozenSet[int], FrozenSet[int]]]

    def domain(self) -> Tuple[int, ...]:
        return tuple(sorted(self.basis))

    def row_marks(self, d: int) -> Dict[FrozenSet[int], Tuple[int, ...]]:
        """The W family for value d: mark subset -> rows carrying it."""
        out: Dict[FrozenSet[int], List[int]] = {}
        for i, ls in self.row_class.get(d, {}).items():
            out.setdefault(ls, []).append(i)
        return {ls: tuple(sorted(rows)) for ls, rows in out.items()}

    def query(self, d: int, i: int, j: int) -> bool:
        ls = self.row_class.get(d % self.p, {}).get(i)
        if ls is None:
            return False
        return j in self.col_sets[d % self.p].get(ls, frozenset())

    def entry(self, i: int, j: int) -> int:
        for d in self.domain():
            if self.query(d, i, j):
                return d
        return 0


def build_marking(m: SparseFieldMatrix, r: int) -> SetRankMatrix:
    """Mark rows and columns so every entry test is a subset disjunction.

    Per domain value d, a greedy row-order F_2 basis of the d-slice is
    chosen; each row is classed by the unique basis subset summing to it,
    and each subset's sum vector marks its one-columns.  Requires the
    set-rank to fit the budget ``r``; each basis has the F_2-rank of its
    slice as its size, so the bases give the set-rank.
    """
    slices: Dict[int, List[int]] = {}
    basis: Dict[int, Tuple[int, ...]] = {}
    for d in m.domain():
        bit_rows = _bit_rows(slice_matrix(m, d))
        chosen: List[int] = []
        reduced: Dict[int, int] = {}
        for row in bit_rows:
            probe = row
            while probe:
                pivot = probe.bit_length() - 1
                if pivot in reduced:
                    probe ^= reduced[pivot]
                else:
                    reduced[pivot] = probe
                    chosen.append(row)
                    break
        slices[d] = bit_rows
        basis[d] = tuple(chosen)
    total = sum(len(chosen) for chosen in basis.values())
    if total > r:
        raise ValueError(f"set-rank {total} exceeds the budget {r}")
    row_class: Dict[int, Dict[int, FrozenSet[int]]] = {}
    col_sets: Dict[int, Dict[FrozenSet[int], FrozenSet[int]]] = {}
    for d, bit_rows in slices.items():
        chosen = basis[d]
        sums: Dict[int, FrozenSet[int]] = {}
        for size in range(len(chosen) + 1):
            for subset in itertools.combinations(range(1, len(chosen) + 1), size):
                vec = 0
                for idx in subset:
                    vec ^= chosen[idx - 1]
                sums.setdefault(vec, frozenset(subset))
        classes: Dict[int, FrozenSet[int]] = {}
        for i, row in enumerate(bit_rows):
            if row == 0:
                continue
            ls = sums.get(row)
            assert ls is not None, "slice row escaped the span of its basis"
            classes[i] = ls
        row_class[d] = classes
        col_sets[d] = {
            ls: frozenset(j for j in range(m.n) if vec >> j & 1)
            for vec, ls in sums.items()
            if ls  # the empty subset sums to zero and marks nothing
        }
    return SetRankMatrix(
        p=m.p, n=m.n, r=r, basis=basis, row_class=row_class, col_sets=col_sets
    )


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class MatrixExpr:
    pass


@dataclass(frozen=True)
class InputRef(MatrixExpr):
    name: str


@dataclass(frozen=True)
class Ident(MatrixExpr):
    pass


@dataclass(frozen=True)
class AllOnes(MatrixExpr):
    pass


@dataclass(frozen=True)
class Lit(MatrixExpr):
    value: int


@dataclass(frozen=True)
class SetRankConst(MatrixExpr):
    matrix: "SetRankMatrix"


@dataclass(frozen=True)
class Add(MatrixExpr):
    left: MatrixExpr
    right: MatrixExpr


@dataclass(frozen=True)
class Mul(MatrixExpr):
    left: MatrixExpr
    right: MatrixExpr


@dataclass(frozen=True)
class Hadamard(MatrixExpr):
    left: MatrixExpr
    right: MatrixExpr


@dataclass(frozen=True)
class Transpose(MatrixExpr):
    sub: MatrixExpr


@dataclass(frozen=True)
class Scalar(MatrixExpr):
    value: int
    sub: MatrixExpr


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokenize(text: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            break
        pos = match.end()
        token = match.group(1) or match.group(2) or match.group(3)
        if token.strip():
            out.append(token)
    return out


class _ExprParser:
    """Grammar: expr := term (+ term)*; term := factor ((*|o) factor)*;
    factor := t(expr) | (expr) | I | J | NAME | INT."""

    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise MatrixFormatError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.take()
        if tok != want:
            raise MatrixFormatError(f"expected {want!r}, got {tok!r}")

    def parse(self) -> MatrixExpr:
        out = self.expr()
        if self.peek() is not None:
            raise MatrixFormatError(f"trailing input at {self.peek()!r}")
        return out

    def expr(self) -> MatrixExpr:
        node = self.term()
        while self.peek() == "+":
            self.take()
            node = Add(node, self.term())
        return node

    def term(self) -> MatrixExpr:
        node = self.factor()
        while self.peek() in ("*", "o"):
            op = self.take()
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Hadamard(node, rhs)
        return node

    def factor(self) -> MatrixExpr:
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok == "t":
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return Transpose(node)
        if tok == "I":
            return Ident()
        if tok == "J":
            return AllOnes()
        if tok.isdigit():
            return Lit(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return InputRef(tok)
        raise MatrixFormatError(f"unexpected token {tok!r}")


def parse_expr(text: str) -> MatrixExpr:
    """Parse the expression grammar (+, *, o for Hadamard, t() for
    transpose, I and J constants, integer scalars, named inputs)."""
    return _ExprParser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# internal values: ("scalar", c) | ("sparse", SparseFieldMatrix)
#                | ("lowrank", terms) with terms a tuple of (u, v, c) triples
#                  meaning entry(i,j) = sum of c * u[i] * v[j]


def _lowrank_entry(terms, i: int, j: int, p: int) -> int:
    return sum(c * u[i] * v[j] for u, v, c in terms) % p


def _materialize_lowrank(terms, p: int, n: int) -> SparseFieldMatrix:
    """Sum of the terms' outer products, each term's nonzero columns listed
    once; a single term is written row by row without accumulation."""
    if len(terms) == 1:
        ((u, v, c),) = terms
        cols = [(j, vj % p) for j, vj in enumerate(v) if vj % p]
        out: Dict[Tuple[int, int], int] = {}
        for i, ui in enumerate(u):
            cu = (c * ui) % p
            if cu:
                out.update({(i, j): (cu * vj) % p for j, vj in cols})
        return SparseFieldMatrix._computed(p, n, out)
    acc: Dict[Tuple[int, int], int] = {}
    for u, v, c in terms:
        cols = [(j, vj % p) for j, vj in enumerate(v) if vj % p]
        for i, ui in enumerate(u):
            cu = (c * ui) % p
            if not cu:
                continue
            for j, vj in cols:
                key = (i, j)
                acc[key] = (acc.get(key, 0) + cu * vj) % p
    return SparseFieldMatrix._computed(p, n, acc)


def support_degeneracy(m: SparseFieldMatrix) -> int:
    """Degeneracy of the undirected support graph (off-diagonal entries)."""
    adj: Dict[int, set] = {}
    for (i, j) in m.entries:
        if i == j:
            continue
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    return degeneracy_order(adj)[1]


DEGENERACY_WARN_THRESHOLD = 8


class MatrixHandle:
    """Evaluated expression: entry queries without dense materialization."""

    def __init__(self, p: int, n: int, val):
        self.p = p
        self.n = n
        self._val = val

    @property
    def kind(self) -> str:
        return self._val[0]

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"index ({i},{j}) outside [0,{self.n})")
        tag, payload = self._val
        if tag == "sparse":
            return payload.entry(i, j)
        return _lowrank_entry(payload, i, j, self.p)

    def materialize(self) -> SparseFieldMatrix:
        tag, payload = self._val
        if tag == "sparse":
            return payload
        return _materialize_lowrank(payload, self.p, self.n)


def eval_expr(
    expr: MatrixExpr,
    inputs: Optional[Mapping[str, SparseFieldMatrix]] = None,
    p: Optional[int] = None,
    n: Optional[int] = None,
) -> MatrixHandle:
    """Evaluate an expression over sparse inputs and set-rank constants.

    Dimension and field are taken from the inputs (or must be passed for
    input-free expressions).  Products keep structured representations:
    sparse times sparse walks supports, anything times a low-rank value
    (the J constant, set-rank constants) stays a short term list.
    """
    inputs = dict(inputs or {})
    for name, m in inputs.items():
        if not isinstance(m, SparseFieldMatrix):
            raise TypeError(f"input {name!r} is not a sparse field matrix")
        if p is None:
            p = m.p
        elif m.p != p:
            raise ValueError(f"field mismatch: input {name!r} is over F_{m.p}, not F_{p}")
        if n is None:
            n = m.n
        elif m.n != n:
            raise ValueError(f"dimension mismatch: input {name!r} is {m.n}, not {n}")
    for node in _walk_expr(expr):
        if isinstance(node, SetRankConst):
            if p is None:
                p = node.matrix.p
            if n is None:
                n = node.matrix.n
            if (node.matrix.p, node.matrix.n) != (p, n):
                raise ValueError("set-rank constant disagrees with the inputs")
    if p is None or n is None:
        raise ValueError("field and dimension must be given for input-free expressions")
    check_field(p)
    for name, m in sorted(inputs.items()):
        d = support_degeneracy(m)
        if d > DEGENERACY_WARN_THRESHOLD:
            logger.warning(
                "input %s has support degeneracy %d (above the sparse-support "
                "proxy threshold %d); evaluation stays correct but may be slow",
                name, d, DEGENERACY_WARN_THRESHOLD,
            )

    max_terms = max(64, n)

    def to_sparse(val) -> SparseFieldMatrix:
        if val[0] == "sparse":
            return val[1]
        return _materialize_lowrank(val[1], p, n)

    def cap(terms):
        if len(terms) > max_terms:
            return ("sparse", _materialize_lowrank(terms, p, n))
        return ("lowrank", terms)

    def scale(val, c: int):
        c %= p
        tag, payload = val
        if c == 0:
            return ("sparse", SparseFieldMatrix._computed(p, n, {}))
        if tag == "scalar":
            return ("scalar", (payload * c) % p)
        if tag == "sparse":
            return (
                "sparse",
                SparseFieldMatrix._computed(
                    p, n, {k: (v * c) % p for k, v in payload.entries.items()}
                ),
            )
        return ("lowrank", tuple((u, v, (t * c) % p) for u, v, t in payload))

    def matmul(a, b):
        if a[0] == "lowrank" and b[0] == "lowrank":
            terms = []
            for u1, v1, c1 in a[1]:
                for u2, v2, c2 in b[1]:
                    inner = sum(x * y for x, y in zip(v1, u2)) % p
                    c = (c1 * c2 * inner) % p
                    if c:
                        terms.append((u1, v2, c))
            return cap(tuple(terms))
        if b[0] == "lowrank":
            am = to_sparse(a)
            rows = am.rows()
            terms = []
            for u, v, c in b[1]:
                au = [0] * n
                for i, row in rows.items():
                    au[i] = sum(val * u[k] for k, val in row.items()) % p
                if any(au):
                    terms.append((tuple(au), v, c))
            return cap(tuple(terms))
        if a[0] == "lowrank":
            bm = to_sparse(b)
            cols: Dict[int, Dict[int, int]] = {}
            for (i, j), val in bm.entries.items():
                cols.setdefault(j, {})[i] = val
            terms = []
            for u, v, c in a[1]:
                vb = [0] * n
                for j, col in cols.items():
                    vb[j] = sum(val * v[k] for k, val in col.items()) % p
                if any(vb):
                    terms.append((u, tuple(vb), c))
            return cap(tuple(terms))
        am, bm = a[1], b[1]
        brows = bm.rows()
        acc: Dict[Tuple[int, int], int] = {}
        for (i, k), va in am.entries.items():
            row = brows.get(k)
            if not row:
                continue
            for j, vb in row.items():
                key = (i, j)
                acc[key] = (acc.get(key, 0) + va * vb) % p
        return ("sparse", SparseFieldMatrix._computed(p, n, acc))

    def matadd(a, b):
        if a[0] == "lowrank" and b[0] == "lowrank":
            return cap(tuple(a[1]) + tuple(b[1]))
        am, bm = to_sparse(a), to_sparse(b)
        acc = dict(am.entries)
        for k, v in bm.entries.items():
            acc[k] = (acc.get(k, 0) + v) % p
        return ("sparse", SparseFieldMatrix._computed(p, n, acc))

    def hadamard(a, b):
        if a[0] == "lowrank" and b[0] == "lowrank":
            a = ("sparse", to_sparse(a))
        if a[0] == "lowrank":
            a, b = b, a
        am = to_sparse(a) if a[0] != "sparse" else a[1]
        if b[0] == "sparse":
            acc = {
                k: (v * b[1].entries[k]) % p
                for k, v in am.entries.items()
                if k in b[1].entries
            }
        else:
            acc = {
                (i, j): (v * _lowrank_entry(b[1], i, j, p)) % p
                for (i, j), v in am.entries.items()
            }
        return ("sparse", SparseFieldMatrix._computed(p, n, acc))

    def transpose(val):
        tag, payload = val
        if tag == "sparse":
            return ("sparse", payload.transpose())
        return ("lowrank", tuple((v, u, c) for u, v, c in payload))

    ones = tuple([1] * n)

    def rec(node: MatrixExpr):
        if isinstance(node, InputRef):
            if node.name not in inputs:
                raise ValueError(f"unknown input {node.name!r}")
            return ("sparse", inputs[node.name])
        if isinstance(node, Ident):
            return ("sparse", identity_matrix(p, n))
        if isinstance(node, AllOnes):
            return ("lowrank", ((ones, ones, 1),))
        if isinstance(node, Lit):
            return ("scalar", node.value % p)
        if isinstance(node, SetRankConst):
            terms = []
            for d in node.matrix.domain():
                rows_by_class = node.matrix.row_marks(d)
                for ls, rows in sorted(
                    rows_by_class.items(), key=lambda kv: sorted(kv[0])
                ):
                    cols = node.matrix.col_sets[d].get(ls, frozenset())
                    if not cols:
                        continue
                    row_set = set(rows)
                    u = tuple(1 if i in row_set else 0 for i in range(n))
                    v = tuple(1 if j in cols else 0 for j in range(n))
                    terms.append((u, v, d % p))
            return cap(tuple(terms))
        if isinstance(node, Scalar):
            return scale(rec(node.sub), node.value)
        if isinstance(node, Transpose):
            val = rec(node.sub)
            if val[0] == "scalar":
                raise ValueError("cannot transpose a scalar")
            return transpose(val)
        if isinstance(node, Add):
            a, b = rec(node.left), rec(node.right)
            if a[0] == "scalar" and b[0] == "scalar":
                return ("scalar", (a[1] + b[1]) % p)
            if "scalar" in (a[0], b[0]):
                raise ValueError("cannot add a scalar to a matrix")
            return matadd(a, b)
        if isinstance(node, Mul):
            a, b = rec(node.left), rec(node.right)
            if a[0] == "scalar" and b[0] == "scalar":
                return ("scalar", (a[1] * b[1]) % p)
            if a[0] == "scalar":
                return scale(b, a[1])
            if b[0] == "scalar":
                return scale(a, b[1])
            return matmul(a, b)
        if isinstance(node, Hadamard):
            a, b = rec(node.left), rec(node.right)
            if "scalar" in (a[0], b[0]):
                raise ValueError("Hadamard product needs two matrices")
            return hadamard(a, b)
        raise TypeError(f"unknown expression node {type(node).__name__}")

    val = rec(expr)
    if val[0] == "scalar":
        raise ValueError("expression evaluates to a scalar, not a matrix")
    return MatrixHandle(p, n, val)


def _walk_expr(node: MatrixExpr):
    yield node
    for attr in ("left", "right", "sub"):
        child = getattr(node, attr, None)
        if isinstance(child, MatrixExpr):
            yield from _walk_expr(child)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def parse_matrix(text: str) -> SparseFieldMatrix:
    """Parse the matrix file format: ``p <prime>`` and ``n <dim>`` headers,
    each once and before the entries, then ``<i> <j> <val>`` triples.

    Headers are checked as they are read.  The entries are converted,
    range-checked, deduplicated and reduced mod p in bulk after the reading
    pass; only a file that fails there is walked entry by entry, to name
    the line of its first bad entry."""
    at = MatrixFormatError.at
    p = n = None
    lines: List[int] = []  # the line of each entry
    fields: List[str] = []  # i, j and value of each entry, in a row
    for ln, toks in _read_lines(text):
        if len(toks) == 3:
            if p is None or n is None:
                raise at(ln, "entry before p/n headers")
            lines.append(ln)
            fields += toks
        elif len(toks) == 2 and toks[0] in ("p", "n"):
            # both headers come before any entry, so a late one is a repeat
            if (p if toks[0] == "p" else n) is not None:
                raise at(ln, f"repeated '{toks[0]}' header")
            (value,) = _read_ints(toks[1:], ln, at)
            if toks[0] == "p":
                try:
                    check_field(value)
                except ValueError as exc:
                    raise at(ln, str(exc)) from None
                p = value
            elif value < 0:
                raise at(ln, "dimension must be nonnegative")
            else:
                n = value
        else:
            raise at(ln, f"cannot parse {' '.join(toks)!r}")
    if p is None or n is None:
        raise at(1, "missing p or n header")
    try:
        values = list(map(int, fields))
    except ValueError:  # read each entry alone: the first bad one raises
        for k, ln in enumerate(lines):
            _read_ints(fields[3 * k : 3 * k + 3], ln, at)
    rows, cols = values[0::3], values[1::3]
    entries = {ij: v % p for ij, v in zip(zip(rows, cols), values[2::3])}
    if len(entries) < len(lines) or lines and not 0 <= min(rows + cols) <= max(rows + cols) < n:
        seen = set()
        for ln, i, j in zip(lines, rows, cols):
            if not (0 <= i < n and 0 <= j < n):
                raise at(ln, f"index ({i},{j}) outside [0,{n})")
            if (i, j) in seen:
                raise at(ln, f"duplicate entry ({i},{j})")
            seen.add((i, j))
    return SparseFieldMatrix._computed(p, n, entries)


def format_matrix(m: SparseFieldMatrix) -> str:
    lines = [f"p {m.p}", f"n {m.n}"]
    for (i, j), v in sorted(m.entries.items()):
        lines.append(f"{i} {j} {v}")
    return "\n".join(lines) + "\n"
