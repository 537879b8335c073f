"""Command-line front end: every pipeline behind one executable.

Results go to stdout — JSON by default (`--format plain` for terse text) —
and are byte-identical across identical invocations; wall-clock timings go
to stderr so they never perturb the payload.  Exit codes: 0 on success
(boolean verdicts are payload, not exit status), 1 on computation errors,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .coloring import (
    NotCenteredError,
    compute_p_centered,
    heuristic_elimination_forest,
    optimal_elimination_forest,
    validate_p_centered,
)
from .elimination import (
    UnsupportedFragmentError,
    eliminate,
    eliminate_all,
    eval_pipeline,
)
from .forest_codec import (
    DecodeConflictError,
    decode_IS,
    encode_IY,
    forest_signature,
    parse_forest,
    serialize_forest,
)
from .forest_eval import eval_forest
from .logic import eval_naive, free_vars, parse_formula
from .matrix import (
    MatrixFormatError,
    build_marking,
    eval_expr,
    format_matrix,
    parse_expr,
    parse_matrix,
    srank,
)
from .structures import (
    Graph,
    GraphFormatError,
    GuidedStructure,
    Signature,
    gaifman,
    parse_graph,
    serialize_graph,
    validate_guided,
)
from .vertex_minor import (
    IndependenceError,
    depth_k_vertex_minor,
    local_complement,
    local_complement_set,
    parse_steps,
)

COMPUTE_ERRORS = (
    ValueError,
    GraphFormatError,
    MatrixFormatError,
    UnsupportedFragmentError,
    NotCenteredError,
    DecodeConflictError,
    IndependenceError,
    OSError,
    KeyError,
)


class _Timings:
    """Per-phase wall clock, reported on stderr only."""

    def __init__(self):
        self.rows: List[Tuple[str, float]] = []

    def time(self, phase: str):
        timings = self

        class _Span:
            def __enter__(self):
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                timings.rows.append((phase, time.perf_counter() - self.start))
                return False

        return _Span()

    def report(self) -> None:
        for phase, seconds in self.rows:
            print(f"timing {phase} {seconds:.6f}s", file=sys.stderr)


def _emit(payload: Dict, fmt: str, plain: str) -> None:
    if fmt == "plain":
        print(plain)
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_pairs(text: Optional[str], what: str, form: str) -> Dict[str, str]:
    """The ``NAME=value`` items of a comma-separated option, each name and
    value stripped; an item without '=', an empty name or a repeated one
    raises ValueError."""
    out: Dict[str, str] = {}
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"{what} {item!r} is not of the form {form}")
        if not name or name in out:
            raise ValueError(f"bad or repeated name in {what} {item!r}")
        out[name] = value.strip()
    return out


def _parse_assignment(text: Optional[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for var, value in _parse_pairs(text, "assignment", "var=vertex").items():
        try:
            out[var] = int(value)
        except ValueError:
            raise ValueError(f"assignment '{var}={value}' needs an integer vertex") from None
    return out


def _require_assigned(phi, assignment: Dict[str, int]) -> None:
    unbound = [v for v in free_vars(phi) if v not in assignment]
    if unbound:
        raise ValueError(
            f"free variable {unbound[0]!r} needs a vertex (--assign {unbound[0]}=...)"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_mc(args, timings: _Timings) -> int:
    with timings.time("parse"):
        m = parse_graph(_read(args.graph))
        phi = parse_formula(args.formula, m.signature)
        assignment = _parse_assignment(args.assign)
    _require_assigned(phi, assignment)
    with timings.time("solve"):
        run = eliminate(m, phi)
        result = run.eval(assignment)
    payload = {
        "result": result,
        "pieces": sum(len(stage.pieces_materialized()) for stage in run.stages),
        "expansion_marks": len(run.m_star.signature.unary_relations)
        - len(m.signature.unary_relations),
        "fallback": bool(run.left),
    }
    _emit(payload, args.format, "true" if result else "false")
    return 0


def _cmd_count(args, timings: _Timings) -> int:
    with timings.time("parse"):
        m = parse_graph(_read(args.graph))
        phi = parse_formula(args.formula, m.signature)
    with timings.time("solve"):
        run = eliminate(m, phi)
        total = run.count()
    payload = {"count": total, "fallback": bool(run.left), "variable": free_vars(phi)[0]}
    _emit(payload, args.format, str(total))
    return 0


def _cmd_eliminate(args, timings: _Timings) -> int:
    with timings.time("parse"):
        m = parse_graph(_read(args.graph))
        phi = parse_formula(args.formula, m.signature)
    with timings.time("eliminate"):
        run = eliminate_all(m, phi)
    base_marks = set(m.signature.unary_relations)
    payload = json.loads(run.serialize())
    payload["expansion_marks"] = {
        name: list(run.m_star.marks[name])
        for name in run.m_star.signature.unary_relations
        if name not in base_marks
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    _emit(payload, args.format, repr(run.zeta))
    return 0


def _cmd_color(args, timings: _Timings) -> int:
    with timings.time("parse"):
        m = parse_graph(_read(args.graph))
        g = gaifman(m)
    with timings.time("color"):
        coloring = compute_p_centered(g, args.p, backend=args.backend)
    with timings.time("validate"):
        violation = validate_p_centered(g, coloring)
    assignment = sorted(coloring.colors.items())
    payload = {
        "p": args.p,
        "colors": len(set(coloring.colors.values())),
        "valid": violation is None,
        "assignment": [[v, c] for v, c in assignment],
    }
    plain = "\n".join([f"c {v} {c}" for v, c in assignment] + [
        json.dumps(
            {"p": payload["p"], "colors": payload["colors"], "valid": payload["valid"]},
            sort_keys=True,
            separators=(",", ":"),
        )
    ])
    _emit(payload, args.format, plain)
    return 0 if violation is None else 1


def _cmd_forest(args, timings: _Timings) -> int:
    action = args.action
    if action in ("encode", "roundtrip"):
        with timings.time("parse"):
            m = parse_graph(_read(args.graph))
            validate_guided(m)
        with timings.time(action):
            build = optimal_elimination_forest if args.exact else heuristic_elimination_forest
            forest = build(gaifman(m))
            text = serialize_forest(encode_IY(m, forest))
            ok = action == "encode" or decode_IS(parse_forest(text)) == m
        if action == "encode":
            _emit({"forest": text, "height": forest.height}, args.format, text.rstrip("\n"))
            return 0
        _emit({"roundtrip": ok}, args.format, "ok" if ok else "mismatch")
        return 0 if ok else 1
    if action == "decode":
        with timings.time("parse"):
            y = parse_forest(_read(args.forest))
        with timings.time("decode"):
            text = serialize_graph(decode_IS(y))
        _emit({"graph": text}, args.format, text.rstrip("\n"))
        return 0
    if action == "eval":
        with timings.time("parse"):
            y = parse_forest(_read(args.forest))
            phi = parse_formula(args.formula, forest_signature(y.signature, y.forest.height))
            assignment = _parse_assignment(args.assign)
        _require_assigned(phi, assignment)
        with timings.time("eval"):
            result = eval_forest(y, phi, assignment)
        _emit({"result": result}, args.format, "true" if result else "false")
        return 0
    raise ValueError(f"unknown forest action {action!r}")


def _parse_inputs(raw: Optional[str]):
    pairs = _parse_pairs(raw, "input", "NAME=path")
    return {name: parse_matrix(_read(path)) for name, path in pairs.items()}


def _cmd_matrix(args, timings: _Timings) -> int:
    with timings.time("parse"):
        expr = parse_expr(args.expr)
        inputs = _parse_inputs(args.inputs)
    with timings.time("evaluate"):
        handle = eval_expr(expr, inputs, p=args.p, n=args.n)
    if args.entry:
        parts = args.entry.split(",")
        if len(parts) != 2:
            raise ValueError("--entry takes i,j")
        i, j = (int(x) for x in parts)
        value = handle.entry(i, j)
        _emit(
            {"entry": value, "i": i, "j": j, "p": handle.p},
            args.format,
            str(value),
        )
        return 0
    with timings.time("materialize"):
        result = handle.materialize()
        text = format_matrix(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
        _emit(
            {"out": args.out, "p": result.p, "n": result.n, "nnz": result.nnz},
            args.format,
            args.out,
        )
        return 0
    _emit({"matrix": text, "nnz": result.nnz}, args.format, text.rstrip("\n"))
    return 0


def _cmd_vm(args, timings: _Timings) -> int:
    with timings.time("parse"):
        m = parse_graph(_read(args.graph))
        steps = parse_steps(_read(args.steps))
    if m.signature.unary_relations or m.signature.unary_functions:
        raise ValueError("vertex-minor operations take plain graphs (no marks or functions)")
    with timings.time("apply"):
        result = depth_k_vertex_minor(Graph(m.domain, m.edges), steps)
    relabel = {old: new for new, old in enumerate(result.vertices)}
    plain_graph = GuidedStructure(
        Signature((), ()),
        range(len(result.vertices)),
        [(relabel[u], relabel[v]) for u, v in result.edges()],
        {},
        {},
    )
    text = serialize_graph(plain_graph)
    if relabel and any(old != new for old, new in relabel.items()):
        mapping = "".join(
            f"# vertex {new} was {old}\n" for old, new in sorted(relabel.items(), key=lambda kv: kv[1])
        )
        text = mapping + text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
        _emit(
            {"out": args.out, "vertices": len(result.vertices), "edges": len(result.edges())},
            args.format,
            args.out,
        )
        return 0
    _emit({"graph": text}, args.format, text.rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# selftest: oracle-equivalence suites on built-in corpora
# ---------------------------------------------------------------------------


def _corpus() -> List[GuidedStructure]:
    plain = Signature((), ())
    cycle4 = GuidedStructure(plain, range(4), [(i, (i + 1) % 4) for i in range(4)], {}, {})
    path5 = GuidedStructure(plain, range(5), [(i, i + 1) for i in range(4)], {}, {})
    grid = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                grid.append((v, v + 1))
            if r < 2:
                grid.append((v, v + 3))
    grid9 = GuidedStructure(plain, range(9), grid, {}, {})
    marked = GuidedStructure(
        Signature(("P0",), ()),
        range(6),
        [(i, i + 1) for i in range(5)],
        {"P0": [0, 2, 4]},
        {},
    )
    chain = GuidedStructure(
        Signature((), ("f0",)),
        range(6),
        [(i, i + 1) for i in range(5)],
        {},
        {"f0": {i: min(i + 1, 5) for i in range(6)}},
    )
    return [cycle4, path5, grid9, marked, chain]


def _selftest_pipeline() -> List[str]:
    failures = []
    texts = [
        "Emod[0,2] y . adj(x, y)",
        "Emod[1,3] y . adj(x, y) | x = y",
        "Emod[0,2] y . Emod[1,2] z . adj(y, z) & !(y = z)",
    ]
    for mi, m in enumerate(_corpus()):
        local = list(texts)
        if m.signature.unary_functions:
            local.append("Emod[1,2] y . f0(y) = x")
        if m.signature.unary_relations:
            local.append("Emod[0,3] y . adj(x, y) & P0(y)")
        for text in local:
            phi = parse_formula(text, m.signature)
            for v in m.domain:
                want = eval_naive(m, phi, {"x": v})
                got = eval_pipeline(m, phi, {"x": v})
                if want != got:
                    failures.append(
                        f"pipeline-vs-naive: structure {mi}, {text!r}, x={v}"
                    )
    return failures


def _selftest_codec() -> List[str]:
    failures = []
    for mi, m in enumerate(_corpus()):
        forest = heuristic_elimination_forest(gaifman(m))
        back = decode_IS(parse_forest(serialize_forest(encode_IY(m, forest))))
        if back != m:
            failures.append(f"codec-roundtrip: structure {mi}")
    return failures


def _selftest_coloring() -> List[str]:
    failures = []
    for mi, m in enumerate(_corpus()):
        g = gaifman(m)
        for backend in ("exact", "heuristic"):
            coloring = compute_p_centered(g, 3, backend=backend)
            if validate_p_centered(g, coloring) is not None:
                failures.append(f"coloring-valid: structure {mi}, backend {backend}")
    return failures


def _selftest_matrix() -> List[str]:
    failures = []
    p, n = 3, 5
    import random as _random

    rng = _random.Random(2024)
    from .matrix import SparseFieldMatrix

    def dense(mat):
        rows = [[0] * n for _ in range(n)]
        for (i, j), val in mat.entries.items():
            rows[i][j] = val
        return rows

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]

    a = SparseFieldMatrix(
        p, n, {(i, j): rng.randrange(1, p) for i in range(n) for j in range(n) if rng.random() < 0.5}
    )
    b = SparseFieldMatrix(
        p, n, {(i, j): rng.randrange(1, p) for i in range(n) for j in range(n) if rng.random() < 0.5}
    )
    got = dense(eval_expr(parse_expr("A * B"), {"A": a, "B": b}).materialize())
    if got != matmul(dense(a), dense(b)):
        failures.append("matrix-product: dense disagreement")
    ones = [[1] * n for _ in range(n)]
    got = dense(eval_expr(parse_expr("A * J + t(B)"), {"A": a, "B": b}).materialize())
    want = matmul(dense(a), ones)
    tb = dense(b)
    want = [[(want[i][j] + tb[j][i]) % p for j in range(n)] for i in range(n)]
    if got != want:
        failures.append("matrix-mixed: dense disagreement")
    for mat in (a, b):
        marked = build_marking(mat, srank(mat))
        for i in range(n):
            for j in range(n):
                if marked.entry(i, j) != mat.entry(i, j):
                    failures.append("matrix-marking: reconstruction mismatch")
                    return failures
    return failures


def _selftest_vm() -> List[str]:
    import itertools as _it
    import random as _random

    failures = []
    rng = _random.Random(99)
    for trial in range(10):
        n = rng.randrange(3, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(range(n), edges)
        v = rng.randrange(n)
        back = local_complement(local_complement(g, v), v)
        if (back.vertices, tuple(back.edges())) != (g.vertices, tuple(g.edges())):
            failures.append(f"vm-involution: trial {trial}")
        ind = []
        for u in range(n):
            if all(not g.has_edge(u, w) for w in ind):
                ind.append(u)
            if len(ind) == 3:
                break
        want = local_complement_set(g, ind)
        for perm in _it.permutations(ind):
            out = g
            for u in perm:
                out = local_complement(out, u)
            if (out.vertices, tuple(out.edges())) != (want.vertices, tuple(want.edges())):
                failures.append(f"vm-order: trial {trial}")
                break
    return failures


def _cmd_selftest(args, timings: _Timings) -> int:
    suites = [
        ("pipeline-vs-naive", _selftest_pipeline),
        ("codec-roundtrip", _selftest_codec),
        ("coloring-valid", _selftest_coloring),
        ("matrix-calculus", _selftest_matrix),
        ("vertex-minor", _selftest_vm),
    ]
    failures: List[str] = []
    checks = 0
    for name, suite in suites:
        with timings.time(name):
            failures.extend(suite())
        checks += 1
    payload = {"checks": checks, "failures": len(failures), "failed": failures}
    _emit(
        payload,
        args.format,
        "ok" if not failures else "\n".join(failures),
    )
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcheck",
        description="Model checking with modulo-counting quantifiers on sparse colored graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "plain"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("mc", parents=[common], help="evaluate a formula at an assignment")
    mc.add_argument("-g", "--graph", required=True, help="graph file")
    mc.add_argument("-f", "--formula", required=True, help="formula text")
    mc.add_argument("--assign", help="comma-separated var=vertex pairs")
    mc.set_defaults(func=_cmd_mc)

    count = sub.add_parser(
        "count", parents=[common], help="count vertices satisfying a one-variable formula"
    )
    count.add_argument("-g", "--graph", required=True)
    count.add_argument("-f", "--formula", required=True)
    count.set_defaults(func=_cmd_count)

    elim = sub.add_parser(
        "eliminate", parents=[common], help="eliminate modulo quantifiers, emit the expansion"
    )
    elim.add_argument("-g", "--graph", required=True)
    elim.add_argument("-f", "--formula", required=True)
    elim.add_argument("-o", "--out", help="also write the serialized result here")
    elim.set_defaults(func=_cmd_eliminate)

    color = sub.add_parser(
        "color", parents=[common], help="compute and validate a p-centered coloring"
    )
    color.add_argument(
        "--backend",
        choices=("exact", "heuristic"),
        default="heuristic",
        help="coloring backend (exact: small graphs only)",
    )
    color.add_argument("-g", "--graph", required=True)
    color.add_argument("-p", type=int, required=True, help="centeredness parameter")
    color.set_defaults(func=_cmd_color)

    forest = sub.add_parser(
        "forest", parents=[common], help="encode/decode/evaluate elimination-forest presentations"
    )
    forest.add_argument("action", choices=("encode", "decode", "roundtrip", "eval"))
    forest.add_argument("-g", "--graph", help="graph file (encode, roundtrip)")
    forest.add_argument("-F", "--forest", help="forest file (decode, eval)")
    forest.add_argument("-f", "--formula", help="formula over the forest vocabulary (eval)")
    forest.add_argument("--assign", help="comma-separated var=vertex pairs (eval)")
    forest.add_argument(
        "--exact", action="store_true", help="minimum-height forest (small graphs only)"
    )
    forest.set_defaults(func=_cmd_forest)

    matrix = sub.add_parser(
        "matrix", parents=[common], help="evaluate a matrix expression over a prime field"
    )
    matrix.add_argument("--expr", required=True, help="expression, e.g. 'A*B + t(A) o C + 2*J'")
    matrix.add_argument("-i", "--inputs", help="comma-separated NAME=file.mat pairs")
    matrix.add_argument("--entry", help="i,j: print one entry instead of the matrix")
    matrix.add_argument("--out", help="write the resulting matrix file here")
    matrix.add_argument("-p", type=int, help="field order for input-free expressions")
    matrix.add_argument("-n", type=int, help="dimension for input-free expressions")
    matrix.set_defaults(func=_cmd_matrix)

    vm = sub.add_parser(
        "vm", parents=[common], help="apply a depth-k vertex minor to a plain graph"
    )
    vm.add_argument("-g", "--graph", required=True)
    vm.add_argument("--steps", required=True, help="steps file (I lines plus one S line)")
    vm.add_argument("--out", help="write the resulting graph file here")
    vm.set_defaults(func=_cmd_vm)

    selftest = sub.add_parser(
        "selftest", parents=[common], help="run the built-in oracle-equivalence suites"
    )
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def _validate_common(args, parser: argparse.ArgumentParser) -> None:
    if args.command == "forest":
        needs_graph = args.action in ("encode", "roundtrip")
        if needs_graph and not args.graph:
            parser.error(f"forest {args.action} needs --graph")
        if not needs_graph and not args.forest:
            parser.error(f"forest {args.action} needs --forest")
        if args.action == "eval" and not args.formula:
            parser.error("forest eval needs --formula")
    if args.command == "matrix" and args.entry and args.out:
        parser.error("--entry and --out are mutually exclusive")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_common(args, parser)
    timings = _Timings()
    try:
        code = args.func(args, timings)
    except COMPUTE_ERRORS as exc:
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        timings.report()
    return code


if __name__ == "__main__":
    sys.exit(main())
