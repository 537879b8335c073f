"""The four text formats and the structures their readers build.

Every format shares one line reader: blank lines and ``#`` comments are
skipped, and errors name their line.  The graph reader and the structure
builders that start from checked data (restriction, monadic expansion,
decoding, the forest as a structure) assemble a ``GuidedStructure`` without
the constructor's checks; these tests pin that each builds exactly what the
checking constructor builds from the same parts.
"""

import random

import pytest

from gens import (
    random_guided_structure,
    random_max_degree_graph,
    structure_from_graph,
    trace_events,
)
from modcheck.coloring import heuristic_elimination_forest
from modcheck.forest_codec import (
    decode_IS,
    encode_IY,
    forest_structure,
    parse_forest,
    serialize_forest,
)
from modcheck.matrix import SparseFieldMatrix, format_matrix, parse_matrix
from modcheck.structures import (
    GuidedStructure,
    Signature,
    expand_monadic,
    gaifman,
    parse_graph,
    restrict,
    serialize_graph,
)
from modcheck.vertex_minor import VmStep, format_steps, parse_steps

FAMILIES = ("maxdeg", "planar", "forest", "lowtd")


def random_structures(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, random_guided_structure(
            rng,
            rng.randint(1, 30),
            family=FAMILIES[i % 4],
            n_marks=rng.randint(0, 3),
            n_funcs=rng.randint(0, 2),
        )


def with_noise(text: str) -> str:
    """``text`` with a comment line and a blank line before every line and a
    trailing comment after it: line k moves to line 3k."""
    out = []
    for line in text.splitlines():
        out += ["# a comment", "   ", f"  {line}   # trailing note"]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the shared line rules
# ---------------------------------------------------------------------------


def test_comments_and_blank_lines_change_no_result():
    for rng, m in random_structures(81, 40):
        text = serialize_graph(m)
        assert fields(parse_graph(with_noise(text))) == fields(parse_graph(text))
        y = encode_IY(m, heuristic_elimination_forest(gaifman(m)))
        text = serialize_forest(y)
        assert parse_forest(with_noise(text)) == parse_forest(text) == y
        n = len(m)
        steps = [VmStep(tuple(rng.sample(range(n), rng.randint(0, n)))) for _ in range(3)]
        steps.append(VmStep((), tuple(rng.sample(range(n), rng.randint(0, n)))))
        text = format_steps(steps)
        assert parse_steps(with_noise(text)) == parse_steps(text) == steps
        mat = SparseFieldMatrix(5, n, {(u, v): u + v + 1 for u, v in m.edges})
        text = format_matrix(mat)
        assert parse_matrix(with_noise(text)) == parse_matrix(text) == mat


@pytest.mark.parametrize(
    "parse,text,lineno,msg",
    [
        (parse_graph, "n 2\ne 0 1\ne 1 0\n", 3, "parallel edge"),
        (parse_graph, "n 2\nf g 0 x\n", 2, "expected integer, got 'x'"),
        (parse_forest, "r 0\np 0 1\n", 2, "already placed"),
        (parse_forest, "r 0\np 1 zero\n", 2, "expected integer, got 'zero'"),
        (parse_forest, "rel P\nr 0\nm 0 Q\n", 3, "not declared"),
        (parse_steps, "I 0\nS 1\nS 2\n", 3, "second deletion"),
        (parse_steps, "I 0\nI one\n", 2, "integers"),
        (parse_steps, "I 0\nX 1\n", 2, "expected an I or S line, got 'X 1'"),
        (parse_matrix, "p 3\nn 2\n0 5 1\n", 3, "outside [0,2)"),
        (parse_matrix, "p 3\nn 2\n0 1 1\n0 1 2\n", 4, "duplicate entry (0,1)"),
    ],
)
def test_errors_name_their_line_through_comments(parse, text, lineno, msg):
    for source, line in ((text, lineno), (with_noise(text), 3 * lineno)):
        with pytest.raises(ValueError) as exc:
            parse(source)
        assert exc.value.lineno == line
        assert str(exc.value).startswith(f"line {line}: ")
        assert msg in str(exc.value)


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_graph, "n 1\nv 0 g\nf g 0 0\n"),  # a mark and a function named g
        (parse_forest, "rel P\nfn P\nr 0\n"),
        (parse_forest, "p 0 1\np 1 0\n"),  # a parent cycle
        (parse_forest, "p 1 0\n"),  # a parent with no line of its own
        (parse_matrix, "p 3\n# no n\n"),
    ],
)
def test_errors_about_the_whole_file_name_line_one(parse, text):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert exc.value.lineno == 1
    assert str(exc.value).startswith("line 1: ")


# ---------------------------------------------------------------------------
# the trusted assembly builds what the constructor builds
# ---------------------------------------------------------------------------


def fields(m: GuidedStructure):
    """Every field of a structure, with the order of its marks."""
    return m.signature, m.domain, m.edges, list(m.marks.items()), m.functions, m._adj


def assert_as_constructed(m: GuidedStructure) -> None:
    again = GuidedStructure(m.signature, m.domain, m.edges, m.marks, m.functions)
    assert fields(m) == fields(again)


def construct_from_lines(text: str) -> GuidedStructure:
    """The graph file read with no checks and built by the constructor."""
    n, marks, edges, functions = 0, {}, [], {}
    for raw in text.splitlines():
        toks = raw.split("#")[0].split()
        if not toks:
            continue
        if toks[0] == "n":
            n = int(toks[1])
        elif toks[0] == "v":
            for mark in toks[2:]:
                marks.setdefault(mark, []).append(int(toks[1]))
        elif toks[0] == "e":
            edges.append((int(toks[1]), int(toks[2])))
        elif toks[0] == "f":
            functions.setdefault(toks[1], {})[int(toks[2])] = int(toks[3])
    sig = Signature(tuple(marks), tuple(functions))
    return GuidedStructure(sig, range(n), edges, marks, functions)


def test_parse_graph_builds_what_the_constructor_builds():
    for rng, m in random_structures(83, 120):
        text = serialize_graph(m)
        back = parse_graph(text)
        # a file lists marks and functions in order of use and leaves out
        # unused ones, so the signature may differ; all else comes back
        assert (back.domain, back.edges) == (m.domain, m.edges)
        assert back.marks == {k: vs for k, vs in m.marks.items() if vs}
        moved = {k: f for k, f in m.functions.items() if any(f[v] != v for v in f)}
        assert back.functions == moved
        assert fields(parse_graph(serialize_graph(back))) == fields(back)
        assert_as_constructed(back)
        # the same lines in any order, edges either way round, marks repeated
        lines = text.splitlines()
        body = [" ".join(["e", v, u]) if line[0] == "e" and rng.random() < 0.5 else line
                for line in lines[1:] for u, v in [line.split()[-2:]]]
        body += [line for line in body if line[0] == "v" and rng.random() < 0.3]
        rng.shuffle(body)
        shuffled = "\n".join([lines[0]] + body) + "\n"
        got = parse_graph(shuffled)
        assert fields(got) == fields(construct_from_lines(shuffled))
        assert_as_constructed(got)


def test_derived_structures_are_what_the_constructor_builds():
    for rng, m in random_structures(89, 120):
        subset = [v for v in m.domain if rng.random() < 0.6]
        assert_as_constructed(restrict(m, subset))
        new_marks = {f"N{k}": [v for v in m.domain if rng.random() < 0.4] for k in (2, 0, 1)}
        expanded = expand_monadic(m, new_marks)
        assert_as_constructed(expanded)
        assert list(expanded.marks) == list(expanded.signature.unary_relations)
        y = encode_IY(m, heuristic_elimination_forest(gaifman(m)))
        decoded = decode_IS(y)
        assert fields(decoded) == fields(m)
        assert_as_constructed(decoded)
        for height in (None, y.height + 1):
            assert_as_constructed(forest_structure(y, height))


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def chain_forest_text(levels: int, rising: bool) -> str:
    """A forest file of one path: ids rise from the root, or fall to it."""
    if rising:
        return "r 0\n" + "".join(f"p {v + 1} {v}\n" for v in range(levels - 1))
    return f"r {levels - 1}\n" + "".join(f"p {v} {v + 1}\n" for v in range(levels - 1))


def test_parse_forest_reads_deep_chains_in_either_id_order():
    for rising in (True, False):
        y = parse_forest(chain_forest_text(1500, rising))
        assert y.height == 1500
        assert y.forest.level[0] == (1 if rising else 1500)


def test_parsers_scale_linearly():
    """Trace events of the graph and matrix readers on degree-<=4 inputs at
    n and 4n, and of the forest reader on one path of n and 4n levels whose
    ids fall to the root: a reader that does work beyond a constant per line
    fails."""
    texts = {}
    for n in (250, 1000):
        rng = random.Random(n)
        m = structure_from_graph(rng, random_max_degree_graph(rng, n), n_marks=2, n_funcs=1)
        entries = {(u, v): u + v for u, v in m.edges}
        entries.update({(v, u): u * v for u, v in m.edges})
        texts[n] = (serialize_graph(m), format_matrix(SparseFieldMatrix(7, n, entries)))
    cases = [(parse, texts[250][k], texts[1000][k]) for k, parse in enumerate((parse_graph, parse_matrix))]
    cases.append((parse_forest, chain_forest_text(500, False), chain_forest_text(2000, False)))
    for parse, small_text, large_text in cases:
        small, large = trace_events(parse, small_text), trace_events(parse, large_text)
        assert large <= 4.5 * small, (parse.__name__, small, large)
