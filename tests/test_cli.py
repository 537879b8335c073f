"""Tests for the command-line front end: schemas, determinism, exit codes."""

import json
import random
import subprocess
import sys

import jsonschema
import pytest

from modcheck.cli import main
from modcheck.forest_codec import forest_signature, forest_structure, serialize_forest
from modcheck.logic import ModExists, count_naive, eval_naive, format_formula, parse_formula, walk
from modcheck.matrix import parse_matrix
from modcheck.structures import parse_graph, serialize_graph

from gens import (
    random_colored_forest,
    random_formula,
    random_guided_structure,
    random_quantifier_free,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out.endswith("\n") and out.count("\n") == 1
    return code, json.loads(out), err


def strict(properties, required=None):
    return {
        "type": "object",
        "properties": properties,
        "required": sorted(required or properties),
        "additionalProperties": False,
    }


MC_SCHEMA = strict(
    {
        "result": {"type": "boolean"},
        "pieces": {"type": "integer", "minimum": 0},
        "expansion_marks": {"type": "integer", "minimum": 0},
        "fallback": {"type": "boolean"},
    }
)
COUNT_SCHEMA = strict(
    {
        "count": {"type": "integer", "minimum": 0},
        "fallback": {"type": "boolean"},
        "variable": {"type": "string"},
    }
)
COLOR_SCHEMA = strict(
    {
        "p": {"type": "integer", "minimum": 1},
        "colors": {"type": "integer", "minimum": 0},
        "valid": {"type": "boolean"},
        "assignment": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    }
)
ELIMINATE_SCHEMA = strict(
    {
        "kind": {"const": "modulo-elimination-pipeline"},
        "input": {"type": "string"},
        "output": {"type": "string"},
        "marks": {"type": "array", "items": {"type": "string"}},
        "stages": {"type": "array", "items": {"type": "object"}},
        "notices": {"type": "array", "items": {"type": "string"}},
        "expansion_marks": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "integer"}},
        },
    }
)
SELFTEST_SCHEMA = strict(
    {
        "checks": {"type": "integer", "minimum": 1},
        "failures": {"type": "integer", "minimum": 0},
        "failed": {"type": "array", "items": {"type": "string"}},
    }
)


@pytest.fixture
def c4(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    return str(path)


@pytest.fixture
def k1(tmp_path):
    path = tmp_path / "k1.txt"
    path.write_text("n 1\n")
    return str(path)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_even_degree_on_the_four_cycle(capsys, c4):
    code, payload, _ = run_json(
        capsys, "mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)", "--assign", "x=0"
    )
    assert code == 0
    jsonschema.validate(payload, MC_SCHEMA)
    assert payload["result"] is True
    assert payload["fallback"] is False
    assert payload["pieces"] >= 1
    assert payload["expansion_marks"] >= 1


def test_mc_false_verdicts_still_exit_zero(capsys, c4):
    code, payload, _ = run_json(
        capsys, "mc", "-g", c4, "-f", "Emod[1,2] y. adj(x,y)", "--assign", "x=0"
    )
    assert code == 0
    assert payload["result"] is False


def test_mc_plain_quantifiers_fall_back_to_the_naive_evaluator(capsys, c4):
    code, payload, _ = run_json(
        capsys, "mc", "-g", c4, "-f", "E y . adj(x, y)", "--assign", "x=0"
    )
    assert code == 0
    jsonschema.validate(payload, MC_SCHEMA)
    assert payload == {
        "result": True,
        "pieces": 0,
        "expansion_marks": 0,
        "fallback": True,
    }


def test_mc_and_count_eliminate_inside_plain_quantifiers(capsys, tmp_path):
    # the inner modulo quantifier becomes a mark (one stage, its pieces and
    # marks counted); the plain one around it goes to the naive evaluator
    rng = random.Random(131)
    text = "E z . (adj(x, z) & Emod[0,2] y . (adj(z, y) & P0(y)))"
    for trial in range(4):
        m = random_guided_structure(rng, 7 + trial, family=("maxdeg", "planar")[trial % 2])
        path = tmp_path / f"m{trial}.txt"
        path.write_text(serialize_graph(m))
        phi = parse_formula(text, m.signature)
        for v in m.domain:
            code, payload, _ = run_json(capsys, "mc", "-g", str(path), "-f", text, "--assign", f"x={v}")
            assert code == 0
            jsonschema.validate(payload, MC_SCHEMA)
            assert payload["result"] == eval_naive(m, phi, {"x": v})
            assert payload["fallback"] is True
            assert payload["pieces"] >= 1
            assert payload["expansion_marks"] >= 1
        code, payload, _ = run_json(capsys, "count", "-g", str(path), "-f", text)
        assert code == 0
        assert payload == {"count": count_naive(m, phi), "fallback": True, "variable": "x"}


def test_mc_is_byte_identical_across_reruns(capsys, c4):
    args = ("mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)", "--assign", "x=1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_mc_unassigned_free_variables_are_a_computation_error(capsys, c4):
    code, out, err = run_cli(capsys, "mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)")
    assert code == 1
    assert out == ""
    assert "free variable" in err


def test_mc_missing_graph_file_is_a_computation_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "mc", "-g", str(tmp_path / "nope.txt"), "-f", "x = x", "--assign", "x=0"
    )
    assert code == 1
    assert "error:" in err


def test_mc_timings_go_to_stderr_not_stdout(capsys, c4):
    _, out, err = run_cli(
        capsys, "mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)", "--assign", "x=0"
    )
    assert "timing" not in out
    assert "timing parse" in err and "timing solve" in err


def test_mc_plain_format_prints_the_verdict_word(capsys, c4):
    code, out, _ = run_cli(
        capsys,
        "mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)", "--assign", "x=0",
        "--format", "plain",
    )
    assert code == 0
    assert out == "true\n"


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_on_the_four_cycle(capsys, c4):
    code, payload, _ = run_json(capsys, "count", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)")
    assert code == 0
    jsonschema.validate(payload, COUNT_SCHEMA)
    assert payload == {"count": 4, "fallback": False, "variable": "x"}


def test_count_fallback_flag_on_plain_quantifiers(capsys, c4):
    code, payload, _ = run_json(capsys, "count", "-g", c4, "-f", "E y . adj(x, y)")
    assert code == 0
    assert payload == {"count": 4, "fallback": True, "variable": "x"}


def test_count_requires_exactly_one_free_variable(capsys, c4):
    code, out, err = run_cli(capsys, "count", "-g", c4, "-f", "adj(x, y)")
    assert code == 1
    assert "one free variable" in err


# ---------------------------------------------------------------------------
# eliminate
# ---------------------------------------------------------------------------


def test_eliminate_emits_the_serialized_expansion(capsys, c4, tmp_path):
    out_path = tmp_path / "run.json"
    code, payload, _ = run_json(
        capsys,
        "eliminate", "-g", c4, "-f", "Emod[1,2] y. adj(x,y)", "-o", str(out_path),
    )
    assert code == 0
    jsonschema.validate(payload, ELIMINATE_SCHEMA)
    assert payload["expansion_marks"]
    for vertices in payload["expansion_marks"].values():
        assert vertices == sorted(vertices)
    on_disk = json.loads(out_path.read_text())
    assert on_disk == payload
    assert len(payload["stages"]) == 1
    assert payload["stages"][0]["modulus"] == 2


def test_eliminate_rejects_plain_quantifiers(capsys, c4):
    code, out, err = run_cli(capsys, "eliminate", "-g", c4, "-f", "E y . adj(x, y)")
    assert code == 1
    assert "quantifier" in err


def test_eliminate_is_byte_identical_across_reruns(capsys, c4):
    args = ("eliminate", "-g", c4, "-f", "Emod[0,3] y. adj(x,y)")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------


def test_color_single_vertex_needs_one_color(capsys, k1):
    code, payload, _ = run_json(capsys, "color", "-g", k1, "-p", "2")
    assert code == 0
    jsonschema.validate(payload, COLOR_SCHEMA)
    assert payload["colors"] == 1
    assert payload["valid"] is True
    assert payload["assignment"] == [[0, 1]]


def test_color_validates_on_the_four_cycle_with_both_backends(capsys, c4):
    for backend in ("exact", "heuristic"):
        code, payload, _ = run_json(
            capsys, "color", "-g", c4, "-p", "3", "--backend", backend
        )
        assert code == 0
        assert payload["valid"] is True
        assert payload["p"] == 3


def test_exact_backends_refuse_graphs_above_the_cap(capsys, tmp_path):
    path = tmp_path / "c21.txt"
    path.write_text("n 21\n" + "".join(f"e {i} {(i + 1) % 21}\n" for i in range(21)))
    for argv in (
        ("color", "-g", str(path), "-p", "3", "--backend", "exact"),
        ("forest", "encode", "-g", str(path), "--exact"),
        ("forest", "roundtrip", "-g", str(path), "--exact"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "capped at 20" in err


def test_color_plain_format_lists_assignments_then_the_report(capsys, k1):
    code, out, _ = run_cli(capsys, "color", "-g", k1, "-p", "2", "--format", "plain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c 0 1"
    report = json.loads(lines[-1])
    assert report == {"colors": 1, "p": 2, "valid": True}


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------


def test_forest_encode_decode_roundtrip_through_files(capsys, c4, tmp_path):
    code, payload, _ = run_json(capsys, "forest", "encode", "-g", c4)
    assert code == 0
    assert payload["height"] >= 1
    forest_path = tmp_path / "c4.forest"
    forest_path.write_text(payload["forest"])
    code, decoded, _ = run_json(capsys, "forest", "decode", "-F", str(forest_path))
    assert code == 0
    assert parse_graph(decoded["graph"]) == parse_graph(open(c4).read())


def test_forest_roundtrip_reports_success(capsys, c4):
    code, payload, _ = run_json(capsys, "forest", "roundtrip", "-g", c4)
    assert code == 0
    assert payload == {"roundtrip": True}


def test_forest_roundtrip_exact_backend(capsys, c4):
    code, payload, _ = run_json(capsys, "forest", "roundtrip", "-g", c4, "--exact")
    assert code == 0
    assert payload == {"roundtrip": True}


def test_forest_eval_answers_over_the_forest_vocabulary(capsys, c4, tmp_path):
    _, payload, _ = run_json(capsys, "forest", "encode", "-g", c4)
    forest_path = tmp_path / "c4.forest"
    forest_path.write_text(payload["forest"])
    code, verdict, _ = run_json(
        capsys,
        "forest", "eval", "-F", str(forest_path),
        "-f", "Emod[0,2] y . pi(y) = x", "--assign", "x=0",
    )
    assert code == 0
    assert set(verdict) == {"result"}
    assert isinstance(verdict["result"], bool)
    # the verdict is the naive one over the forest structure
    rng = random.Random(71)
    with_emod = 0
    for trial in range(20):
        y = random_colored_forest(rng, rng.randint(1, 9), height=3)
        fsig = forest_signature(y.signature, y.forest.height)
        fv = ("x", "z")[: trial % 3]
        if trial % 2 == 0:
            b = rng.choice((2, 3))
            body = random_quantifier_free(rng, fsig, list(fv) + ["w"], depth=2, max_funcs=2)
            phi = ModExists(rng.randrange(b), b, "w", body)
        else:
            phi = random_formula(rng, fsig, fv, q_budget=2, depth=2, moduli=(2, 3), max_funcs=2)
        with_emod += any(isinstance(n, ModExists) for n in walk(phi))
        nu = {v: rng.choice(y.forest.vertices) for v in fv}
        forest_path.write_text(serialize_forest(y))
        argv = ["forest", "eval", "-F", str(forest_path), "-f", format_formula(phi, fsig)]
        if nu:
            argv += ["--assign", ",".join(f"{v}={w}" for v, w in nu.items())]
        code, verdict, _ = run_json(capsys, *argv)
        assert code == 0
        assert verdict == {"result": eval_naive(forest_structure(y), phi, nu)}, trial
    assert with_emod >= 10


def test_forest_encode_refuses_names_of_the_forest_vocabulary(capsys, tmp_path):
    for name, text in (("Lvl1", "n 2\nv 0 Lvl1\ne 0 1\n"), ("pi", "n 2\ne 0 1\nf pi 0 1\n")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "forest", "encode", "-g", str(path))
        assert code == 1, name
        assert out == ""
        assert f"source symbol '{name}' collides with the forest vocabulary" in err


def test_forest_usage_errors_exit_two(capsys, c4):
    with pytest.raises(SystemExit) as info:
        main(["forest", "encode"])  # missing --graph
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["forest", "eval", "-F", "x.forest"])  # missing --formula
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


@pytest.fixture
def mats(tmp_path):
    a = tmp_path / "a.mat"
    a.write_text("p 3\nn 3\n0 0 1\n0 1 2\n1 2 1\n")
    b = tmp_path / "b.mat"
    b.write_text("p 3\nn 3\n1 1 1\n2 0 2\n")
    return str(a), str(b)


def test_matrix_expression_to_stdout(capsys, mats):
    a, b = mats
    code, payload, _ = run_json(
        capsys, "matrix", "--expr", "A*B + t(A) o B", "-i", f"A={a},B={b}"
    )
    assert code == 0
    assert set(payload) == {"matrix", "nnz"}
    result = parse_matrix(payload["matrix"])
    assert result.p == 3 and result.n == 3
    assert payload["nnz"] == result.nnz


def test_matrix_inputs_strip_names_and_paths(capsys, mats):
    a, _ = mats
    expected = run_json(capsys, "matrix", "--expr", "A", "-i", f"A={a}")[:2]
    for item in (f"A ={a}", f"A= {a}", f" A = {a} "):
        assert run_json(capsys, "matrix", "--expr", "A", "-i", item)[:2] == expected
    code, out, err = run_cli(capsys, "matrix", "--expr", "A", "-i", f"={a}")
    assert code == 1 and not out
    assert "bad or repeated name in input" in err


def test_matrix_entry_query(capsys, mats):
    a, _ = mats
    code, payload, _ = run_json(
        capsys, "matrix", "--expr", "A * J", "-i", f"A={a}", "--entry", "0,2"
    )
    assert code == 0
    # row 0 of A sums to 1+2=3=0 mod 3
    assert payload == {"entry": 0, "i": 0, "j": 2, "p": 3}


def test_matrix_out_file_is_reparseable(capsys, mats, tmp_path):
    a, b = mats
    out = tmp_path / "prod.mat"
    code, payload, _ = run_json(
        capsys, "matrix", "--expr", "A*B", "-i", f"A={a},B={b}", "--out", str(out)
    )
    assert code == 0
    written = parse_matrix(out.read_text())
    assert payload["nnz"] == written.nnz
    assert payload["p"] == 3 and payload["n"] == 3


def test_matrix_input_free_expressions_need_dimensions(capsys):
    code, out, err = run_cli(capsys, "matrix", "--expr", "J")
    assert code == 1
    assert "must be given" in err
    code, payload, _ = run_json(capsys, "matrix", "--expr", "J", "-p", "2", "-n", "2")
    assert code == 0
    assert parse_matrix(payload["matrix"]).nnz == 4


def test_matrix_entry_and_out_conflict_is_a_usage_error(capsys, mats, tmp_path):
    a, _ = mats
    with pytest.raises(SystemExit) as info:
        main([
            "matrix", "--expr", "A", "-i", f"A={a}",
            "--entry", "0,0", "--out", str(tmp_path / "x.mat"),
        ])
    assert info.value.code == 2


def test_matrix_malformed_expression_is_a_computation_error(capsys, mats):
    a, _ = mats
    code, out, err = run_cli(capsys, "matrix", "--expr", "A +", "-i", f"A={a}")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# vm
# ---------------------------------------------------------------------------


def test_vm_complement_and_delete_on_the_four_cycle(capsys, c4, tmp_path):
    steps = tmp_path / "steps.txt"
    steps.write_text("I 0\nS 1\n")
    code, payload, _ = run_json(capsys, "vm", "-g", c4, "--steps", str(steps))
    assert code == 0
    result = parse_graph(payload["graph"])
    assert len(result.domain) == 3
    assert result.edges == ((0, 2), (1, 2))
    assert "# vertex 1 was 2" in payload["graph"]


def test_vm_identity_steps_reproduce_the_graph(capsys, c4, tmp_path):
    steps = tmp_path / "steps.txt"
    steps.write_text("I\nS\n")
    code, payload, _ = run_json(capsys, "vm", "-g", c4, "--steps", str(steps))
    assert code == 0
    assert parse_graph(payload["graph"]) == parse_graph(open(c4).read())


def test_vm_out_file(capsys, c4, tmp_path):
    steps = tmp_path / "steps.txt"
    steps.write_text("I 0 2\nS\n")
    out = tmp_path / "result.txt"
    code, payload, _ = run_json(
        capsys, "vm", "-g", c4, "--steps", str(steps), "--out", str(out)
    )
    assert code == 0
    assert payload["vertices"] == 4
    parse_graph(out.read_text())


def test_vm_rejects_marked_graphs(capsys, tmp_path):
    g = tmp_path / "marked.txt"
    g.write_text("n 2\nv 0 P\ne 0 1\n")
    steps = tmp_path / "steps.txt"
    steps.write_text("S\n")
    code, out, err = run_cli(capsys, "vm", "-g", str(g), "--steps", str(steps))
    assert code == 1
    assert "plain graphs" in err


def test_vm_dependent_set_is_a_computation_error(capsys, c4, tmp_path):
    steps = tmp_path / "steps.txt"
    steps.write_text("I 0 1\nS\n")
    code, out, err = run_cli(capsys, "vm", "-g", c4, "--steps", str(steps))
    assert code == 1
    assert "not independent" in err


# ---------------------------------------------------------------------------
# selftest and global behavior
# ---------------------------------------------------------------------------


def test_selftest_runs_clean(capsys):
    code, payload, _ = run_json(capsys, "selftest")
    assert code == 0
    jsonschema.validate(payload, SELFTEST_SCHEMA)
    assert payload["failures"] == 0
    assert payload["failed"] == []
    assert payload["checks"] == 5


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["mc", "-g", "x.txt"])  # missing --formula
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--backend", "exact"])  # no coloring to choose
    assert info.value.code == 2
    # the pipeline's coloring is internal: only `color` chooses a backend
    for command in ("mc", "count", "eliminate"):
        with pytest.raises(SystemExit) as info:
            main([command, "-g", "x.txt", "-f", "x = x", "--backend", "exact"])
        assert info.value.code == 2, command


def test_module_entrypoint_runs_as_a_subprocess(c4):
    proc = subprocess.run(
        [
            sys.executable, "-m", "modcheck.cli",
            "mc", "-g", c4, "-f", "Emod[0,2] y. adj(x,y)", "--assign", "x=0",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True
    assert "timing" in proc.stderr
