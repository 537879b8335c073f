"""The names the traced benchmark reads from the program.

``perfbench/tracer.py`` rebinds the functions and methods it lists, and
``perfbench/run.py`` reads ``forest_eval.CASE_COUNTER``.  A change that
deletes or renames one of them breaks the traced benchmark; these tests
make it fail here as well.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_program():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for modname, attr, _span, _note in tracer.FUNCTIONS:
        module = importlib.import_module(f"modcheck.{modname}")
        assert callable(getattr(module, attr, None)), f"modcheck.{modname}.{attr}"
    for modname, clsname, attr, _span, _note in tracer.METHODS:
        cls = getattr(importlib.import_module(f"modcheck.{modname}"), clsname, None)
        assert cls is not None, f"modcheck.{modname}.{clsname}"
        assert callable(cls.__dict__.get(attr)), f"modcheck.{modname}.{clsname}.{attr}"


def test_case_counter_is_a_module_counter():
    from modcheck import forest_eval

    assert isinstance(forest_eval.CASE_COUNTER, Counter)
    forest_eval.reset_case_counters()
    assert sum(forest_eval.CASE_COUNTER.values()) == 0
