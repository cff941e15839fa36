"""Every name the per-layer tracer in perfbench/ wraps still exists.

A traced name that no longer resolves makes every traced benchmark run
incorrect, so it fails here first, and so does a traced call whose
parameters the tracer can no longer bind.  The tracer is loaded from its
file, unchanged, and installed on the imported package.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import equiform
import equiform.cli  # noqa: F401  (a traced layer the package root does not import)
import equiform.dictionary
from equiform.dictionary import express_in_generators
from equiform.expressions import parse_form_expression

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer().Tracer(equiform)
    tracer.install(0)
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert missing == []


def test_express_bindings_reach_the_tracer(su2_setup, su2_dictionary, su2_context):
    # the tracer binds express_in_generators' parameters by name, so a
    # renamed one would break only traced benchmark runs; spans are kept on
    # a dictionary, so the traced call takes a fresh one to build columns
    target = parse_form_expression("d(det(b,b))", su2_context)
    want = express_in_generators(su2_setup, su2_dictionary, target)
    tracer = _load_tracer().Tracer(equiform)
    tracer.install(0)
    try:
        got = equiform.dictionary.express_in_generators(
            su2_setup, replace(su2_dictionary), target
        )
        extra = dict(tracer.extra)
    finally:
        tracer.uninstall()
    assert got == want
    assert extra["cell_solves"] > 0
    assert extra["columns"] > 0
