"""Every name the per-layer tracer in perfbench/ wraps still exists.

A traced name that no longer resolves makes every traced benchmark run
incorrect, so it fails here first.  The tracer is loaded from its file,
unchanged, and installed once on the imported package.
"""

import importlib.util
from pathlib import Path

import equiform
import equiform.cli  # noqa: F401  (a traced layer the package root does not import)

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
