"""Generation under a degree bound, against the full dictionary.

A bounded dictionary contracts only the syllables of degree at most the
bound and forms no candidate above it.  Every subword of a word has at most
its degree, and values of different bidegrees have disjoint supports, so
its entries, radial invariant and verdicts are the full dictionary's of
degree up to the bound, in the same order.  d_table asks for one degree
above its rows, express for its target's degree, generate for everything;
each renders byte-identically on a bounded and on a full dictionary.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import equiform.config as config_module
from equiform.cli import Overrides, resolve_config, run_config
from equiform.config import TaskSpec, parse_config, realize_config
from equiform.dictionary import (
    EngineError,
    completeness_check,
    generate_dictionary,
)
from equiform.expressions import parse_form_expression

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _seeded_config(text, seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.seeded_config(text, seed)[0]


def _realized(name, seed=0):
    source, text = resolve_config(name)
    if seed:
        text = _seeded_config(text, seed)
    return source, realize_config(parse_config(text))


def _generate(rc, bound):
    return generate_dictionary(
        rc.setup,
        list(rc.letters.values()),
        list(rc.contractions.values()),
        bound,
    )


def _entries(dictionary, bound=None):
    return [
        (e.word, e.phase, e.bidegree)
        for e in dictionary.entries
        if bound is None or e.word.degree <= bound
    ]


@pytest.mark.parametrize(
    "name, seed", [("su3_tcp2", 0), ("su3_tcp2", 3), ("su2_ts2", 0), ("su2_ts2", 3)]
)
def test_bounded_dictionary_is_the_full_one_restricted(name, seed):
    _, rc = _realized(name, seed)
    full = _generate(rc, None)
    assert full.max_degree is None
    syllables = full.alphabet.syllables()
    degree = {s.render(): s.degree for s in syllables}

    def degree_of(rendered):
        return 0 if rendered == "1" else sum(map(degree.get, rendered.split("*")))

    top = rc.setup.horizontal_dim + rc.setup.fiber_dim
    assert max(e.word.degree for e in full.entries) == top
    for bound in range(top + 1):
        bounded = _generate(rc, bound)
        assert bounded.max_degree == bound
        assert bounded.alphabet.syllables() == [
            s for s in syllables if s.degree <= bound
        ]
        assert _entries(bounded) == _entries(full, bound)
        assert bounded.radial.word == full.radial.word
        assert bounded.radial.phase == full.radial.phase
        assert bounded.transcript == [
            t for t in full.transcript if degree_of(t[1]) <= bound
        ]
    assert _entries(_generate(rc, top)) == _entries(full)


@pytest.mark.parametrize("name", ["su3_tcp2", "su2_ts2"])
def test_d_table_reports_match_on_a_full_dictionary(name):
    source, full = _realized(name)
    full.dictionary()
    for max_degree in range(5):
        task = TaskSpec(kind="d_table", name="d_table", max_degree=max_degree)
        want = run_config(full, source, [task], Overrides()).to_json()
        _, rc = _realized(name)
        got = run_config(rc, source, [task], Overrides()).to_json()
        assert got == want, max_degree
        assert rc.dictionary(max_degree + 1).max_degree == max_degree + 1


@pytest.mark.parametrize("name", ["su3_tcp2", "su2_ts2"])
def test_express_tasks_match_on_a_full_dictionary(name):
    source, full = _realized(name)
    full.dictionary()
    tasks = [t for t in full.document.tasks if t.kind == "express"]
    assert tasks
    want = run_config(full, source, tasks, Overrides()).to_json()
    _, rc = _realized(name)
    assert run_config(rc, source, tasks, Overrides()).to_json() == want
    degrees = [
        max(parse_form_expression(t.expression, rc.context).degrees()) for t in tasks
    ]
    assert rc.dictionary(max(degrees)).max_degree == max(degrees)


def test_completeness_refuses_a_bounded_dictionary():
    _, rc = _realized("su2_ts2")
    bounded = _generate(rc, 3)
    with pytest.raises(EngineError, match="bounded at degree 3"):
        completeness_check(rc.setup, bounded)
    assert completeness_check(rc.setup, _generate(rc, None)).passed


def _count_generations(monkeypatch):
    bounds = []
    generate = config_module.generate_dictionary

    def counted(setup, letters, contractions, max_degree):
        bounds.append(max_degree)
        return generate(setup, letters, contractions, max_degree)

    monkeypatch.setattr(config_module, "generate_dictionary", counted)
    return bounds


def _run(kinds, monkeypatch, name="su2_ts2"):
    source, rc = _realized(name)
    bounds = _count_generations(monkeypatch)
    tasks = [
        TaskSpec(kind=kind, name=f"{kind}{i}", max_degree=degree)
        for i, (kind, degree) in enumerate(kinds)
    ]
    run_config(rc, source, tasks, Overrides())
    return bounds


def test_generate_then_d_table_generates_once(monkeypatch):
    assert _run([("generate", None), ("d_table", 2)], monkeypatch) == [None]


def test_d_table_then_generate_generates_once(monkeypatch):
    # a later generate task reads the full dictionary, so the d_table asks
    # for it instead of a bounded one
    assert _run([("d_table", 2), ("generate", None)], monkeypatch) == [None]


def test_reordered_bundled_run_generates_once(monkeypatch):
    source, rc = _realized("su2_ts2")
    declared = list(rc.document.tasks)
    want = run_config(rc, source, declared, Overrides()).tasks
    source, rc = _realized("su2_ts2")
    bounds = _count_generations(monkeypatch)
    assert [t.kind for t in declared[:2]] == ["generate", "dim_table"]
    reordered = declared[2:] + declared[:2]  # generate and dim_table last
    report = run_config(rc, source, reordered, Overrides())
    assert bounds == [None]
    assert report.tasks == want[2:] + want[:2]


def test_a_lower_bound_reuses_a_higher_one(monkeypatch):
    kinds = [("d_table", 2), ("d_table", 1), ("d_table", 3), ("d_table", 2)]
    assert _run(kinds, monkeypatch) == [3, 4]


def test_bundled_run_generates_once(monkeypatch):
    for name in ("su3_tcp2", "su2_ts2"):
        source, rc = _realized(name)
        bounds = _count_generations(monkeypatch)
        assert rc.document.tasks[0].kind == "generate"
        report = run_config(rc, source, list(rc.document.tasks), Overrides())
        assert report.passed and bounds == [None]
