"""Report document invariants: canonical serialization and round-trips."""

import json

import pytest

from equiform.report import SCHEMA, ReportDocument, ReportError, TaskReport


def sample():
    return ReportDocument(
        source="demo",
        subject={"fiber_dim": 2, "letters": ("a", "b")},
        conventions={"b_convention": "row"},
        tasks=(
            TaskReport(
                name="generate",
                kind="generate",
                status="pass",
                details={"counts": {"1,1": 4}, "cells": (1, 2)},
            ),
            TaskReport(
                name="check",
                kind="verify_closed",
                status="fail",
                details={"verdicts": [{"statement": "check: closed FAILS"}]},
            ),
        ),
    )


def test_round_trip():
    doc = sample()
    raw = json.loads(doc.to_json())
    again = ReportDocument(
        source=raw["source"],
        subject=raw["subject"],
        conventions=raw["conventions"],
        tasks=tuple(TaskReport(**t) for t in raw["tasks"]),
    )
    assert again == doc


def test_serialization_is_stable():
    doc = sample()
    assert doc.to_json() == doc.to_json()
    assert doc.to_json().endswith("\n")


def test_tuples_become_lists():
    doc = sample()
    assert doc.subject["letters"] == ["a", "b"]
    assert doc.tasks[0].details["cells"] == [1, 2]


def test_passed_aggregates():
    doc = sample()
    assert not doc.passed
    ok = ReportDocument(
        source="demo",
        subject={},
        conventions={},
        tasks=(TaskReport(name="t", kind="dim_table", status="pass"),),
    )
    assert ok.passed


def test_status_vocabulary():
    with pytest.raises(ReportError, match="pass or fail"):
        TaskReport(name="t", kind="generate", status="ok")


def test_schema_checked():
    assert json.loads(sample().to_json())["schema"] == SCHEMA
    assert SCHEMA in sample().to_json()


def test_render_text_shape():
    text = sample().render_text()
    assert "[pass] generate" in text
    assert "[FAIL] check" in text
    assert "check: closed FAILS" in text
    assert text.rstrip().endswith("overall: FAIL")


# -- one walk against the json round trip it replaced ---------------------------

import equiform.report as report_module  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

import json_round_trip_oracle  # noqa: E402

_KEYS = st.one_of(
    st.text(max_size=3),
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.none(),
)
_DATA = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3),
    ),
    max_leaves=12,
)


def _encoded(normalize, data):
    """The normalized value written without sorting, so that key order,
    key strings and value types all show; or the refusal's type."""
    try:
        return json.dumps(normalize(data))
    except TypeError as e:
        return type(e)


@given(_DATA)
@settings(max_examples=300, deadline=None)
def test_normalize_equals_the_json_round_trip(data):
    want = _encoded(json_round_trip_oracle.normalize, data)
    assert _encoded(report_module._normalize, data) == want


def test_subclasses_become_their_base_types():
    import enum

    class Name(str):
        def __str__(self):
            return "renamed"

    class Level(enum.IntEnum):
        LOW = 1

    data = {"s": Name("x"), "i": Level.LOW, "n": {Level.LOW: (Name("y"),)}}
    got = report_module._normalize(data)
    assert json.dumps(got) == json.dumps(json_round_trip_oracle.normalize(data))
    assert [type(v) for v in got.values()] == [int, dict, str]
    assert type(got["n"]["1"][0]) is str


def test_normalize_refuses_what_json_refuses():
    for data in ({(1, 2): 0}, {"x": object()}, {"x": {1, 2}}):
        with pytest.raises(TypeError):
            json_round_trip_oracle.normalize(data)
        with pytest.raises(TypeError):
            report_module._normalize(data)


@pytest.mark.parametrize("name", ["su2_ts2", "su3_tcp2"])
def test_bundled_reports_normalize_as_the_round_trip(name, monkeypatch):
    from equiform.cli import Overrides, resolve_config, run_config
    from equiform.config import parse_config, realize_config

    seen, depth = [], [0]
    normalize = report_module._normalize

    def recording(data):
        # the walk calls itself through the module: record the outermost
        depth[0] += 1
        try:
            out = normalize(data)
        finally:
            depth[0] -= 1
        if not depth[0]:
            seen.append((data, out))
        return out

    monkeypatch.setattr(report_module, "_normalize", recording)
    source, text = resolve_config(name)
    document = parse_config(text)
    run_config(realize_config(document), source, list(document.tasks), Overrides())
    # one per task, and the report's subject and conventions
    assert len(seen) == len(document.tasks) + 2
    for data, out in seen:
        want = json_round_trip_oracle.normalize(data)
        assert json.dumps(out) == json.dumps(want)
