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
