"""Structured run reports.

A report is one JSON document: schema tag, config identity, a short
subject block describing the realized setup, convention notes, and one
record per executed task.  Serialization is canonical (sorted keys, fixed
indentation, trailing newline) so identical runs produce byte-identical
files; nothing time- or path-dependent goes in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "equiform-report/1"


class ReportError(ValueError):
    pass


def _json_key(key) -> str:
    """A mapping key as json.dumps writes it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


_PLAIN = frozenset({str, int, float, bool, type(None)})


def _normalize(data):
    """The value json.loads(json.dumps(data, sort_keys=True)) gives, in one
    walk: tuples become lists, keys become strings in sorted order, and a
    str, int or float subclass its base type."""
    if type(data) in _PLAIN:
        return data
    if isinstance(data, dict):
        return {_json_key(k): _normalize(v) for k, v in sorted(data.items())}
    if isinstance(data, (list, tuple)):
        return [_normalize(v) for v in data]
    if isinstance(data, str):
        return str.__str__(data)
    if isinstance(data, int):
        return int(data)
    if isinstance(data, float):
        return float(data)
    raise TypeError(f"Object of type {type(data).__name__} is not JSON serializable")


@dataclass(frozen=True)
class TaskReport:
    name: str
    kind: str
    status: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ReportError(f"status must be pass or fail, got {self.status!r}")
        object.__setattr__(self, "details", _normalize(self.details))

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ReportDocument:
    source: str
    subject: dict
    conventions: dict
    tasks: tuple[TaskReport, ...]
    schema: str = SCHEMA

    def __post_init__(self):
        object.__setattr__(self, "subject", _normalize(self.subject))
        object.__setattr__(self, "conventions", _normalize(self.conventions))
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tasks)

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "source": self.source,
            "subject": self.subject,
            "conventions": self.conventions,
            "tasks": [
                {
                    "name": t.name,
                    "kind": t.kind,
                    "status": t.status,
                    "details": t.details,
                }
                for t in self.tasks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"report for {self.source}"]
        for key in sorted(self.subject):
            lines.append(f"  {key}: {self.subject[key]}")
        for key in sorted(self.conventions):
            lines.append(f"  {key}: {self.conventions[key]}")
        lines.append("")
        width = max((len(t.name) for t in self.tasks), default=0)
        for t in self.tasks:
            mark = "pass" if t.passed else "FAIL"
            lines.append(f"[{mark}] {t.name.ljust(width)}  ({t.kind})")
            for extra in _detail_lines(t):
                lines.append(f"       {extra}")
        lines.append("")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _detail_lines(task: TaskReport):
    d = task.details
    if task.kind == "generate":
        yield (
            f"{d.get('total_entries', '?')} entries, "
            f"{d.get('origin_entries', '?')} at the origin, "
            f"radial {d.get('radial', '-')}"
        )
        comp = d.get("completeness")
        if comp is not None:
            yield (
                f"completeness {comp['matched_cells']}/{comp['cells']} cells, "
                f"span total {comp['span_total']} vs invariant total "
                f"{comp['invariant_total']}"
            )
    elif task.kind == "dim_table":
        for label in ("origin", "generic"):
            grid = d.get(label)
            if grid:
                yield f"{label}: " + " ".join(
                    ",".join(str(n) for n in row) for row in grid
                )
    elif task.kind == "d_table":
        failed = d.get("failed_rows", [])
        rows = d.get("rows")
        expressed = "?" if rows is None else rows - len(failed)
        yield f"{expressed} differentials expressed"
        for row in failed:
            yield f"no expression for d({row})"
    elif task.kind in ("verify_closed", "verify_equation"):
        for v in d.get("verdicts", []):
            yield v["statement"]
    elif task.kind == "express":
        got = d.get("expression")
        if got is not None:
            yield f"{d.get('target', '?')} = {got}"
        else:
            yield f"no expression found for {d.get('target', '?')}"
