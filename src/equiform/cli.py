"""Command line driver.

    equiform <subcommand> --config <path or bundled name> [options]

Subcommands named after task kinds run the matching tasks from the
config; `run` executes the whole declared task list in order; `validate`
only builds the setup and reports its checks.  A config argument that is
not an existing file is looked up among the bundled examples.

The JSON report is canonical: running the same config twice gives byte
identical output.  Exit status is 0 when every task passed, 1 when some
verification failed or some differential could not be expressed, 2 for
unusable input (bad config, unknown task, malformed expression) or a report
that cannot be written to --output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from importlib import resources

from equiform import verify
from equiform.config import (
    TASK_KINDS,
    ConfigError,
    RealizedConfig,
    TaskSpec,
    parse_config,
    realize_config,
)
from equiform.dictionary import (
    EngineError,
    completeness_check,
    differential_table,
    express_in_generators,
)
from equiform.expressions import ExpressionError, parse_form_expression
from equiform.homogeneous import SetupError
from equiform.report import ReportDocument, TaskReport
from equiform.scalars import PointError, RingError

DEFAULT_BOUNDS = (4, -2)  # engine order: highest power, lowest power


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class Overrides:
    max_degree: int | None = None
    bounds: tuple[int, int] | None = None  # engine order
    # a generate task of the run reads the whole dictionary, so that a task
    # before it does not generate a bounded one
    full_dictionary: bool = False


# -- config resolution -------------------------------------------------------


def bundled_names() -> list[str]:
    root = resources.files("equiform.configs")
    return sorted(
        p.name[: -len(".json")]
        for p in root.iterdir()
        if p.name.endswith(".json")
    )


def resolve_config(arg: str) -> tuple[str, str]:
    """Return (display name, config text) from a path or a bundled name."""
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return os.path.basename(arg), fh.read()
        except OSError as e:
            raise UsageError(f"cannot read config {arg}: {e}") from None
        except UnicodeDecodeError as e:
            raise UsageError(
                f"cannot read config {arg}: byte {e.start} is not UTF-8"
            ) from None
    name = arg[: -len(".json")] if arg.endswith(".json") else arg
    root = resources.files("equiform.configs")
    candidate = root / f"{name}.json"
    if candidate.is_file():
        return name, candidate.read_text(encoding="utf-8")
    known = ", ".join(bundled_names()) or "none"
    raise UsageError(
        f"no such file or bundled config: {arg} (bundled: {known})"
    )


# -- task execution ----------------------------------------------------------


def _bounds_for(task: TaskSpec, ov: Overrides) -> tuple[int, int]:
    if ov.bounds is not None:
        return ov.bounds
    if task.laurent_bounds is not None:
        lo, hi = task.laurent_bounds
        return hi, lo
    return DEFAULT_BOUNDS


def _dictionary_for(rc: RealizedConfig, ov: Overrides, max_degree: int | None = None):
    """The dictionary up to the degree a task reads, None for all of it."""
    return rc.dictionary(None if ov.full_dictionary else max_degree)


def _report(task: TaskSpec, passed: bool, details: dict) -> TaskReport:
    status = "pass" if passed else "fail"
    return TaskReport(name=task.name, kind=task.kind, status=status, details=details)


def _cell_key(bidegree: tuple[int, int]) -> str:
    return f"{bidegree[0]},{bidegree[1]}"


def _run_generate(rc: RealizedConfig, task: TaskSpec, ov: Overrides) -> TaskReport:
    dictionary = _dictionary_for(rc, ov)
    comp = completeness_check(rc.setup, dictionary)
    cells = [vars(c) for c in sorted(comp.cells, key=lambda c: c.bidegree)]
    details = {
        "total_entries": len(dictionary.entries),
        "origin_entries": len(dictionary.origin_entries()),
        "radial": (
            dictionary.radial.word.render() if dictionary.radial else None
        ),
        "counts": {
            _cell_key(cell): n for cell, n in dictionary.counts().items()
        },
        "entries": [
            {
                "word": e.word.render(),
                "bidegree": list(e.bidegree),
                "phase": e.phase,
            }
            for e in dictionary.entries
        ],
        "completeness": {
            "cells": len(comp.cells),
            "matched_cells": sum(1 for c in comp.cells if c.passed),
            "span_total": sum(c.span_generic for c in comp.cells),
            "invariant_total": sum(c.target_generic for c in comp.cells),
            "stabilizer_dim_origin": comp.stabilizer_dim_origin,
            "stabilizer_dim_generic": comp.stabilizer_dim_generic,
            "cells_detail": cells,
        },
    }
    return _report(task, comp.passed, details)


def _duality_classes(n: int) -> list[list[int]]:
    return [sorted({p, n - p}) for p in range(n // 2 + 1)]


def _grouped(grid: tuple[tuple[int, ...], ...], cp, cq) -> dict:
    table = []
    constant = True
    for rows in cp:
        line = []
        for cols in cq:
            values = {grid[p][q] for p in rows for q in cols}
            if len(values) == 1:
                line.append(values.pop())
            else:
                line.append(None)
                constant = False
        table.append(line)
    return {
        "classes_p": cp,
        "classes_q": cq,
        "table": table,
        "constant_on_classes": constant,
    }


def _run_dim_table(rc: RealizedConfig, task: TaskSpec, ov: Overrides) -> TaskReport:
    setup = rc.setup
    tables = setup.invariant_dimension_tables()
    cp = _duality_classes(setup.horizontal_dim)
    cq = _duality_classes(setup.fiber_dim)
    details = {
        **vars(tables),
        "grouped_origin": _grouped(tables.origin, cp, cq),
        "grouped_generic": _grouped(tables.generic, cp, cq),
    }
    return _report(task, True, details)


def _run_d_table(rc: RealizedConfig, task: TaskSpec, ov: Overrides) -> TaskReport:
    max_degree = ov.max_degree if ov.max_degree is not None else task.max_degree
    if max_degree is None:
        raise UsageError(f"task {task.name}: d_table needs max_degree")
    # d raises degree by one
    dictionary = _dictionary_for(rc, ov, max_degree + 1)
    rows = differential_table(
        rc.setup,
        dictionary,
        max_degree,
        degree_bounds=_bounds_for(task, ov),
        allow_triples=task.allow_triples,
    )
    failed = [r.word.render() for r in rows if r.differential.residual]
    details = {
        "rows": len(rows),
        "table": [
            {
                "word": r.word.render(),
                "kind": r.kind,
                "differential": r.differential.render(),
            }
            for r in rows
        ],
        "failed_rows": failed,
    }
    return _report(task, not failed, details)


def _run_verify_closed(
    rc: RealizedConfig, task: TaskSpec, ov: Overrides
) -> TaskReport:
    verdicts = []
    ok = True
    for i, text in enumerate(task.forms):
        label = task.name if len(task.forms) == 1 else f"{task.name}[{i}]"
        form = _parse(rc, text, f"task {task.name}: forms[{i}]")
        v = verify.verify_closed(
            rc.setup, form, name=label, on_sphere=task.on_sphere
        )
        ok = ok and v.holds
        verdicts.append(
            {
                "form": text,
                "holds": v.holds,
                "statement": v.describe(),
                "residual": str(v.residual),
            }
        )
    return _report(task, ok, {"on_sphere": task.on_sphere, "verdicts": verdicts})


def _run_verify_equation(
    rc: RealizedConfig, task: TaskSpec, ov: Overrides
) -> TaskReport:
    lhs = _parse(rc, task.lhs, f"task {task.name}: lhs")
    rhs = _parse(rc, task.rhs, f"task {task.name}: rhs")
    v = verify.verify_equation(
        rc.setup, lhs, rhs, name=task.name, on_sphere=task.on_sphere
    )
    details = {
        "on_sphere": task.on_sphere,
        "verdicts": [
            {
                "lhs": task.lhs,
                "rhs": task.rhs,
                "holds": v.holds,
                "statement": v.describe(),
                "residual": str(v.residual),
            }
        ],
    }
    return _report(task, v.holds, details)


def _run_express(rc: RealizedConfig, task: TaskSpec, ov: Overrides) -> TaskReport:
    form = _parse(rc, task.expression, f"task {task.name}: expression")
    dictionary = _dictionary_for(rc, ov, max(form.degrees(), default=0))
    comb = express_in_generators(
        rc.setup,
        dictionary,
        form,
        degree_bounds=_bounds_for(task, ov),
        allow_triples=task.allow_triples,
    )
    details = {
        "target": task.expression,
        "expression": None if comb.residual else comb.render(),
    }
    return _report(task, not comb.residual, details)


def _parse(rc: RealizedConfig, text: str, where: str):
    try:
        return parse_form_expression(text, rc.context)
    except ExpressionError as e:
        raise UsageError(f"{where}: {e}") from None


_RUNNERS = {
    "generate": _run_generate,
    "dim_table": _run_dim_table,
    "d_table": _run_d_table,
    "verify_closed": _run_verify_closed,
    "verify_equation": _run_verify_equation,
    "express": _run_express,
}


def run_task(rc: RealizedConfig, task: TaskSpec, ov: Overrides) -> TaskReport:
    try:
        return _RUNNERS[task.kind](rc, task, ov)
    except (EngineError, verify.VerifyError, SetupError, RingError, PointError) as e:
        raise UsageError(f"task {task.name}: {e}") from None


def run_config(
    rc: RealizedConfig,
    source: str,
    tasks: list[TaskSpec],
    ov: Overrides,
) -> ReportDocument:
    """The report of the tasks, in order, after the subject of the setup;
    with no tasks it is the validate report."""
    ov = replace(ov, full_dictionary=any(t.kind == "generate" for t in tasks))
    reports = [run_task(rc, t, ov) for t in tasks]
    setup = rc.setup
    subject = {
        "algebra_dimension": setup.algebra.dimension,
        "horizontal_dim": setup.horizontal_dim,
        "gauge_dim": len(setup.splitting.gauge),
        "fiber_dim": setup.fiber_dim,
        "sqrt_constants": list(setup.field.radicands),
        "params": list(setup.ring.params),
        "radicals": list(setup.ring.radical_names),
        "letters": sorted(rc.letters),
        "contractions": sorted(rc.contractions),
    }
    conventions = {"b_convention": "row", "warnings": list(setup.warnings)}
    return ReportDocument(
        source=source, subject=subject, conventions=conventions, tasks=tuple(reports)
    )


# -- argument handling -------------------------------------------------------


def _parse_bounds_flag(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        raise UsageError(
            f"--laurent-bounds wants two integers lo,hi; got {text!r}"
        ) from None
    if lo > hi:
        raise UsageError(f"--laurent-bounds: lo {lo} exceeds hi {hi}")
    return hi, lo


def _positive_flag(flag: str, value: int | None) -> int | None:
    if value is not None and value < 1:
        raise UsageError(f"{flag}: value {value} is below 1")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as every other input error: one line, exit 2.

    No option starts with a dash and a digit, so such a token is a value:
    `--laurent-bounds -4,32` means `--laurent-bounds=-4,32`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(2, f"equiform: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="equiform",
        description="exact invariant-form calculus on associated bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ["run", "validate", *TASK_KINDS]:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path or bundled name")
        p.add_argument("--task", help="only the task with this name")
        p.add_argument("--max-degree", type=int, dest="max_degree")
        p.add_argument("--laurent-bounds", dest="laurent_bounds")
        p.add_argument("--output", help="write the report to this file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
    return parser


def _select_tasks(
    command: str, declared: tuple[TaskSpec, ...], task_name: str | None, ov: Overrides
) -> list[TaskSpec]:
    tasks = list(declared)
    if task_name is not None:
        tasks = [t for t in tasks if t.name == task_name]
        if not tasks:
            known = ", ".join(t.name for t in declared) or "none"
            raise UsageError(f"no task named {task_name!r} (declared: {known})")
    if command != "run":
        tasks = [t for t in tasks if t.kind == command]
        if not tasks and task_name is not None:
            raise UsageError(f"task {task_name!r} is not a {command} task")
    if not tasks:
        if command in ("generate", "dim_table"):
            tasks = [TaskSpec(kind=command, name=command)]
        elif command == "d_table" and ov.max_degree is not None:
            tasks = [TaskSpec(kind=command, name=command)]
        else:
            msg = f"config declares no {command} task"
            raise UsageError(
                msg + (" (give --max-degree)" if command == "d_table" else "")
            )
    return tasks


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        source, text = resolve_config(args.config)
        document = parse_config(text)
        rc = realize_config(document)
        ov = Overrides(
            max_degree=_positive_flag("--max-degree", args.max_degree),
            bounds=(
                _parse_bounds_flag(args.laurent_bounds)
                if args.laurent_bounds is not None
                else None
            ),
        )
        tasks = (
            []
            if args.command == "validate"
            else _select_tasks(args.command, document.tasks, args.task, ov)
        )
        report = run_config(rc, source, tasks, ov)
    except (ConfigError, UsageError) as e:
        print(f"equiform: {e}", file=sys.stderr)
        return 2
    except SetupError as e:
        print(f"equiform: setup rejected: {e}", file=sys.stderr)
        return 2

    rendered = report.to_json() if args.fmt == "json" else report.render_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(
                f"equiform: cannot write report {args.output}: {e.strerror}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
