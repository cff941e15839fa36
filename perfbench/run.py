"""equiform benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload tcp2-dtable --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/`; no
install step is needed.  Each report parses and realizes the workload's
config afresh (`setup_s`), then runs the workload's commands through
`cli.run_config` and renders their canonical JSON (`wall_s`); the next
report starts when the previous one completes.  Reports are started until
`--seconds` have passed and at least MIN_REPORTS are done.

Every report goes through the correctness gate in `workloads.py`, outside
the timed span: byte-identity with the reference for seed 0, the pinned
known answers for every seed, and, for each d_table row, the expressed
combination re-assembled and compared with d of the word.  A task fails
when it raises, runs past TASK_LIMIT_S, or fails the gate.

`--trace 1` alternates untraced and traced reports (see `tracer.py`),
reports per-layer counts and times, checks that traced reports equal the
untraced ones, that exact counts repeat between traced reports and that
every layer the workload uses recorded calls, and writes the spans of the
first traced report to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (tasks run), `failed` (tasks failed) and `metrics`.
The exit status is 0 when `correct` is true, 1 when it is false, and
another non-zero status, with no result line, when no program is found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as layer_trace  # noqa: E402
from workloads import WORKLOADS, Gate, check_rows, command_order, seeded_config  # noqa: E402

MIN_REPORTS = 3  # timed reports per run, so that wall_s is a median
MIN_SETUPS = 15  # setup samples per run; short runs add setup-only rounds
TASK_LIMIT_S = 60.0  # about ten times the slowest task
RUN_LIMIT_S = 150.0  # no task runs past this point of a run


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task ran past its time limit of {TASK_LIMIT_S} s")


def load_package():
    """Import equiform from this checkout's `src/`; exit 2 when it is absent."""
    init = SRC / "equiform" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no equiform sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import equiform
    import equiform.cli

    if Path(equiform.__file__).resolve() != init.resolve():
        print(f"perfbench: imported equiform from {equiform.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return equiform


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(package) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "equiform": package.__version__,
        "commit": git_commit(),
    }


class Report:
    __slots__ = ("setup_s", "wall_s", "text", "tasks", "failed", "rows")

    def __init__(self):
        self.setup_s = self.wall_s = None
        self.text = ""
        self.tasks: list[str] = []
        self.failed: set[str] = set()
        self.rows: list = []  # (setup, dictionary, rows) per d_table task


class Bench:
    def __init__(self, package, workload, seed: int):
        self.package = package
        self.cli = sys.modules["equiform.cli"]
        self.config = sys.modules["equiform.config"]
        self.homogeneous = sys.modules["equiform.homogeneous"]
        self.workload = workload
        self.source, text = self.cli.resolve_config(workload.config)
        self.text, self.renames = seeded_config(text, seed)
        self.commands = command_order(workload, seed)
        self.gate = Gate(workload, seed)
        self.checked: dict[str, tuple[str, set[str]]] = {}
        self.hard_stop = perf_counter() + RUN_LIMIT_S

    def setup(self):
        document = self.config.parse_config(self.text)
        return document, self.config.realize_config(document)

    def _tasks(self, document, command):
        return [
            t
            for t in document.tasks
            if command.kind == "run" or t.kind == command.kind
        ]

    def _hooks(self, report: Report):
        """Time-limit every task and keep each d_table's rows for the gate.

        Installed on the `cli` bindings for one report, outermost, so a
        tracer underneath still sees every call."""
        cli = self.cli
        run_task, differential_table = cli.run_task, cli.differential_table
        hard_stop = self.hard_stop

        def limited_run_task(rc, task, ov):
            limit = min(TASK_LIMIT_S, hard_stop - perf_counter())
            if limit <= 0:
                raise TaskTimeout("run time limit reached")
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                return run_task(rc, task, ov)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)

        def kept_differential_table(setup, dictionary, *args, **kwargs):
            rows = differential_table(setup, dictionary, *args, **kwargs)
            report.rows.append((setup, dictionary, rows))
            return rows

        cli.run_task = limited_run_task
        cli.differential_table = kept_differential_table
        return run_task, differential_table

    def report(self, tracer=None, report_id: int = 0) -> Report:
        cli = self.cli
        report = Report()
        documents = []
        gc.collect()
        if tracer is not None:
            tracer.install(report_id)
        saved = self._hooks(report)
        try:
            t0 = perf_counter()
            document, rc = self.setup()
            t1 = perf_counter()
            plan = [(c, self._tasks(document, c)) for c in self.commands]
            report.tasks = [t.name for _, tasks in plan for t in tasks]
            for command, tasks in plan:
                ov = cli.Overrides(max_degree=command.max_degree)
                doc = cli.run_config(rc, self.source, tasks, ov)
                documents.append(doc.to_json())
            t2 = perf_counter()
            report.setup_s, report.wall_s = t1 - t0, t2 - t1
        except Exception:  # a failing program is a measured outcome
            traceback.print_exc(file=sys.stderr)
            report.failed = set(report.tasks) or {"<setup>"}
        finally:
            cli.run_task, cli.differential_table = saved
            if tracer is not None:
                tracer.uninstall()
        if not report.failed:
            report.text = "".join(documents)
            report.failed = self._gate(report, documents)
        report.rows = []
        return report

    def _gate(self, report: Report, documents: list[str]) -> set[str]:
        # the verdict is a function of the report text, so an identical
        # report reuses it instead of re-deriving every differential
        cached = self.checked.get(report.text)
        if cached is not None:
            report.text = cached[0]  # share one copy between reports
            return cached[1]
        failed = self.gate.failed_tasks(documents)
        d = self.homogeneous.exterior_derivative
        for setup, dictionary, rows in report.rows:
            bad = check_rows(setup, dictionary, rows, d)
            if bad:
                print(f"perfbench: d_table rows disagree with d: {bad}", file=sys.stderr)
                failed |= {
                    t["name"]
                    for doc in documents
                    for t in json.loads(doc)["tasks"]
                    if t["kind"] == "d_table"
                }
        if failed:
            print(f"perfbench: failed tasks {sorted(failed)}", file=sys.stderr)
        self.checked[report.text] = (report.text, failed)
        return failed


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return "none (n <= 10)"
    pct = math.floor(100 * (n - 10) / n)
    value = sorted(samples)[max(math.ceil(pct * n / 100) - 1, 0)]
    return f"p{pct}={value:.6g}"


def measure(bench: Bench, seconds: float) -> tuple[dict, list[Report]]:
    start = perf_counter()
    reports: list[Report] = []
    walls: list[float] = []
    while True:
        reports.append(bench.report())
        if reports[-1].wall_s is not None:
            walls.append(reports[-1].wall_s)
        now = perf_counter()
        # a failing program may never reach MIN_REPORTS: stop on time then
        enough = len(walls) >= MIN_REPORTS or reports[-1].wall_s is None
        if (now - start >= seconds and enough) or now >= bench.hard_stop:
            break
    setups = [r.setup_s for r in reports if r.setup_s is not None]
    while len(setups) < MIN_SETUPS and perf_counter() < bench.hard_stop:
        gc.collect()
        t0 = perf_counter()
        bench.setup()
        setups.append(perf_counter() - t0)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = tally(reports)
    metrics = {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    print(
        f"{bench.workload.name:14s} wall_s {metrics['wall_s'][0]:.6f} s "
        f"(median, n={len(walls)}, {high_percentile(walls)}) | "
        f"setup_s {metrics['setup_s'][0]:.6f} s (median, n={len(setups)}) | "
        f"peak_rss_mib {rss_mib:.2f} MiB | failed_task_frac "
        f"{failed / attempted:.4f}"
    )
    return metrics, reports


def tally(reports: list[Report]) -> tuple[int, int]:
    """(attempted, failed) tasks; a report whose setup failed counts one."""
    attempted = sum(len(r.tasks) or 1 for r in reports)
    return attempted, sum(len(r.failed) for r in reports)


def measure_traced(bench: Bench, seconds: float, problems: list[str]):
    tracer = layer_trace.Tracer(bench.package)
    start = perf_counter()
    plain: list[Report] = []
    traced: list[Report] = []
    values: list[dict] = []
    kept_spans: list = []
    while True:
        plain.append(bench.report())
        traced.append(bench.report(tracer, report_id=len(traced)))
        values.append(tracer.report_values())
        if len(traced) == 1:
            kept_spans = tracer.spans
            layer_calls = tracer.layer_calls()
        tracer.spans = []
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(traced) >= 2) or perf_counter() >= bench.hard_stop:
            break
    if tracer.missing:
        problems.append(f"traced functions not found: {tracer.missing}")
    texts = {r.text for r in plain + traced}
    if len(texts) != 1:
        problems.append("traced reports differ from untraced reports")
    for name in values[0]:
        if layer_trace.is_exact(name) and len({v[name] for v in values}) != 1:
            problems.append(f"{name} does not repeat: {[v[name] for v in values]}")
    silent = [l for l in bench.workload.layers if not layer_calls[l]]
    if silent:
        problems.append(f"layers with no traced calls: {silent}")
    if len(traced) < 2:
        problems.append("fewer than two traced reports")
    metrics = layer_trace.combine(values)
    plain_wall = [r.wall_s for r in plain if r.wall_s is not None]
    traced_wall = [r.wall_s for r in traced if r.wall_s is not None]
    if plain_wall and traced_wall:
        overhead = statistics.median(traced_wall) / statistics.median(plain_wall) - 1
    else:
        overhead = 0.0
    metrics["trace.overhead_frac"] = overhead
    units = {name: unit for name, unit, _ in layer_trace.PER_LAYER}
    write_trace(bench, kept_spans, metrics, layer_calls)
    print(
        f"{bench.workload.name:14s} traced reports {len(traced)}, untraced "
        f"{len(plain)}, trace.overhead_frac {overhead:.3f}"
    )
    return {name: (metrics[name], units[name]) for name in units}, plain + traced


def write_trace(bench: Bench, spans, metrics, layer_calls):
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    payload = {
        "workload": bench.workload.name,
        "context": context(bench.package),
        "layer_calls": layer_calls,
        "metrics": metrics,
        "span_fields": ["name", "start_s", "end_s", "parent", "report"],
        "span_names": names,
        "spans": [
            [index[n], round(a - t0, 7), round(b - t0, 7), p, r]
            for n, a, b, p, r in spans
        ],
    }
    path = OUT_DIR / f"trace-{bench.workload.name}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_package()
    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(package, WORKLOADS[args.workload], args.seed)
    print("context " + json.dumps(context(package), sort_keys=True))
    if bench.renames:
        print("renamed " + json.dumps(bench.renames, sort_keys=True))

    problems: list[str] = []
    if args.trace:
        metrics, reports = measure_traced(bench, args.seconds, problems)
    else:
        metrics, reports = measure(bench, args.seconds)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted, failed = tally(reports)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
