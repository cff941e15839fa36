"""Run every workload and print one row of end-to-end metrics per workload.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--baseline FILE]
    python3 perfbench/suite.py --capture-reference

Run from the repository root.  For each workload this starts `run.py`
once untraced and twice traced, each in a fresh process, and fails (exit
status 1) when any run is incorrect or when an exact per-layer count
differs between the two traced runs.  It also prints whether the traced
run still backs the reason each workload was chosen for; those lines are
information, not a gate, because a faster layer may rightly change them.

`--baseline FILE` writes the metrics of every run, with the Python
version, CPU count, equiform version and git commit, to FILE.

`--capture-reference` rewrites `reference/` from the `equiform` command
line itself; do this only on a commit whose reports are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as layer_trace  # noqa: E402
from workloads import WORKLOADS, reference_path  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"suite: {' '.join(cmd)} printed no result")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0].split(" ", 1)[1])
    if proc.returncode or not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def claims(name: str, traced: dict) -> list[str]:
    """The traced facts each workload was chosen for."""
    v = lambda metric: value(traced, metric)  # noqa: E731
    if name == "tcp2-dtable":
        share = v("dictionary.express_in_generators.s") / v("cli.run_task.d_table.s")
        return [f"express_in_generators share of d_table: {share:.2f} (expect most)"]
    if name == "tcp2-verify":
        tasks = v("cli.run_task.verify_closed.s") + v("cli.run_task.verify_equation.s")
        share = v("homogeneous.exterior_derivative.s") / tasks
        spans = v("linalg.VectorSpan.add.calls") + v("linalg.VectorSpan.combination.calls")
        return [
            f"exterior_derivative share of verify tasks: {share:.2f} (expect most)",
            f"VectorSpan calls: {spans} (expect 0)",
        ]
    if name == "tcp2-generate":
        return [
            "exterior_derivative calls: "
            f"{v('homogeneous.exterior_derivative.calls')} (expect 0)"
        ]
    return []


def capture_reference() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload in WORKLOADS.values():
        parts = []
        for command in workload.commands:
            argv = command.argv(workload.config) + ["--format", "json"]
            proc = subprocess.run(
                [sys.executable, "-m", "equiform.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"suite: equiform {' '.join(argv)} failed")
            parts.append(proc.stdout)
        reference_path(workload).write_text("".join(parts), encoding="utf-8")
        print(f"wrote {reference_path(workload).relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.capture_reference:
        return capture_reference()

    ok = True
    rows, baseline = [], {}
    for name in WORKLOADS:
        plain = run(name, args.seed, args.seconds, 0)
        traced = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        ok &= all(r["correct"] for r in [plain, *traced])
        for metric in traced[0]["metrics"]:
            a, b = (value(t, metric) for t in traced)
            if layer_trace.is_exact(metric) and a != b:
                ok = False
                print(f"{name}: {metric} differs between traced runs: {a} vs {b}")
        frac = plain["failed"] / plain["attempted"]
        row = "  ".join(
            f"{m} {value(plain, m):.6g} {plain['metrics'][m]['unit']}" for m in END_TO_END
        )
        overhead = value(traced[0], "trace.overhead_frac")
        rows.append(
            f"{name:14s} {row}  failed_task_frac {frac:.4f}  "
            f"trace.overhead_frac {overhead:.3f}"
        )
        rows.extend(f"{'':14s} {c}" for c in claims(name, traced[0]))
        baseline[name] = {"untraced": plain, "traced": traced[0]}
    print(f"context {json.dumps(plain['context'], sort_keys=True)}")
    print("\n".join(rows))
    if args.baseline:
        payload = {"seed": args.seed, "seconds": args.seconds, "workloads": baseline}
        args.baseline.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("suite: " + ("all runs correct" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
