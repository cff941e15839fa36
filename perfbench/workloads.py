"""Workloads, seeded inputs and the correctness gate.

A workload is a bundled config plus a list of `equiform` commands; one
report of the workload is the concatenated canonical JSON of those
commands, run on one freshly parsed and realized config.  Seed 0 uses the
bundled config verbatim, and its report must be byte-identical to the
reference captured from the `equiform` command line (`reference/`).  Any
other seed renames the declared parameters and radicals and permutes the
task list, and is checked by the facts below, which do not depend on names
or order.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Command:
    """One `equiform <kind> --config <config> [--max-degree N]` call."""

    kind: str  # a task kind, or "run" for every declared task
    max_degree: int | None = None

    def argv(self, config: str) -> list[str]:
        out = [self.kind, "--config", config]
        if self.max_degree is not None:
            out += ["--max-degree", str(self.max_degree)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: tuple[Command, ...]
    # layers whose traced calls must be non-zero; a zero means a binding
    # was missed, not that the layer is free
    layers: tuple[str, ...]


_CORE = ("cli", "config", "homogeneous", "letters", "forms", "scalars",
         "numberfield", "expressions", "report")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tcp2-dtable",
            "su3_tcp2",
            (Command("d_table", max_degree=2),),
            _CORE + ("linalg", "dictionary"),
        ),
        Workload(
            "tcp2-verify",
            "su3_tcp2",
            (Command("verify_closed"), Command("verify_equation")),
            _CORE + ("verify",),
        ),
        Workload(
            "tcp2-generate",
            "su3_tcp2",
            (Command("generate"), Command("dim_table")),
            _CORE + ("linalg", "dictionary"),
        ),
        # Not in BENCHMARK.json: on the 2-vCPU VM it was tuned on, the
        # ten-seed spread of its wall_s reached 0.29 of the median, over the
        # 0.25 bound.  Kept so it can be run by hand and by suite.py.
        Workload(
            "ts2-full",
            "su2_ts2",
            (Command("run"),),
            _CORE + ("linalg", "dictionary", "verify"),
        ),
    )
}

# Known answers pinned by tests/test_acceptance.py and the README; both
# workloads that run a d_table run it at max_degree 2.
FACTS = {
    "su3_tcp2": {"positive_words": 95, "span_total": 96, "d_table_rows": 15},
    "su2_ts2": {"positive_words": 15, "span_total": 16, "d_table_rows": 11},
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


# -- seeded inputs ----------------------------------------------------------


def seeded_config(text: str, seed: int) -> tuple[str, dict[str, str]]:
    """The config text for a seed, and the renaming it applied."""
    if seed == 0:
        return text, {}
    raw = json.loads(text)
    rng = random.Random(seed)
    ring = raw["ring"]
    taken = set(raw["letters"]) | set(raw["contractions"])
    old = list(ring.get("params", [])) + [r["name"] for r in ring.get("radicals", [])]
    taken |= set(old)
    renames: dict[str, str] = {}
    for name in old:
        # the leading letter keeps clear of the names every context has:
        # a1.., e1.., aa, sqrtN and d
        while True:
            new = rng.choice("pqrwz") + "".join(
                rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 5))
            )
            if new not in taken:
                break
        taken.add(new)
        renames[name] = new

    def sub(expr: str) -> str:
        return _IDENT.sub(lambda m: renames.get(m.group(0), m.group(0)), expr)

    ring["params"] = [renames[p] for p in ring.get("params", [])]
    for rad in ring.get("radicals", []):
        rad["name"] = renames[rad["name"]]
        rad["square"] = sub(rad["square"])
    for name, spec in raw["letters"].items():
        if isinstance(spec, list):
            raw["letters"][name] = [sub(c) for c in spec]
    for task in raw["tasks"]:
        for key in ("lhs", "rhs", "expression"):
            if key in task:
                task[key] = sub(task[key])
        if "forms" in task:
            task["forms"] = [sub(f) for f in task["forms"]]
    rng.shuffle(raw["tasks"])
    return json.dumps(raw, indent=2) + "\n", renames


def command_order(workload: Workload, seed: int) -> list[Command]:
    commands = list(workload.commands)
    if seed:
        random.Random(seed).shuffle(commands)
    return commands


# -- correctness gate --------------------------------------------------------


def _split_documents(text: str) -> list[dict]:
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


class Gate:
    """Checks workload reports; returns the names of the tasks that fail."""

    def __init__(self, workload: Workload, seed: int):
        self.seed = seed
        self.reference = reference_path(workload).read_text(encoding="utf-8")
        ref_tasks = [t for d in _split_documents(self.reference) for t in d["tasks"]]
        self.ref_tasks = {t["name"]: t for t in ref_tasks}
        self.facts = FACTS[workload.config]

    def failed_tasks(self, documents: list[str]) -> set[str]:
        docs = [json.loads(d) for d in documents]
        tasks = [t for d in docs for t in d["tasks"]]
        failed = {t["name"] for t in tasks if not self._task_ok(t)}
        missing = set(self.ref_tasks) - {t["name"] for t in tasks}
        failed |= missing
        if self.seed == 0 and "".join(documents) != self.reference:
            differs = {
                t["name"] for t in tasks if t != self.ref_tasks.get(t["name"])
            }
            failed |= differs or {t["name"] for t in tasks}
        return failed

    def _task_ok(self, task: dict) -> bool:
        d = task["details"]
        ref = self.ref_tasks.get(task["name"])
        if ref is None or task["kind"] != ref["kind"] or task["status"] != "pass":
            return False
        kind = task["kind"]
        if kind in ("verify_closed", "verify_equation"):
            verdicts = d["verdicts"]
            return len(verdicts) == len(ref["details"]["verdicts"]) and all(
                v["holds"] for v in verdicts
            )
        if kind == "generate":
            comp = d["completeness"]
            positive = sum(1 for e in d["entries"] if e["bidegree"] != [0, 0])
            return (
                positive == self.facts["positive_words"]
                and comp["span_total"] == comp["invariant_total"]
                == self.facts["span_total"]
                and comp["matched_cells"] == comp["cells"]
                and d["radial"] is not None
            )
        if kind == "dim_table":
            return d == ref["details"]
        if kind == "d_table":
            return d["rows"] == self.facts["d_table_rows"] and not d["failed_rows"]
        if kind == "express":
            return d["expression"] is not None
        return False


def check_rows(setup, dictionary, rows, exterior_derivative) -> list[str]:
    """Words whose table row does not re-assemble to d of the word."""
    bad = []
    for row in rows:
        lhs = exterior_derivative(setup, dictionary.alphabet.translate(row.word))
        if not (lhs - row.differential.as_form(dictionary)).is_zero:
            bad.append(row.word.render())
    return bad
