"""Per-layer tracing of equiform from outside the package.

The tracer replaces every binding of each traced public function (the
defining module, every module that imported it by name, the package root
and any alias on a class) with a wrapper, and puts the originals back on
`uninstall`.  Nothing inside `src/equiform` is edited.

Timed targets record a span (name, start, end, parent, report id) and add
to their inclusive and self time; self time is a span's duration minus the
time covered by its child spans.  Count-only targets (the field and ring
arithmetic called hundreds of thousands of times per report) only count,
because a timed wrapper there would mostly measure itself.

Spans and counts stay in memory; `run.py` writes them out after the run.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from time import perf_counter

LAYERS = (
    "cli",
    "config",
    "homogeneous",
    "letters",
    "forms",
    "scalars",
    "numberfield",
    "linalg",
    "dictionary",
    "expressions",
    "verify",
    "report",
)

# (module, attribute path, timed).  The metric prefix is "<module>.<path>"
# with the method dunder shortened ("Scalar.__mul__" -> "Scalar.mul").
TARGETS = (
    ("cli", "run_task", True),
    ("config", "parse_config", True),
    ("config", "realize_config", True),
    ("homogeneous", "validate_setup", True),
    ("homogeneous", "exterior_derivative", True),
    ("homogeneous", "is_invariant", True),
    ("homogeneous", "invariant_dimension", True),
    ("homogeneous", "stabilizer_of_vector", False),
    ("letters", "contract_syllable", True),
    ("forms", "wedge", True),
    ("forms", "Form.__mul__", True),
    ("forms", "evaluate_to_vector", True),
    ("scalars", "Scalar.__mul__", True),
    ("scalars", "Scalar.__add__", False),
    ("scalars", "differentiate", True),
    ("numberfield", "FieldElement.__mul__", False),
    ("numberfield", "FieldElement.__add__", False),
    ("numberfield", "FieldElement.inverse", False),
    ("linalg", "VectorSpan.add", True),
    ("linalg", "VectorSpan.combination", True),
    ("linalg", "rref", True),
    ("linalg", "nullspace_basis", False),
    ("dictionary", "generate_dictionary", True),
    ("dictionary", "completeness_check", True),
    ("dictionary", "express_in_generators", True),
    ("dictionary", "differential_table", True),
    ("expressions", "parse_form_expression", True),
    ("verify", "verify_closed", True),
    ("verify", "verify_equation", True),
    ("verify", "vanishes_on_sphere", False),
    ("verify", "sphere_reduce", True),
    ("report", "ReportDocument.to_json", True),
)

TASK_KINDS = (
    "generate",
    "dim_table",
    "d_table",
    "verify_closed",
    "verify_equation",
    "express",
)

_COUNT, _RATIO, _SEC = "count", "ratio", "s"

# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = (
    *((f"cli.run_task.{k}.s", _SEC, "lower") for k in TASK_KINDS),
    ("config.parse_config.s", _SEC, "lower"),
    ("config.realize_config.s", _SEC, "lower"),
    ("homogeneous.validate_setup.s", _SEC, "lower"),
    ("homogeneous.exterior_derivative.calls", _COUNT, "lower"),
    ("homogeneous.exterior_derivative.s", _SEC, "lower"),
    ("homogeneous.exterior_derivative.self_s", _SEC, "lower"),
    ("homogeneous.is_invariant.calls", _COUNT, "lower"),
    ("homogeneous.is_invariant.s", _SEC, "lower"),
    ("homogeneous.invariant_dimension.calls", _COUNT, "lower"),
    ("homogeneous.invariant_dimension.s", _SEC, "lower"),
    ("homogeneous.stabilizer_of_vector.calls", _COUNT, "lower"),
    ("letters.contract_syllable.calls", _COUNT, "lower"),
    ("letters.contract_syllable.s", _SEC, "lower"),
    ("forms.wedge.calls", _COUNT, "lower"),
    ("forms.wedge.s", _SEC, "lower"),
    ("forms.Form.mul.calls", _COUNT, "lower"),
    ("forms.Form.mul.s", _SEC, "lower"),
    ("forms.evaluate_to_vector.calls", _COUNT, "lower"),
    ("forms.evaluate_to_vector.s", _SEC, "lower"),
    ("scalars.Scalar.mul.calls", _COUNT, "lower"),
    ("scalars.Scalar.mul.s", _SEC, "lower"),
    ("scalars.Scalar.add.calls", _COUNT, "lower"),
    ("scalars.differentiate.calls", _COUNT, "lower"),
    ("scalars.differentiate.s", _SEC, "lower"),
    ("numberfield.FieldElement.mul.calls", _COUNT, "lower"),
    ("numberfield.FieldElement.mul.zero_operand_frac", _RATIO, "lower"),
    ("numberfield.FieldElement.mul.single_term_frac", _RATIO, "higher"),
    ("numberfield.FieldElement.add.calls", _COUNT, "lower"),
    ("numberfield.FieldElement.inverse.calls", _COUNT, "lower"),
    ("linalg.VectorSpan.add.calls", _COUNT, "lower"),
    ("linalg.VectorSpan.add.s", _SEC, "lower"),
    ("linalg.VectorSpan.add.kept_frac", _RATIO, "higher"),
    ("linalg.VectorSpan.combination.calls", _COUNT, "lower"),
    ("linalg.VectorSpan.combination.s", _SEC, "lower"),
    ("linalg.rref.calls", _COUNT, "lower"),
    ("linalg.rref.s", _SEC, "lower"),
    ("linalg.nullspace_basis.calls", _COUNT, "lower"),
    ("dictionary.generate_dictionary.s", _SEC, "lower"),
    ("dictionary.words_tried", _COUNT, "lower"),
    ("dictionary.words_kept", _COUNT, "lower"),
    ("dictionary.completeness_check.s", _SEC, "lower"),
    ("dictionary.express_in_generators.calls", _COUNT, "lower"),
    ("dictionary.express_in_generators.s", _SEC, "lower"),
    ("dictionary.express_in_generators.self_s", _SEC, "lower"),
    ("dictionary.differential_table.s", _SEC, "lower"),
    ("dictionary.cell_solves", _COUNT, "lower"),
    ("dictionary.distinct_cells", _COUNT, "lower"),
    ("dictionary.columns", _COUNT, "lower"),
    ("expressions.parse_form_expression.calls", _COUNT, "lower"),
    ("expressions.parse_form_expression.s", _SEC, "lower"),
    ("verify.verify_closed.s", _SEC, "lower"),
    ("verify.verify_equation.s", _SEC, "lower"),
    ("verify.vanishes_on_sphere.calls", _COUNT, "lower"),
    ("verify.sphere_reduce.s", _SEC, "lower"),
    ("report.ReportDocument.to_json.s", _SEC, "lower"),
    ("trace.overhead_frac", _RATIO, "lower"),
)

# Values that must repeat exactly between traced reports of one run and
# between two traced runs of one seed.
EXACT_SUFFIXES = (".calls", "_frac", "words_tried", "words_kept",
                  "cell_solves", "distinct_cells", "columns")


def is_exact(name: str) -> bool:
    return name != "trace.overhead_frac" and name.endswith(EXACT_SUFFIXES)


def _metric_prefix(module: str, path: str) -> str:
    return f"{module}.{path.replace('.__', '.').rstrip('_')}"


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Wraps the traced bindings of a loaded `equiform` package."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS
        }
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.report_id = -1
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [span index, child time]
        self._reset_counters()

    # -- per-report state -------------------------------------------------

    def _reset_counters(self):
        self.stats: dict[str, _Stat] = {}
        self.extra = {
            "mul_zero": 0,
            "mul_single": 0,
            "span_kept": 0,
            "columns": 0,
            "cell_solves": 0,
            "words_tried": 0,
            "words_kept": 0,
        }
        self.cells: set = set()
        self._express_depth = 0

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, stat_name=None):
        spans, open_ = self.spans, self._open
        fixed = None if stat_name else self._stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = stat_name(args) if stat_name else name
            st = fixed or tracer._stat(span_name)
            parent = open_[-1][0] if open_ else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            open_.append(frame)
            st.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_.pop()
                st.active -= 1
                dur = t1 - t0
                if open_:
                    open_[-1][1] += dur
                st.calls += 1
                if not st.active:  # recursion: count the outer span only
                    st.total += dur
                st.self_time += dur - frame[1]
                spans[index] = (span_name, t0, t1, parent, tracer.report_id)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_mul(self, name, fn):
        st = self._stat(name)
        extra = self.extra
        element = self.modules["numberfield"].FieldElement

        def wrapper(a, b):
            st.calls += 1
            if isinstance(b, element):
                nb = len(b.terms)
            else:
                nb = 1 if b else 0
            na = len(a.terms)
            if not na or not nb:
                extra["mul_zero"] += 1
            elif na == 1 and nb == 1:
                extra["mul_single"] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make_wrapper(self, module: str, path: str, timed: bool, fn):
        name = _metric_prefix(module, path)
        if module == "numberfield" and path == "FieldElement.__mul__":
            return self._field_mul(name, fn)
        if not timed:
            return self._counted(name, fn)
        if module == "cli":
            return self._timed(
                name, fn, stat_name=lambda args: f"{name}.{args[1].kind}"
            )
        if path == "Form.__mul__":
            return self._form_mul(name, fn)
        if path == "VectorSpan.add":
            return self._span_add(name, fn)
        if path == "express_in_generators":
            return self._express(name, fn)
        if path == "generate_dictionary":
            return self._generate(name, fn)
        return self._timed(name, fn)

    def _form_mul(self, name, fn):
        timed = self._timed(name, fn)
        form = self.modules["forms"].Form

        def wrapper(a, b):
            # a Form operand makes this a wedge, which `wedge` itself counts
            if isinstance(b, form):
                return fn(a, b)
            return timed(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_add(self, name, fn):
        timed = self._timed(name, fn)
        extra = self.extra
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._express_depth:
                extra["columns"] += 1
            kept = timed(*args, **kwargs)
            if kept:
                extra["span_kept"] += 1
            return kept

        wrapper.__wrapped__ = fn
        return wrapper

    def _express(self, name, fn):
        timed = self._timed(name, fn)
        signature = inspect.signature(fn)
        split = self.modules["forms"].bidegree_split
        tracer = self

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            cells = list(split(a["target"]))
            tracer.extra["cell_solves"] += len(cells)
            key = (tuple(a["degree_bounds"]), bool(a["allow_triples"]))
            tracer.cells.update((cell, key) for cell in cells)
            tracer._express_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                tracer._express_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _generate(self, name, fn):
        timed = self._timed(name, fn)
        extra = self.extra

        def wrapper(*args, **kwargs):
            dictionary = timed(*args, **kwargs)
            extra["words_tried"] += len(dictionary.transcript)
            extra["words_kept"] += sum(
                1 for entry in dictionary.transcript if entry[2] == "kept"
            )
            return dictionary

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self, report_id: int):
        """Patch every binding and start fresh counters for one report."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.report_id = report_id
        self._reset_counters()
        self.missing = []
        prefix = self.package.__name__ + "."
        owners = [self.package] + [
            m
            for name, m in sorted(sys.modules.items())
            if name.startswith(prefix) and m is not None
        ]
        for module, path, timed in TARGETS:
            home = self.modules[module]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                scopes = [cls]
            else:
                original = vars(home).get(attr)
                scopes = owners
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._make_wrapper(module, path, timed, original)
            for scope in scopes:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        self._patches.append((scope, key, original))
                        setattr(scope, key, wrapper)

    def uninstall(self):
        for scope, key, original in reversed(self._patches):
            setattr(scope, key, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def report_values(self) -> dict[str, float]:
        """Per-layer values of the report just traced (without overhead)."""
        out: dict[str, float] = {}
        st = self.stats
        zero = _Stat()
        for name, _, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            if name.endswith(".self_s"):
                out[name] = st.get(name[: -len(".self_s")], zero).self_time
            elif name.endswith(".s"):
                out[name] = st.get(name[: -len(".s")], zero).total
            elif name.endswith(".calls"):
                out[name] = st.get(name[: -len(".calls")], zero).calls
        mul = st.get("numberfield.FieldElement.mul", zero).calls
        add = st.get("linalg.VectorSpan.add", zero).calls
        e = self.extra
        out["numberfield.FieldElement.mul.zero_operand_frac"] = (
            e["mul_zero"] / mul if mul else 0.0
        )
        out["numberfield.FieldElement.mul.single_term_frac"] = (
            e["mul_single"] / mul if mul else 0.0
        )
        out["linalg.VectorSpan.add.kept_frac"] = e["span_kept"] / add if add else 0.0
        out["dictionary.words_tried"] = e["words_tried"]
        out["dictionary.words_kept"] = e["words_kept"]
        out["dictionary.cell_solves"] = e["cell_solves"]
        out["dictionary.distinct_cells"] = len(self.cells)
        out["dictionary.columns"] = e["columns"]
        return out

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for name, st in self.stats.items():
            calls[name.split(".", 1)[0]] += st.calls
        return calls


def combine(per_report: list[dict[str, float]]) -> dict[str, float]:
    """One value per metric over the traced reports of a run: exact values
    are taken from the first report (the caller checks they repeat), times
    are the median."""
    out = {}
    for name in per_report[0]:
        values = [r[name] for r in per_report]
        out[name] = values[0] if is_exact(name) else statistics.median(values)
    return out
