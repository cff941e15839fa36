"""Strict JSON configs describing a homogeneous bundle and a task list.

A document has exactly seven sections: ring, lie_algebra, splitting,
representation, letters, contractions, tasks.  Validation is eager and
unknown keys are rejected with the offending path, so a typo cannot
silently change what gets computed.  Literals are parsed by the expression
parser of equiform.expressions, each in a context that binds a restricted
set of names and has no d(...).  Field constants (structure constants,
representation cells, contraction entries) may use numbers and the declared
sqrtN, for example "-1/2", "2*sqrt3" or "sqrt3^2"; radical squares may also
use the fiber coordinates a1..ak, the params and aa, for example "k+aa",
within the rule equiform.scalars.Ring sets on the leading term.

parse_config checks the structure and evaluates every literal, once.
realize_config builds the validated setup, the letters and the
contractions, and is the step that can reject a config on mathematical
grounds (Jacobi failure, non-equivariant letter, asymmetric contraction,
and so on).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from equiform.dictionary import generate_dictionary
from equiform.expressions import (
    ExpressionContext,
    ExpressionError,
    build_context,
    parse_form_expression,
    scalar_bindings,
)
from equiform.forms import Frame, FrameSpec
from equiform.homogeneous import (
    HomogeneousSetup,
    Splitting,
    make_algebra,
    make_representation,
    validate_setup,
)
from equiform.letters import (
    Contraction,
    Letter,
    LetterError,
    det_contraction,
    dot_contraction,
    letter_a,
    letter_b,
    make_contraction,
    make_letter,
)
from equiform.numberfield import Coefficient, NumberField
from equiform.scalars import RadicalSpec, Ring, RingError, RingSpec, Scalar


class ConfigError(ValueError):
    pass


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TASK_NAME = re.compile(r"[A-Za-z0-9_\-]+\Z")
_DIGITS = re.compile(r"[0-9]+\Z")
# a JSON string (skipped whole), a bracket or a number, for locating where
# json.loads gave up on a document that is not a syntax error
_JSON_TOKEN = re.compile(
    r'"(?:[^"\\]|\\.)*"|[][{}]|[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?'
)

_TASK_FIELDS: dict[str, tuple[frozenset, frozenset]] = {
    "generate": (frozenset(), frozenset()),
    "dim_table": (frozenset(), frozenset()),
    "d_table": (
        frozenset({"max_degree"}),
        frozenset({"laurent_bounds", "allow_triples"}),
    ),
    "verify_closed": (frozenset({"forms"}), frozenset({"on_sphere"})),
    "verify_equation": (
        frozenset({"lhs", "rhs"}),
        frozenset({"on_sphere"}),
    ),
    "express": (
        frozenset({"expression"}),
        frozenset({"laurent_bounds", "allow_triples"}),
    ),
}
TASK_KINDS = tuple(_TASK_FIELDS)


# -- section records ---------------------------------------------------------


@dataclass(frozen=True)
class RadicalSection:
    name: str
    square: str


@dataclass(frozen=True)
class RingSection:
    sqrt_constants: tuple[int, ...] = ()
    params: tuple[str, ...] = ()
    radicals: tuple[RadicalSection, ...] = ()


@dataclass(frozen=True)
class ContractionSection:
    symmetry: str
    entries: tuple[tuple[tuple[int, ...], Coefficient], ...]


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    name: str
    max_degree: int | None = None
    laurent_bounds: tuple[int, int] | None = None
    on_sphere: bool = False
    forms: tuple[str, ...] = ()
    lhs: str | None = None
    rhs: str | None = None
    expression: str | None = None
    allow_triples: bool = False


@dataclass(frozen=True)
class ConfigDocument:
    """A validated config with every literal already evaluated."""

    ring: RingSpec
    dimension: int
    constants: tuple[tuple[int, int, int, Coefficient], ...]
    horizontal: tuple[int, ...]
    gauge: tuple[int, ...]
    representation: tuple[tuple[int, tuple[tuple[Coefficient, ...], ...]], ...]
    letters: tuple[tuple[str, object], ...] = field(repr=False, default=())
    contractions: tuple[tuple[str, object], ...] = field(repr=False, default=())
    tasks: tuple[TaskSpec, ...] = ()
    fiber_dim: int = 0


# -- low-level checks --------------------------------------------------------


def _check_keys(obj, where: str, required, optional=frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in sorted(required):
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")


def _as_int(x, where: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where}: expected an integer, got {x!r}")
    if low is not None and x < low:
        raise ConfigError(f"{where}: value {x} is below {low}")
    if high is not None and x > high:
        raise ConfigError(f"{where}: value {x} is above {high}")
    return x


def _as_str(x, where: str) -> str:
    if not isinstance(x, str) or not x:
        raise ConfigError(f"{where}: expected a nonempty string, got {x!r}")
    return x


def _as_bool(x, where: str) -> bool:
    if not isinstance(x, bool):
        raise ConfigError(f"{where}: expected true or false, got {x!r}")
    return x


def _as_ident(x, where: str) -> str:
    s = _as_str(x, where)
    if not _IDENT.match(s):
        raise ConfigError(f"{where}: {s!r} is not a valid identifier")
    return s


def _list_at(obj: dict, key: str, where: str) -> list:
    x = obj.get(key, [])
    if not isinstance(x, list):
        raise ConfigError(f"{where}.{key}: expected a list, got {x!r}")
    return x


def _index_list(x, where: str, dimension: int) -> tuple[int, ...]:
    if not isinstance(x, list) or not x:
        raise ConfigError(f"{where}: expected a nonempty list of indices")
    out = tuple(
        _as_int(v, f"{where}[{i}]", low=1, high=dimension) for i, v in enumerate(x)
    )
    if len(set(out)) != len(out):
        raise ConfigError(f"{where}: repeated index")
    return out


def _digit_indices(s: str, where: str, top: int) -> tuple[int, ...]:
    if not _DIGITS.match(s):
        raise ConfigError(f"{where}: expected a digit string, got {s!r}")
    idx = tuple(int(ch) for ch in s)
    for i in idx:
        if not 1 <= i <= top:
            raise ConfigError(f"{where}: index {i} out of range 1..{top}")
    return idx


# -- exact literal parsing ---------------------------------------------------


def _literal_context(ring: Ring, scalars: Mapping[str, Scalar]) -> ExpressionContext:
    """Scalar names only, over a frame with no generators and without d."""
    return ExpressionContext(
        frame=Frame(ring, FrameSpec(())), letters={}, contractions={}, scalars=scalars
    )


def constant_context(sqrt_constants: Sequence[int]) -> ExpressionContext:
    """Field constants: numbers and the declared sqrtN, over a ring with no
    variables.  Raises ValueError for unusable sqrt_constants."""
    ring = Ring(RingSpec(field_radicands=tuple(sqrt_constants), fiber=()))
    return _literal_context(
        ring, {f"sqrt{d}": ring.sqrt_constant(d) for d in ring.field.radicands}
    )


def _parse_literal(ctx: ExpressionContext, text: str, where: str, what: str):
    try:
        form = parse_form_expression(text, ctx)
    except ExpressionError as e:
        raise ConfigError(f"{where}: bad {what} {text!r}: {e}") from None
    return form.terms.get(0, ctx.frame.ring.zero)


def parse_field_constant(
    ctx: ExpressionContext, text: str, where: str
) -> Coefficient:
    """An exact constant in the context made by constant_context, parsed
    once per text."""
    value = ctx.memo.get(text)
    if value is None:
        value = ctx.memo[text] = _parse_literal(
            ctx, text, where, "exact constant"
        ).constant_term()
    return value


def parse_radical_square(ctx: ExpressionContext, text: str, where: str):
    """Square of a radical over the radical-free ring, as RadicalSpec rows."""
    scalar = _parse_literal(ctx, text, where, "radical square")
    if scalar.is_zero:
        raise ConfigError(f"{where}: a radical square must be nonzero")
    if scalar.is_constant:
        raise ConfigError(
            f"{where}: a radical square must not be constant; declare constant "
            "roots in ring.sqrt_constants"
        )
    if any(e < 0 for mono in scalar.coeffs for e in mono):
        raise ConfigError(
            f"{where}: a radical square must be a polynomial, with no negative "
            "powers"
        )
    return tuple(sorted(scalar.coeffs.items()))


# -- section parsers ---------------------------------------------------------


def _parse_ring_section(raw) -> RingSection:
    _check_keys(raw, "ring", frozenset(), {"sqrt_constants", "params", "radicals"})
    sqrt_constants = tuple(
        _as_int(d, f"ring.sqrt_constants[{i}]", low=2)
        for i, d in enumerate(_list_at(raw, "sqrt_constants", "ring"))
    )
    params = tuple(
        _as_ident(p, f"ring.params[{i}]")
        for i, p in enumerate(_list_at(raw, "params", "ring"))
    )
    if len(set(params)) != len(params):
        raise ConfigError("ring.params: repeated name")
    radicals = []
    for i, entry in enumerate(_list_at(raw, "radicals", "ring")):
        where = f"ring.radicals[{i}]"
        _check_keys(entry, where, {"name", "square"})
        radicals.append(
            RadicalSection(
                name=_as_ident(entry["name"], f"{where}.name"),
                square=_as_str(entry["square"], f"{where}.square"),
            )
        )
    names = [r.name for r in radicals]
    if len(set(names)) != len(names):
        raise ConfigError("ring.radicals: repeated name")
    return RingSection(
        sqrt_constants=sqrt_constants, params=params, radicals=tuple(radicals)
    )


def _parse_constants(raw, where: str, dimension: int, ctx: ExpressionContext):
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of [i, \"jk\", value] triples")
    out = []
    seen = set()
    for t, triple in enumerate(raw):
        at = f"{where}[{t}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(f"{at}: expected [i, \"jk\", value]")
        i = _as_int(triple[0], f"{at}[0]", low=1, high=dimension)
        pair = _as_str(triple[1], f"{at}[1]")
        idx = _digit_indices(pair, f"{at}[1]", dimension)
        if len(idx) != 2:
            raise ConfigError(f"{at}[1]: expected exactly two indices")
        j, k = idx
        if not j < k:
            raise ConfigError(
                f"{at}[1]: indices must be increasing, got {pair!r}"
            )
        text = _as_str(triple[2], f"{at}[2]")
        value = parse_field_constant(ctx, text, f"{at}[2]")
        if (i, j, k) in seen:
            raise ConfigError(f"{at}: duplicate constant for ({i}, {j}{k})")
        seen.add((i, j, k))
        out.append((i, j, k, value))
    return tuple(out)


def _parse_representation(raw, gauge: tuple[int, ...], ctx: ExpressionContext):
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(
            "representation: expected an object keyed by gauge index"
        )
    entries: dict[int, tuple[tuple[str, ...], ...]] = {}
    for key, matrix in raw.items():
        where = f"representation.{key}"
        if not isinstance(key, str) or not _DIGITS.match(key):
            raise ConfigError(f"{where}: keys must be gauge indices")
        try:
            idx = int(key)
        except ValueError:  # more digits than Python converts
            idx = None
        if idx not in gauge:
            raise ConfigError(f"{where}: {key} is not a gauge index")
        if idx in entries:
            raise ConfigError(f"{where}: repeated gauge index {idx}")
        if not isinstance(matrix, list) or not matrix:
            raise ConfigError(f"{where}: expected a square matrix")
        k = len(matrix)
        rows = []
        for r, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != k:
                raise ConfigError(f"{where}[{r}]: expected {k} entries")
            cells = []
            for c, cell in enumerate(row):
                at = f"{where}[{r}][{c}]"
                cells.append(parse_field_constant(ctx, _as_str(cell, at), at))
            rows.append(tuple(cells))
        entries[idx] = tuple(rows)
    missing = [a for a in gauge if a not in entries]
    if missing:
        raise ConfigError(
            f"representation: missing matrix for gauge index {missing[0]}"
        )
    sizes = {len(rows) for rows in entries.values()}
    if len(sizes) != 1:
        raise ConfigError("representation: matrices of different sizes")
    ordered = tuple(sorted(entries.items()))
    return ordered, sizes.pop()


def _parse_letters(raw, fiber_dim: int):
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("letters: expected a nonempty object")
    out = []
    for name, spec in raw.items():
        where = f"letters.{name}"
        _as_ident(name, "letters: key")
        if spec == "builtin":
            if name not in ("a", "b"):
                raise ConfigError(
                    f"{where}: only letters a and b are builtin"
                )
            out.append((name, "builtin"))
            continue
        if not isinstance(spec, list) or len(spec) != fiber_dim:
            raise ConfigError(
                f"{where}: expected \"builtin\" or a list of {fiber_dim} "
                "component expressions"
            )
        comps = tuple(_as_str(s, f"{where}[{i}]") for i, s in enumerate(spec))
        out.append((name, comps))
    return tuple(out)


def _parse_contractions(raw, fiber_dim: int, ctx: ExpressionContext):
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("contractions: expected a nonempty object")
    out = []
    for name, spec in raw.items():
        where = f"contractions.{name}"
        _as_ident(name, "contractions: key")
        if spec == "builtin":
            if name not in ("dot", "det"):
                raise ConfigError(
                    f"{where}: only contractions dot and det are builtin"
                )
            out.append((name, "builtin"))
            continue
        _check_keys(spec, where, {"entries"}, {"symmetry"})
        symmetry = spec.get("symmetry", "none")
        if symmetry not in ("none", "symmetric", "antisymmetric"):
            raise ConfigError(f"{where}.symmetry: unknown value {symmetry!r}")
        raw_entries = spec["entries"]
        if not isinstance(raw_entries, list) or not raw_entries:
            raise ConfigError(f"{where}.entries: expected a nonempty list")
        entries = []
        arity = None
        seen = set()
        for i, pair in enumerate(raw_entries):
            at = f"{where}.entries[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{at}: expected [indices, value]")
            idx = _digit_indices(_as_str(pair[0], at), at, fiber_dim)
            if arity is None:
                arity = len(idx)
            elif len(idx) != arity:
                raise ConfigError(f"{at}: mixed arity")
            if idx in seen:
                raise ConfigError(f"{at}: duplicate index {pair[0]!r}")
            seen.add(idx)
            value = _as_str(pair[1], f"{at}[1]")
            entries.append((idx, parse_field_constant(ctx, value, f"{at}[1]")))
        out.append((name, ContractionSection(symmetry, tuple(entries))))
    return tuple(out)


def _parse_laurent_bounds(x, where: str) -> tuple[int, int]:
    if not isinstance(x, list) or len(x) != 2:
        raise ConfigError(f"{where}: expected [lo, hi]")
    lo = _as_int(x[0], f"{where}[0]")
    hi = _as_int(x[1], f"{where}[1]")
    if lo > hi:
        raise ConfigError(f"{where}: lo {lo} exceeds hi {hi}")
    return lo, hi


def _parse_tasks(raw) -> tuple[TaskSpec, ...]:
    if not isinstance(raw, list):
        raise ConfigError("tasks: expected a list")
    out = []
    for i, entry in enumerate(raw):
        where = f"tasks[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        kind = entry.get("kind")
        if kind not in TASK_KINDS:
            raise ConfigError(
                f"{where}.kind: expected one of {', '.join(TASK_KINDS)}, "
                f"got {kind!r}"
            )
        required, optional = _TASK_FIELDS[kind]
        _check_keys(
            entry, where, required | {"kind"}, optional | {"name"}
        )
        name = entry.get("name", kind)
        if not isinstance(name, str) or not _TASK_NAME.match(name):
            raise ConfigError(f"{where}.name: invalid task name {name!r}")
        spec = TaskSpec(
            kind=kind,
            name=name,
            max_degree=(
                _as_int(entry["max_degree"], f"{where}.max_degree", low=1)
                if "max_degree" in entry
                else None
            ),
            laurent_bounds=(
                _parse_laurent_bounds(
                    entry["laurent_bounds"], f"{where}.laurent_bounds"
                )
                if "laurent_bounds" in entry
                else None
            ),
            on_sphere=_as_bool(
                entry.get("on_sphere", False), f"{where}.on_sphere"
            ),
            forms=tuple(
                _as_str(s, f"{where}.forms[{j}]")
                for j, s in enumerate(_list_at(entry, "forms", where))
            ),
            lhs=_as_str(entry["lhs"], f"{where}.lhs") if "lhs" in entry else None,
            rhs=_as_str(entry["rhs"], f"{where}.rhs") if "rhs" in entry else None,
            expression=(
                _as_str(entry["expression"], f"{where}.expression")
                if "expression" in entry
                else None
            ),
            allow_triples=_as_bool(
                entry.get("allow_triples", False), f"{where}.allow_triples"
            ),
        )
        if kind == "verify_closed" and not spec.forms:
            raise ConfigError(f"{where}.forms: expected at least one expression")
        out.append(spec)
    names = [t.name for t in out]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(
                f"tasks: two tasks named {name!r}; give them distinct names"
            )
    return tuple(out)


def _check_ring_names(section: RingSection, dimension: int, fiber_dim: int) -> None:
    """Params and radicals may not reuse a name that is already bound."""
    taken = {f"e{i + 1}": "a coframe generator" for i in range(dimension)}
    taken.update({f"b{i + 1}": "a coframe generator" for i in range(fiber_dim)})
    taken.update({f"a{i + 1}": "a fiber coordinate" for i in range(fiber_dim)})
    taken.update(aa="the radial square", d="the exterior derivative")
    taken.update({f"sqrt{d}": "a field constant" for d in section.sqrt_constants})
    named = [
        (f"ring.params[{i}]", p, "a parameter") for i, p in enumerate(section.params)
    ]
    named += [
        (f"ring.radicals[{i}].name", r.name, "a radical")
        for i, r in enumerate(section.radicals)
    ]
    for where, name, what in named:
        if name in taken:
            raise ConfigError(f"{where}: {name!r} is already {taken[name]}")
        taken[name] = what


def _base_ring(section: RingSection, fiber_dim: int) -> Ring:
    """The radical-free ring that radical squares are written over."""
    return Ring(
        RingSpec(
            field_radicands=section.sqrt_constants,
            fiber=tuple(f"a{i + 1}" for i in range(fiber_dim)),
            params=section.params,
        )
    )


def _past_decoder(text: str) -> json.JSONDecodeError:
    """Where json.loads gave up on a text that is not a syntax error: the
    first integer with more digits than Python converts, else the deepest
    bracket of a nesting too deep for the decoder."""
    limit = sys.get_int_max_str_digits()
    depth, deepest, at = 0, 0, 0
    for m in _JSON_TOKEN.finditer(text):
        tok = m.group()
        if tok.isdigit() and len(tok) > limit > 0:
            msg = f"integer of {len(tok)} digits, over the limit of {limit}"
            return json.JSONDecodeError(msg, text, m.start())
        depth += (tok in ("[", "{")) - (tok in ("]", "}"))
        if depth > deepest:
            deepest, at = depth, m.start()
    msg = f"nesting {deepest} levels deep is too deep to decode"
    return json.JSONDecodeError(msg, text, at)


def parse_config(text: str) -> ConfigDocument:
    """Validate the structure and evaluate the literals; raises ConfigError
    with a path."""
    try:
        raw = json.loads(text)
    except (RecursionError, ValueError) as e:
        if not isinstance(e, json.JSONDecodeError):
            e = _past_decoder(text)
        raise ConfigError(
            f"syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    _check_keys(
        raw,
        "top level",
        {
            "ring",
            "lie_algebra",
            "splitting",
            "representation",
            "letters",
            "contractions",
            "tasks",
        },
    )
    ring = _parse_ring_section(raw["ring"])
    try:
        constants_ctx = constant_context(ring.sqrt_constants)
    except ValueError as e:
        raise ConfigError(f"ring.sqrt_constants: {e}") from None

    la = raw["lie_algebra"]
    _check_keys(la, "lie_algebra", {"dimension", "constants"})
    dimension = _as_int(la["dimension"], "lie_algebra.dimension", low=1, high=9)
    constants = _parse_constants(
        la["constants"], "lie_algebra.constants", dimension, constants_ctx
    )

    sp = raw["splitting"]
    _check_keys(sp, "splitting", {"horizontal", "gauge"})
    horizontal = _index_list(sp["horizontal"], "splitting.horizontal", dimension)
    gauge = _index_list(sp["gauge"], "splitting.gauge", dimension)
    both = set(horizontal) | set(gauge)
    if set(horizontal) & set(gauge):
        raise ConfigError("splitting: horizontal and gauge overlap")
    if both != set(range(1, dimension + 1)):
        raise ConfigError(
            "splitting: horizontal and gauge must partition 1.."
            f"{dimension}, got {sorted(both)}"
        )

    representation, fiber_dim = _parse_representation(
        raw["representation"], gauge, constants_ctx
    )

    _check_ring_names(ring, dimension, fiber_dim)
    base = _base_ring(ring, fiber_dim)
    # radical squares: a1..ak, the params, aa and sqrtN
    squares_ctx = _literal_context(base, scalar_bindings(base))
    radicals = []
    for i, rad in enumerate(ring.radicals):
        where = f"ring.radicals[{i}].square"
        square = parse_radical_square(squares_ctx, rad.square, where)
        spec = RadicalSpec(rad.name, square)
        try:
            Ring(replace(base.spec, radicals=(spec,)))
        except RingError as e:
            raise ConfigError(f"{where}: {e}") from None
        radicals.append(spec)

    letters = _parse_letters(raw["letters"], fiber_dim)
    contractions = _parse_contractions(
        raw["contractions"], fiber_dim, constants_ctx
    )
    tasks = _parse_tasks(raw["tasks"])

    return ConfigDocument(
        ring=replace(base.spec, radicals=tuple(radicals)),
        dimension=dimension,
        constants=constants,
        horizontal=horizontal,
        gauge=gauge,
        representation=representation,
        letters=letters,
        contractions=contractions,
        tasks=tasks,
        fiber_dim=fiber_dim,
    )


# -- realization -------------------------------------------------------------


class RealizedConfig:
    """A parsed document turned into live objects, with a dictionary cache."""

    def __init__(
        self,
        document: ConfigDocument,
        setup: HomogeneousSetup,
        letters: Mapping[str, Letter],
        contractions: Mapping[str, Contraction],
        context: ExpressionContext,
    ):
        self.document = document
        self.setup = setup
        self.letters = dict(letters)
        self.contractions = dict(contractions)
        self.context = context
        self._dictionary = None

    def dictionary(self, max_degree: int | None = None):
        """The dictionary of words up to max_degree, None for all of them.
        One dictionary is kept: it serves every request up to its own degree
        bound, and a request above it generates afresh."""
        cached = self._dictionary
        covered = cached is not None and (
            cached.max_degree is None
            or (max_degree is not None and max_degree <= cached.max_degree)
        )
        if not covered:
            cached = self._dictionary = generate_dictionary(
                self.setup,
                list(self.letters.values()),
                list(self.contractions.values()),
                max_degree,
            )
        return cached


def realize_config(document: ConfigDocument) -> RealizedConfig:
    """Build the setup, letters and contractions; errors name their section.

    Raises ConfigError for anything wrong with letters or contractions; lets
    SetupError through untouched so callers can show the full issue list
    from the structural validator.
    """
    field = NumberField(document.ring.field_radicands)
    algebra = make_algebra(field, document.dimension, document.constants)
    splitting = Splitting(horizontal=document.horizontal, gauge=document.gauge)
    representation = make_representation(field, dict(document.representation))
    setup = validate_setup(algebra, splitting, representation, document.ring)

    bare = build_context(setup)
    letters: dict[str, Letter] = {}
    for name, spec in document.letters:
        where = f"letters.{name}"
        try:
            if spec == "builtin":
                letters[name] = (
                    letter_a(setup) if name == "a" else letter_b(setup)
                )
            else:
                comps = [parse_form_expression(s, bare) for s in spec]
                letters[name] = make_letter(setup, name, comps)
        except (ExpressionError, LetterError, RingError) as e:
            raise ConfigError(f"{where}: {e}") from None

    contractions: dict[str, Contraction] = {}
    for name, spec in document.contractions:
        where = f"contractions.{name}"
        try:
            if spec == "builtin":
                contractions[name] = (
                    dot_contraction(setup)
                    if name == "dot"
                    else det_contraction(setup)
                )
            else:
                entries = {
                    tuple(i - 1 for i in idx): value for idx, value in spec.entries
                }
                contractions[name] = make_contraction(
                    setup, name, entries, symmetry=spec.symmetry
                )
        except LetterError as e:
            raise ConfigError(f"{where}: {e}") from None

    try:
        context = build_context(
            setup, list(letters.values()), list(contractions.values())
        )
    except ExpressionError as e:
        raise ConfigError(f"letters/contractions: {e}") from None
    return RealizedConfig(
        document=document,
        setup=setup,
        letters=letters,
        contractions=contractions,
        context=context,
    )
