"""Sparse exterior algebra over a declared coframe.

A Frame fixes a finite ordered list of anticommuting generators, each tagged
with a kind:

* horizontal: pullbacks of coframe elements on the base,
* vertical: the covariant fiber coframe b_1..b_k,
* gauge: connection directions, which basic forms never use.

A Form is a map from basis words (bitmasks over the generators) to Scalar
coefficients.  Wedge signs come from sorting concatenated words; the interior
product is the graded antiderivation dropping one generator.  Bidegrees count
(horizontal, vertical); gauge generators carry no bidegree and
bidegree_split refuses forms containing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from equiform.numberfield import Coefficient, FieldElement, canonical
from equiform.scalars import Point, Ring, RingMap, Scalar, finish, multiply_into

KINDS = ("horizontal", "vertical", "gauge")


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
class FrameSpec:
    """Ordered generator declarations: (name, kind) pairs."""

    generators: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for name, kind in self.generators:
            if kind not in KINDS:
                raise FrameError(f"unknown generator kind {kind!r} for {name!r}")
            if name in seen:
                raise FrameError(f"duplicate generator name {name!r}")
            seen.add(name)


class Frame:
    """A FrameSpec bound to a coefficient ring."""

    def __init__(self, ring: Ring, spec: FrameSpec):
        self.ring = ring
        self.spec = spec
        self.names = tuple(n for n, _ in spec.generators)
        self.kinds = tuple(k for _, k in spec.generators)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.size = len(self.names)
        self.horizontal_mask = self._mask_of_kind("horizontal")
        self.vertical_mask = self._mask_of_kind("vertical")
        self.gauge_mask = self._mask_of_kind("gauge")

    def _mask_of_kind(self, kind: str) -> int:
        m = 0
        for i, k in enumerate(self.kinds):
            if k == kind:
                m |= 1 << i
        return m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Frame)
            and self.ring == other.ring
            and self.spec == other.spec
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.spec))

    def __repr__(self) -> str:
        return f"Frame({', '.join(self.names)})"

    # -- form constructors ---------------------------------------------------

    @property
    def zero(self) -> "Form":
        return Form(self, {})

    @property
    def one(self) -> "Form":
        return Form(self, {0: self.ring.one})

    def generator(self, name: str) -> "Form":
        if name not in self.index:
            raise FrameError(f"unknown generator {name!r}")
        return Form(self, {1 << self.index[name]: self.ring.one})

    def form(self, terms: Mapping[int, object]) -> "Form":
        clean: dict[int, Scalar] = {}
        for mask, c in terms.items():
            if mask < 0 or mask >> self.size:
                raise FrameError(f"basis word {mask:#x} out of range")
            s = self.ring.normalize(c)
            if not s.is_zero:
                clean[mask] = clean.get(mask, self.ring.zero) + s
        return Form(self, {m: s for m, s in clean.items() if not s.is_zero})

    def scalar_form(self, value) -> "Form":
        s = self.ring.normalize(value)
        return Form(self, {} if s.is_zero else {0: s})

    def render_mask(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "*".join(self.names[i] for i in bits(mask))

    def bidegree_of_mask(self, mask: int) -> tuple[int, int]:
        if mask & self.gauge_mask:
            raise FrameError("basis word contains gauge generators")
        p = (mask & self.horizontal_mask).bit_count()
        q = (mask & self.vertical_mask).bit_count()
        return p, q


def bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def merge_sign(mx: int, my: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending words:
    each generator of my passes the generators of mx above it."""
    passes = 0
    while my:
        low = my & -my
        passes += (mx & -(low << 1)).bit_count()
        my ^= low
    return -1 if passes & 1 else 1


class Form:
    """A differential form in normal form over a Frame."""

    __slots__ = ("frame", "terms")

    def __init__(self, frame: Frame, terms: dict[int, Scalar]):
        self.frame = frame
        self.terms = terms

    # -- basics ---------------------------------------------------------

    @property
    def ring(self) -> Ring:
        return self.frame.ring

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.frame == other.frame
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.frame, frozenset(self.terms.items())))

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise FrameError(f"form mixes degrees {sorted(degs)}")
        return degs.pop()

    # -- linear structure -------------------------------------------------

    def _coerce_scalar(self, other) -> Scalar | None:
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise FrameError("scalar from a different ring")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ring.normalize(other)
        return None

    def __add__(self, other) -> "Form":
        if not isinstance(other, Form):
            s = self._coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = Form(self.frame, {} if s.is_zero else {0: s})
        if other.frame != self.frame:
            raise FrameError("forms over different frames")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Form(self.frame, out)

    __radd__ = __add__

    def __neg__(self) -> "Form":
        return Form(self.frame, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Form":
        if isinstance(other, Form):
            return self + (-other)
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + Form(self.frame, {} if s.is_zero else {0: -s})

    def __rsub__(self, other) -> "Form":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Form":
        if isinstance(other, Form):
            return wedge(self, other)
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        if s.is_zero:
            return self.frame.zero
        out = {}
        for m, c in self.terms.items():
            p = c * s
            if not p.is_zero:
                out[m] = p
        return Form(self.frame, out)

    def __rmul__(self, other) -> "Form":
        # scalars commute with everything
        return self.__mul__(other)

    def __truediv__(self, other) -> "Form":
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        inv = s.inverse_monomial()
        return self * inv

    # -- rendering --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Form({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[mask]
            cs = str(c)
            word = self.frame.render_mask(mask)
            neg = cs.startswith("-") and "+" not in cs[1:] and "-" not in cs[1:]
            if neg:
                cs = cs[1:]
            if "+" in cs or "-" in cs:
                cs = f"({cs})"
            if mask == 0:
                piece = cs
            elif cs == "1":
                piece = word
            else:
                piece = f"{cs}*{word}"
            if not parts:
                parts.append(("-" if neg else "") + piece)
            else:
                parts.append((" - " if neg else " + ") + piece)
        return "".join(parts)


def wedge(x: Form, y: Form) -> Form:
    """Exterior product, each word's coefficient summed unreduced and
    normalized once."""
    if x.frame != y.frame:
        raise FrameError("forms over different frames")
    words: dict[int, dict] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            if not mx & my:
                acc = words.setdefault(mx | my, {})
                multiply_into(acc, cx, cy, merge_sign(mx, my))
    return finish_form(x.frame, words)


def finish_form(frame: Frame, words: dict[int, dict]) -> Form:
    """The Form with the given unreduced coefficient maps by basis word,
    each normalized once (scalars.finish), its zero words dropped."""
    out: dict[int, Scalar] = {}
    for m, acc in words.items():
        s = finish(frame.ring, acc)
        if s:
            out[m] = s
    return Form(frame, out)


def wedge_vectors(
    x: dict[int, Coefficient], y: dict[int, Coefficient]
) -> dict[int, Coefficient]:
    """Exterior product of two forms with constant coefficients, given as
    sparse vectors {basis word: canonical coefficient}: the wedge of their
    point values, with canonical sums."""
    out: dict[int, Coefficient] = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            if mx & my:
                continue
            c = cx * cy
            if merge_sign(mx, my) < 0:
                c = -c
            m = mx | my
            s = out.get(m)
            s = c if s is None else s + c
            if type(s) is not int:
                s = canonical(s)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def interior(gen_index: int, x: Form) -> Form:
    """Interior product with the frame vector dual to generator gen_index.

    Acts as the graded antiderivation: dropping the generator from a basis
    word picks up the sign of its position in the ascending word.
    """
    if gen_index < 0 or gen_index >= x.frame.size:
        raise FrameError(f"generator index {gen_index} out of range")
    bit = 1 << gen_index
    out: dict[int, Scalar] = {}
    for m, c in x.terms.items():
        if not m & bit:
            continue
        below = m & (bit - 1)
        if below.bit_count() & 1:
            c = -c
        out[m ^ bit] = c
    return Form(x.frame, out)


def bidegree_split(x: Form) -> dict[tuple[int, int], Form]:
    """Split into (horizontal degree, vertical degree) components."""
    buckets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for m, c in x.terms.items():
        pq = x.frame.bidegree_of_mask(m)
        buckets.setdefault(pq, {})[m] = c
    return {pq: Form(x.frame, t) for pq, t in sorted(buckets.items())}


def map_form(x: Form, phi: RingMap) -> Form:
    """The image of x under a ring map, coefficient by coefficient, over the
    same generators."""
    if phi.is_identity:
        return x
    frame = x.frame if phi.target is x.ring else Frame(phi.target, x.frame.spec)
    out: dict[int, Scalar] = {}
    for m, c in x.terms.items():
        v = phi(c)
        if v:
            out[m] = v
    return Form(frame, out)


def point_vector(value: Form) -> dict[int, Coefficient]:
    """A value at a point, a form with constant coefficients, as a sparse
    vector keyed by basis word, for rank work."""
    return {m: c.constant_term() for m, c in value.terms.items()}


def evaluate_to_vector(x: Form, pt: Point) -> dict[int, Coefficient]:
    """Evaluation as a sparse vector keyed by basis word, for rank work."""
    return point_vector(map_form(x, pt))
