"""Exact arithmetic in real multi-quadratic number fields.

A field here is Q adjoined with finitely many square roots of distinct
squarefree integers > 1.  Elements are stored sparsely as a map from a bitmask
(which radicals appear in the term) to a rational coefficient, so e.g. in
Q(sqrt2, sqrt3) the element 1/2 + sqrt6 is {0b00: 1/2, 0b11: 1}.  Products of
radicals collapse exactly: sqrt(d) * sqrt(d) = d.

Every exact number of the program is a canonical coefficient: a Python int
when it is integral, a Fraction with denominator > 1 when it is rational,
and a FieldElement only while it has an irrational term; a FieldElement
stores its own terms by the rational half of that rule.  An int and a
Fraction of equal value compare and hash equal and print the same, so the
choice changes no result; it keeps most arithmetic off FieldElement and the
integral products off Fraction.  + - * and the zero test "not c" work on any
mix; canonical, coefficient, inverse, power and sqrt below do the rest.

Everything is exact.  The zero test is "no terms", the sign test runs interval
refinement with rational endpoints until zero is excluded (termination is
guaranteed for a nonzero element).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]
Coefficient = Union[int, Fraction, "FieldElement"]  # canonical: see canonical


def _canonical(c: RationalLike) -> RationalLike:
    """The canonical form of a rational c: an int when c is integral."""
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as r*r * t with t squarefree; returns (r, t)."""
    r, t, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            r *= d
        if n % d == 0:
            n //= d
            t *= d
        d += 1
    return r, t * n


class NumberField:
    """The tower Q(sqrt d_1, ..., sqrt d_s) for distinct squarefree d_i > 1."""

    def __init__(self, radicands: Iterable[int] = ()):
        rads = tuple(int(d) for d in radicands)
        seen = set()
        for d in rads:
            if d <= 1:
                raise ValueError(f"radicand must be an integer > 1, got {d}")
            if _squarefree_split(d)[0] != 1:
                raise ValueError(f"radicand must be squarefree, got {d}")
            if d in seen:
                raise ValueError(f"duplicate radicand {d}")
            seen.add(d)
        self.radicands = rads

    def __repr__(self) -> str:
        if not self.radicands:
            return "NumberField()"
        return "NumberField(%s)" % ", ".join(str(d) for d in self.radicands)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberField) and self.radicands == other.radicands

    def __hash__(self) -> int:
        return hash(("NumberField", self.radicands))

    # mask arithmetic: product of the radicands selected by a bitmask
    def _mask_value(self, mask: int) -> int:
        v = 1
        for i, d in enumerate(self.radicands):
            if mask >> i & 1:
                v *= d
        return v

    def element(self, terms: Mapping[int, RationalLike]) -> "FieldElement":
        clean: dict[int, RationalLike] = {}
        for mask, c in terms.items():
            if type(c) is not int:
                c = _canonical(Fraction(c))
            if c:
                if mask < 0 or mask >> len(self.radicands):
                    raise ValueError(f"mask {mask} out of range for {self!r}")
                clean[mask] = c
        return FieldElement(self, clean)

    def rational(self, value: RationalLike) -> "FieldElement":
        return self.element({0: Fraction(value)})

    # elements are immutable, so the constants are built once per field
    @cached_property
    def zero(self) -> "FieldElement":
        return self.rational(0)

    @cached_property
    def one(self) -> "FieldElement":
        return self.rational(1)

    def sqrt_radicand(self, d: int) -> "FieldElement":
        """The generator sqrt(d) for one of the field's radicands."""
        try:
            i = self.radicands.index(d)
        except ValueError:
            raise ValueError(f"{d} is not a radicand of {self!r}") from None
        return self.element({1 << i: 1})

    def sqrt_of_rational(self, q: RationalLike) -> "FieldElement | None":
        """Square root of a nonnegative rational, if it exists in the field."""
        q = Fraction(q)
        if q < 0:
            return None
        if q == 0:
            return self.zero
        # q = (rn/rd)^2 * (tn/td) with tn, td squarefree; sqrt exists iff
        # tn*td is a product of a subset of the radicands.
        rn, tn = _squarefree_split(q.numerator)
        rd, td = _squarefree_split(q.denominator)
        t = tn * td
        for mask in range(1 << len(self.radicands)):
            if self._mask_value(mask) == t:
                return self.element({mask: Fraction(rn, rd * td)})
        return None


class FieldElement:
    """An element of a NumberField.  Immutable once constructed, so an
    operation may return one of its operands."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: NumberField, terms: dict[int, RationalLike]):
        self.field = field
        self.terms = terms
        self._hash: int | None = None

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if type(other) is FieldElement and other.field is self.field:
            return other
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, {0: _canonical(other)} if other else {})
        return None

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        out = dict(self.terms)
        for mask, c in o.terms.items():
            s = out.get(mask)
            if s is None:
                out[mask] = c
            else:
                s = _canonical(s + c)
                if s:
                    out[mask] = s
                else:
                    del out[mask]
        return FieldElement(self.field, out)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return self
        if not o.terms:
            return o
        field = self.field
        if len(self.terms) == 1 and len(o.terms) == 1:
            ((m1, c1),) = self.terms.items()
            ((m2, c2),) = o.terms.items()
            c = c1 * c2
            if m1 & m2:
                # shared radicals square to their radicand
                c *= field._mask_value(m1 & m2)
            return FieldElement(field, {m1 ^ m2: _canonical(c)})
        out: dict[int, RationalLike] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                c = c1 * c2
                if m1 & m2:
                    c *= field._mask_value(m1 & m2)
                m = m1 ^ m2
                s = out.get(m)
                if s is None:
                    out[m] = _canonical(c)
                else:
                    s = _canonical(s + c)
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return FieldElement(field, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero field element")
        # Norm descent: multiply by the conjugate in the highest radical
        # still present until the denominator is rational.
        e = self
        acc = self.field.one
        while True:
            masks = [m for m in e.terms if m]
            if not masks:
                q = e.terms[0]
                return acc * self.field.rational(Fraction(1) / q)
            bit = 1 << (max(masks).bit_length() - 1)
            conj = FieldElement(
                self.field,
                {m: (-c if m & bit else c) for m, c in e.terms.items()},
            )
            acc = acc * conj
            e = e * conj

    def __truediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({0: other} if other else {})
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(m == 0 for m in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.terms.get(0, 0))

    # -- order structure ----------------------------------------------------

    def _interval(self, digits: int) -> tuple[Fraction, Fraction]:
        """Enclosing interval with rational endpoints, ~digits of precision."""
        scale = 10 ** digits
        lo = hi = Fraction(0)
        for mask, c in self.terms.items():
            plo = phi = Fraction(1)
            for i, d in enumerate(self.field.radicands):
                if mask >> i & 1:
                    a = math.isqrt(d * scale * scale)  # floor(sqrt(d)*scale)
                    plo *= Fraction(a, scale)
                    phi *= Fraction(a + 1, scale)
            if c >= 0:
                lo += c * plo
                hi += c * phi
            else:
                lo += c * phi
                hi += c * plo
        return lo, hi

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        if not self.terms:
            return 0
        digits = 15
        while True:
            lo, hi = self._interval(digits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            digits *= 2

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).sign() >= 0

    # -- square roots -------------------------------------------------------

    def sqrt(self) -> "FieldElement | None":
        """Nonnegative square root inside the field, or None.

        Handles rational elements and, in a quadratic layer, elements
        a + b*sqrt(d) via the usual nested-radical denesting.
        """
        if self.sign() < 0:
            return None
        if self.is_rational:
            return self.field.sqrt_of_rational(self.as_rational())
        masks = set(self.terms) - {0}
        if len(masks) == 1:
            (mask,) = masks
            a = self.terms.get(0, Fraction(0))
            b = self.terms[mask]
            d = self.field._mask_value(mask)
            if a == 0:
                # sqrt(b*sqrt(d)): rational only in degenerate cases; try
                # (x*sqrt(d))^2 = x^2 d ... cannot produce b*sqrt(d) with b!=0
                return None
            # want (x + y*sqrt(d))^2 = a + b sqrt(d):
            #   x^2 + d y^2 = a,  2 x y = b
            # so x^2 solves 4 t^2 - 4 a t + d b^2 = 0.
            disc = a * a - d * b * b
            rd = self.field.sqrt_of_rational(disc)
            if rd is None or not rd.is_rational:
                return None
            for s in (1, -1):
                t = (a + s * rd.as_rational()) / 2
                if t < 0:
                    continue
                x = self.field.sqrt_of_rational(t)
                if x is None or not x.is_rational or x.is_zero:
                    continue
                xq = x.as_rational()
                y = b / (2 * xq)
                cand = self.field.element({0: xq, mask: y})
                if cand * cand == self and cand.sign() >= 0:
                    return cand
                cand = -cand
                if cand * cand == self and cand.sign() >= 0:
                    return cand
        return None

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            if mask == 0:
                body = str(abs(c))
            else:
                rad = "sqrt%d" % self.field._mask_value(mask)
                if abs(c) == 1:
                    body = rad
                else:
                    body = f"{abs(c)}*{rad}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)


# -- canonical coefficients ------------------------------------------------------


def canonical(c: Coefficient) -> Coefficient:
    """The canonical coefficient of value c: an int when it is integral, a
    Fraction when it is rational, a FieldElement only with an irrational
    term."""
    if type(c) is not FieldElement:
        return _canonical(c)
    terms = c.terms
    if not terms:
        return 0
    if len(terms) == 1 and 0 in terms:
        return terms[0]
    return c


def coefficient(field: NumberField, c) -> Coefficient:
    """c, a number or an element of field, as a canonical coefficient.
    Raises ValueError for an element of a different field."""
    if isinstance(c, FieldElement):
        if c.field != field:
            raise ValueError("field element from a different field")
        return canonical(c)
    return _canonical(Fraction(c))


def inverse(c: Coefficient) -> Coefficient:
    """1/c for a nonzero canonical coefficient, never a float."""
    if type(c) is FieldElement:
        return c.inverse()  # the inverse of an irrational value is irrational
    return _canonical(Fraction(1, c))


def power(c: Coefficient, e: int) -> Coefficient:
    """c**e for a nonzero canonical coefficient, never a float."""
    if e < 0 and type(c) is not FieldElement:
        c = Fraction(c)
    return canonical(c**e)


def sqrt(field: NumberField, c: Coefficient) -> Coefficient | None:
    """The nonnegative square root of a canonical coefficient inside field,
    canonical, or None when field has none."""
    if type(c) is FieldElement:
        root = c.sqrt()
    else:
        root = field.sqrt_of_rational(c)
    return None if root is None else canonical(root)
