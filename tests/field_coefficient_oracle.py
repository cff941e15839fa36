"""The ring kernels as they were while every `Scalar` coefficient was a
`FieldElement`, kept as an oracle for the kernels that work on canonical
rationals and keep a FieldElement only for an irrational part.

`_accumulate`, `scalar_add` (the body of `Scalar.__add__`), `scalar_mul`
(the body of `Scalar.__mul__`, with `_constant_coefficient`) and
`differentiate` are copied unchanged; `_radical_partials` rebuilds the
list of radical partials that `differentiate` read off the Ring, which now
keeps half of each.  They expect operands whose
coefficients are all FieldElements (see `lift`), and they normalize through
the FieldElement `_finish` of exact_arith_oracle.py, the full lift and peel.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from equiform.numberfield import FieldElement
from equiform.scalars import Monomial, Ring, RingError, Scalar

from exact_arith_oracle import _finish
from field_lift import as_field_element


def lift(x: Scalar) -> Scalar:
    """x with every coefficient a FieldElement, as these kernels stored it."""
    field = x.ring.field
    return Scalar(x.ring, {m: as_field_element(field, c) for m, c in x.coeffs.items()})


def _accumulate(ring: Ring, out: dict, mono: Monomial, c: FieldElement) -> None:
    """Add c * mono to out, normalizing radical exponent slots.

    Rewrites u^2 -> p, folds negative u exponents into denominator slots and
    expands negative denominator slots (positive powers of p) back into
    polynomials.  Does not run the p-adic reduction; callers do that once per
    result via _finish.
    """
    if c.is_zero:
        return
    for rslot, dslot, square in ring.radical_slots:
        r = mono[rslot]
        k = mono[dslot]
        if r >= 2:
            lowered = list(mono)
            lowered[rslot] = r - 2
            for pm, pc in square.items():
                _accumulate(ring, out, tuple(map(add, lowered, pm)), c * pc)
            return
        if r < 0:
            shifted = list(mono)
            shift = (1 - r) // 2  # smallest shift making the exponent 0 or 1
            shifted[rslot] = r + 2 * shift
            shifted[dslot] = k + shift
            _accumulate(ring, out, tuple(shifted), c)
            return
        if k < 0:
            # a positive power of the defining polynomial: expand it
            raised = list(mono)
            raised[dslot] = k + 1
            for pm, pc in square.items():
                _accumulate(ring, out, tuple(map(add, raised, pm)), c * pc)
            return
    s = out.get(mono)
    s = c if s is None else s + c
    if s.is_zero:
        out.pop(mono, None)
    else:
        out[mono] = s


def _constant_coefficient(x: "Scalar") -> FieldElement | None:
    """The coefficient of x when x is a single constant term, else None."""
    if len(x.coeffs) != 1:
        return None
    ((mono, c),) = x.coeffs.items()
    return None if any(mono) else c


def scalar_add(self, other) -> "Scalar":
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    if not o.coeffs:
        return self
    if not self.coeffs:
        return o
    out = dict(self.coeffs)
    for m, c in o.coeffs.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    # the normal form is additive and the monomials are the operands'
    # own, so the sum needs no reduction and keeps the bounds
    return Scalar(self.ring, out)


def scalar_mul(self, other) -> "Scalar":
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    if not self.coeffs:
        return self
    if not o.coeffs:
        return o
    # a nonzero constant scales the normal form of the other factor
    c = _constant_coefficient(o)
    if c is not None:
        return Scalar(self.ring, {m: x * c for m, x in self.coeffs.items()})
    c = _constant_coefficient(self)
    if c is not None:
        return Scalar(self.ring, {m: c * x for m, x in o.coeffs.items()})
    out: dict[Monomial, FieldElement] = {}
    for m1, c1 in self.coeffs.items():
        for m2, c2 in o.coeffs.items():
            _accumulate(self.ring, out, tuple(map(add, m1, m2)), c1 * c2)
    return _finish(self.ring, out)


def _radical_partials(ring: Ring, i: int):
    """(radical slot, denominator slot, d square/d a_i) for each radical
    whose square depends on fiber variable i, as the Ring once listed them."""
    out = []
    for rslot, dslot, square in ring.radical_slots:
        dp = {}
        for pm, pc in square.items():
            if pm[i]:
                pl = list(pm)
                pl[i] -= 1
                dp[tuple(pl)] = pc * pm[i]
        if dp:
            out.append((rslot, dslot, dp))
    return out


def differentiate(x: Scalar, var: str) -> Scalar:
    """Partial derivative with respect to a fiber variable.

    Radicals differentiate through their defining relation,
    d(u^r)/da = (r/2) (dp/da) u^(r-2), and denominator slots through the
    power rule for p^-k.
    """
    ring = x.ring
    if var not in ring.index or not ring.is_fiber_index(ring.index[var]):
        raise RingError(f"{var!r} is not a fiber variable")
    i = ring.index[var]
    out: dict[Monomial, FieldElement] = {}
    for mono, c in x.coeffs.items():
        if mono[i]:
            lowered = list(mono)
            lowered[i] -= 1
            _accumulate(ring, out, tuple(lowered), c * mono[i])
        for rslot, dslot, dp in _radical_partials(ring, i):
            r = mono[rslot]
            k = mono[dslot]
            if r:
                lowered = list(mono)
                lowered[rslot] = r - 2
                half = Fraction(r, 2)
                for pm, pc in dp.items():
                    _accumulate(ring, out, tuple(map(add, lowered, pm)), c * pc * half)
            if k:
                raised = list(mono)
                raised[dslot] = k + 1
                for pm, pc in dp.items():
                    _accumulate(ring, out, tuple(map(add, raised, pm)), c * pc * (-k))
    return _finish(ring, out)
