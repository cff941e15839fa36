"""The sum and product kernels of `FieldElement` and `Scalar` as they were
before the zero, single-term and constant fast paths, kept as an independent
oracle for the rewritten methods.

Each function takes the two operands as the methods do (`self` first) and
always runs the general loop: the field kernels merge term by term, the
scalar sum re-normalises through `_finish`, and the scalar product expands
every pair of monomials through `_accumulate` before `_finish`.

`shifted_exact_divide` is the radical-square division as it was before
parameters became units: it shifts Laurent parameter exponents into a
nonnegative window and tests divisibility on every slot.
"""

from __future__ import annotations

from fractions import Fraction

from equiform.numberfield import FieldElement
from equiform.scalars import Monomial, Ring, Scalar, _accumulate, _finish


def field_add(self: FieldElement, other) -> FieldElement:
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    out = dict(self.terms)
    for mask, c in o.terms.items():
        s = out.get(mask, Fraction(0)) + c
        if s:
            out[mask] = s
        else:
            out.pop(mask, None)
    return FieldElement(self.field, out)


def field_mul(self: FieldElement, other) -> FieldElement:
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    out: dict[int, Fraction] = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in o.terms.items():
            # shared radicals square to their radicand
            c = c1 * c2 * self.field._mask_value(m1 & m2)
            m = m1 ^ m2
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return FieldElement(self.field, out)


def scalar_add(self: Scalar, other) -> Scalar:
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    out = dict(self.coeffs)
    for m, c in o.coeffs.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(m, None)
        else:
            out[m] = s
    return _finish(self.ring, out)


def scalar_mul(self: Scalar, other) -> Scalar:
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    out: dict[Monomial, FieldElement] = {}
    for m1, c1 in self.coeffs.items():
        for m2, c2 in o.coeffs.items():
            _accumulate(
                self.ring, out, tuple(x + y for x, y in zip(m1, m2)), c1 * c2
            )
    return _finish(self.ring, out)


def shifted_exact_divide(ring: Ring, num: dict, den: dict) -> tuple[dict, dict]:
    if not num:
        return {}, {}
    lo = ring.nf
    hi = ring.nf + ring.np
    shift = [0] * ring.width
    for p in range(lo, hi):
        m = min(mono[p] for mono in num)
        if m < 0:
            shift[p] = -m
    if any(shift):
        num = {
            tuple(e + s for e, s in zip(mono, shift)): c for mono, c in num.items()
        }
    lt = max(den)
    lc = den[lt]
    work = dict(num)
    q: dict = {}
    r: dict = {}
    while work:
        t = max(work)
        c = work.pop(t)
        qm = tuple(a - b for a, b in zip(t, lt))
        if all(e >= 0 for e in qm):
            qc = c * lc.inverse()
            q[qm] = qc
            for dm, dc in den.items():
                if dm == lt:
                    continue
                key = tuple(a + b for a, b in zip(qm, dm))
                s = work.get(key)
                s = -qc * dc if s is None else s - qc * dc
                if s.is_zero:
                    work.pop(key, None)
                else:
                    work[key] = s
        else:
            r[t] = c
    if any(shift):
        q = {tuple(e - s for e, s in zip(m, shift)): c for m, c in q.items()}
        r = {tuple(e - s for e, s in zip(m, shift)): c for m, c in r.items()}
    return q, r
