"""Kernels of `FieldElement` and `Scalar` arithmetic as they were before
coefficients became canonical ints and monomials were summed with `map`,
kept as an independent oracle for the rewritten ones.

The field kernels are the earlier `_coerce`, `__add__`, `__mul__` and
`inverse` with every coefficient a `Fraction`: operands are converted to
Fraction coefficients on entry, and `inverse` multiplies through the
oracle's own `field_mul`.  The scalar kernels `_accumulate`, `_exact_divide`,
`_reduce_denominators`, `_mono_mul_ppow`, `_check_bounds` and `_finish` are
copied unchanged; they index radical and denominator slots through the
`Ring` helpers and sum monomials with generator expressions.  `scalar_add`
and `scalar_mul` run the general loops through them: the sum re-normalises
through `_finish`, and the product expands every pair of monomials through
`_accumulate` before `_finish`.

`shifted_exact_divide` is the radical-square division as it was before
parameters became units: it shifts Laurent parameter exponents into a
nonnegative window and tests divisibility on every slot.

Ring coefficients are now canonical rationals, with a FieldElement only for
an irrational part; every scalar kernel here lifts its coefficients (and a
divisor's) to FieldElement on entry, and runs unchanged from there.
"""

from __future__ import annotations

from fractions import Fraction

from equiform.numberfield import FieldElement
from equiform.scalars import Monomial, Ring, RingError, Scalar

from field_lift import as_field_element


def _lifted(ring: Ring, coeffs: dict) -> dict:
    """coeffs with every coefficient a FieldElement."""
    return {m: as_field_element(ring.field, c) for m, c in coeffs.items()}


def _fractions(x: FieldElement) -> FieldElement:
    """x with every coefficient a Fraction, as the earlier kernels stored it."""
    return FieldElement(x.field, {m: Fraction(c) for m, c in x.terms.items()})


def _coerce(self: FieldElement, other) -> "FieldElement | None":
    if isinstance(other, FieldElement):
        if other.field is not self.field and other.field != self.field:
            raise ValueError("elements of different fields")
        return _fractions(other)
    if isinstance(other, (int, Fraction)):
        return FieldElement(self.field, {0: Fraction(other)} if other else {})
    return None


def field_add(self: FieldElement, other) -> FieldElement:
    self = _fractions(self)
    o = _coerce(self, other)
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
            s += c
            if s:
                out[mask] = s
            else:
                del out[mask]
    return FieldElement(self.field, out)


def field_mul(self: FieldElement, other) -> FieldElement:
    self = _fractions(self)
    o = _coerce(self, other)
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
        return FieldElement(field, {m1 ^ m2: c})
    out: dict[int, Fraction] = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in o.terms.items():
            c = c1 * c2
            if m1 & m2:
                c *= field._mask_value(m1 & m2)
            m = m1 ^ m2
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return FieldElement(field, out)


def field_inverse(self: FieldElement) -> FieldElement:
    self = _fractions(self)
    if not self.terms:
        raise ZeroDivisionError("inverse of zero field element")
    # Norm descent: multiply by the conjugate in the highest radical
    # still present until the denominator is rational.
    e = self
    acc = FieldElement(self.field, {0: Fraction(1)})
    while True:
        masks = [m for m in e.terms if m]
        if not masks:
            q = e.terms[0]
            return field_mul(acc, FieldElement(self.field, {0: 1 / q}))
        bit = 1 << (max(masks).bit_length() - 1)
        conj = FieldElement(
            self.field,
            {m: (-c if m & bit else c) for m, c in e.terms.items()},
        )
        acc = field_mul(acc, conj)
        e = field_mul(e, conj)


def _accumulate(ring: Ring, out: dict, mono: Monomial, c: FieldElement) -> None:
    """Add c * mono to out, normalizing radical exponent slots.

    Rewrites u^2 -> p, folds negative u exponents into denominator slots and
    expands negative denominator slots (positive powers of p) back into
    polynomials.  Does not run the p-adic reduction; callers do that once per
    result via _finish.
    """
    if c.is_zero:
        return
    base = ring.nf + ring.np
    for j in range(ring.nr):
        r = mono[ring.radical_slot(j)]
        k = mono[ring.denominator_slot(j)]
        if r >= 2:
            lowered = list(mono)
            lowered[ring.radical_slot(j)] = r - 2
            lowered = tuple(lowered)
            for pm, pc in ring.radical_squares[j].items():
                _accumulate(
                    ring, out, tuple(x + y for x, y in zip(lowered, pm)), c * pc
                )
            return
        if r < 0:
            shifted = list(mono)
            shift = (1 - r) // 2  # smallest shift making the exponent 0 or 1
            shifted[ring.radical_slot(j)] = r + 2 * shift
            shifted[ring.denominator_slot(j)] = k + shift
            _accumulate(ring, out, tuple(shifted), c)
            return
        if k < 0:
            # a positive power of the defining polynomial: expand it
            raised = list(mono)
            raised[ring.denominator_slot(j)] = k + 1
            raised = tuple(raised)
            for pm, pc in ring.radical_squares[j].items():
                _accumulate(
                    ring, out, tuple(x + y for x, y in zip(raised, pm)), c * pc
                )
            return
    s = out.get(mono)
    s = c if s is None else s + c
    if s.is_zero:
        out.pop(mono, None)
    else:
        out[mono] = s


def _exact_divide(
    ring: Ring, num: dict, den: dict
) -> tuple[dict, dict]:
    """Multivariate division num = q * den + r by a radical square.

    Parameters are units, so a monomial is divisible when its fiber and
    radical slots are; Laurent parameter exponents pass through.  The
    divisor has a single term with the lex-largest fiber part (Ring checks
    this), so every step lowers the fiber part of what is left and lex
    division terminates with a remainder that does not depend on where the
    parameter exponents sit.  Returns (quotient, remainder); the remainder
    is the canonical p-adic digit.
    """
    num, den = _lifted(ring, num), _lifted(ring, den)
    lo = ring.nf
    hi = ring.nf + ring.np
    lt = max(den)
    lc = den[lt]
    work = dict(num)
    q: dict = {}
    r: dict = {}
    while work:
        t = max(work)
        c = work.pop(t)
        qm = tuple(a - b for a, b in zip(t, lt))
        if all(e >= 0 for e in qm[:lo]) and all(e >= 0 for e in qm[hi:]):
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
    return q, r


def _reduce_denominators(ring: Ring, terms: dict) -> dict:
    """Canonicalize denominator content by nested p-adic expansion."""
    terms = _lifted(ring, terms)
    for j in range(ring.nr):
        dslot = ring.denominator_slot(j)
        if not any(mono[dslot] for mono in terms):
            continue
        kmax = max(mono[dslot] for mono in terms)
        # lift everything to the common denominator p^kmax
        lifted: dict = {}
        for mono, c in terms.items():
            k = mono[dslot]
            flat = list(mono)
            flat[dslot] = 0
            _mono_mul_ppow(ring, j, lifted, tuple(flat), c, kmax - k)
        # peel canonical digits: lifted = sum digit_i * p^i
        digits: list[dict] = []
        work = lifted
        while work:
            work, rem = _exact_divide(ring, work, ring.radical_squares[j])
            digits.append(rem)
        out: dict = {}
        for i, digit in enumerate(digits):
            k = kmax - i
            if k <= 0:
                # nonnegative power of p: expand back to a polynomial
                for mono, c in digit.items():
                    _mono_mul_ppow(ring, j, out, mono, c, -k)
            else:
                for mono, c in digit.items():
                    restored = list(mono)
                    restored[dslot] = k
                    key = tuple(restored)
                    s = out.get(key)
                    s = c if s is None else s + c
                    if s.is_zero:
                        out.pop(key, None)
                    else:
                        out[key] = s
        terms = out
    return terms


def _mono_mul_ppow(
    ring: Ring, j: int, out: dict, mono: Monomial, c: FieldElement, power: int
) -> None:
    """out += c * mono * p_j^power for power >= 0 (expanded)."""
    if power == 0:
        s = out.get(mono)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(mono, None)
        else:
            out[mono] = s
        return
    for pm, pc in ring.radical_squares[j].items():
        _mono_mul_ppow(
            ring, j, out, tuple(x + y for x, y in zip(mono, pm)), c * pc, power - 1
        )


def _check_bounds(ring: Ring, coeffs: dict) -> None:
    for mono in coeffs:
        for i in range(ring.nf):
            if mono[i] < 0:
                raise RingError("negative exponent on a fiber variable")
        for j in range(ring.nr):
            vis = ring.visible_radical_exponent(mono, j)
            if vis < -ring.depth:
                raise RingError(
                    f"radical exponent {vis} below depth bound -{ring.depth} "
                    f"for {ring.radical_names[j]}"
                )


def _finish(ring: Ring, out: dict) -> "Scalar":
    out = _lifted(ring, out)
    if ring.nr and any(
        mono[ring.denominator_slot(j)] for mono in out for j in range(ring.nr)
    ):
        out = _reduce_denominators(ring, out)
    _check_bounds(ring, out)
    return Scalar(ring, out)


def scalar_add(self: Scalar, other) -> Scalar:
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    out = _lifted(self.ring, self.coeffs)
    for m, c in _lifted(o.ring, o.coeffs).items():
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
    for m1, c1 in _lifted(self.ring, self.coeffs).items():
        for m2, c2 in _lifted(o.ring, o.coeffs).items():
            _accumulate(
                self.ring, out, tuple(x + y for x, y in zip(m1, m2)), c1 * c2
            )
    return _finish(self.ring, out)


def shifted_exact_divide(ring: Ring, num: dict, den: dict) -> tuple[dict, dict]:
    num, den = _lifted(ring, num), _lifted(ring, den)
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
