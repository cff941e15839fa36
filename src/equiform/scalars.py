"""Coefficient ring for invariant-form computations.

Scalars are finite sums  c * a^alpha * t^gamma * u^delta  where

* c lives in a real multi-quadratic number field, stored as a canonical
  coefficient (numberfield.canonical): an int when c is integral, a
  Fraction with denominator > 1 when it is rational, and a FieldElement
  only while it has an irrational term,
* the a_i are fiber coordinates (exponents >= 0),
* the t_i are formal parameters (exponents in Z, so Laurent),
* the u_j are declared radicals with a defining relation u_j^2 = p_j(a, t),
  p_j a polynomial with no radicals.  Negative powers of u_j act as
  denominators: u^-2 is exactly 1/p.

Internally a monomial keeps the exponent of u_j in {0, 1} plus a separate
nonnegative denominator exponent k_j (the power of 1/p_j); the visible
exponent of u_j is their combination r - 2k.  One step, _accumulate, brings
a term into that form (u^2 -> p, a negative u exponent into a power of 1/p,
a positive power of p expanded): products that can reach u^2, inverses, raw
maps, ring-map images and denominator lifts all go through it.  Sums are
canonicalized by p-adic digit expansion (unique remainders under
multivariate division by p_j), which is what makes the zero test sound: a
scalar is zero iff its coefficient map is empty.  Example: s*s*s^-1
normalizes back to s even though the middle product expands to the
defining polynomial.

Parameters are units of the ring, so division by p_j looks at fiber parts
only.  A Ring therefore accepts a square p_j only when exactly one of its
terms has the lex-largest fiber part and that part is not 1: k*aa and k+aa
pass, a1*k+a1, k+1 and k do not.  Then a remainder is a remainder whatever
the parameter exponents, the normal form is additive, and a sum of normal
forms is merged term by term without re-normalization.  For the same reason
a sum of products or partial derivatives, as wedge and d form per basis
word, is accumulated unreduced (multiply_into, gradient) and normalized
once (finish).

Coefficient arithmetic inside the ring thus runs on plain Python rationals
as long as no irrational term is present, and a FieldElement whose
irrational part cancels (sqrt3*sqrt3, or (1+sqrt3) - sqrt3) is demoted back
to a rational.  constant_term() and Point.fiber_vector() return canonical
coefficients too, the same values the linear algebra works on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import add, ge, neg, sub
from typing import Mapping

from equiform.numberfield import (
    Coefficient,
    FieldElement,
    NumberField,
    canonical,
    coefficient,
    inverse,
    power,
    sqrt,
)

Monomial = tuple  # internal width: n_fiber + n_params + n_radicals * 2


class RingError(ValueError):
    pass


class PointError(ValueError):
    pass


@dataclass(frozen=True)
class RadicalSpec:
    """A radical generator u with u^2 = square (polynomial in fiber/params)."""

    name: str
    square: tuple  # tuple[tuple[exponents over fiber+params, coefficient], ...]


@dataclass(frozen=True)
class RingSpec:
    field_radicands: tuple[int, ...]
    fiber: tuple[str, ...]
    params: tuple[str, ...] = ()
    radicals: tuple[RadicalSpec, ...] = ()
    radical_depth: int = 4


class Ring:
    """The scalar ring described by a RingSpec."""

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.field = NumberField(spec.field_radicands)
        self.fiber = tuple(spec.fiber)
        self.params = tuple(spec.params)
        self.radical_names = tuple(r.name for r in spec.radicals)
        names = self.fiber + self.params + self.radical_names
        if len(set(names)) != len(names):
            raise RingError("variable names must be distinct")
        self.nf = len(self.fiber)
        self.np = len(self.params)
        self.nr = len(self.radical_names)
        self.nvars = self.nf + self.np + self.nr  # external monomial width
        self.width = self.nvars + self.nr  # internal: plus denominator slots
        self.index = {n: i for i, n in enumerate(names)}
        self.depth = spec.radical_depth
        # radical squares, normalized to internal-width monomials
        self.radical_squares: list[dict[Monomial, Coefficient]] = []
        # the fiber part of each square's leading term, which division tests
        self.radical_leads: list[Monomial] = []
        for rad in spec.radicals:
            sq: dict[Monomial, Coefficient] = {}
            for mono, c in rad.square:
                mono = tuple(mono)
                if len(mono) != self.nf + self.np:
                    raise RingError(
                        f"square of radical {rad.name}: monomials must list "
                        f"exponents for the {self.nf + self.np} fiber/param "
                        f"variables"
                    )
                if any(e < 0 for e in mono):
                    raise RingError(
                        f"square of radical {rad.name} has a negative exponent"
                    )
                full = mono + (0,) * (2 * self.nr)
                s = sq.get(full, 0) + self._coefficient(c)
                if not s:
                    sq.pop(full, None)
                else:
                    sq[full] = canonical(s)
            if not sq:
                raise RingError(f"square of radical {rad.name} is zero")
            # parameters are units, so division sees only the fiber parts
            lead = max(m[: self.nf] for m in sq)
            if not any(lead) or sum(m[: self.nf] == lead for m in sq) > 1:
                raise RingError(
                    f"square of radical {rad.name} needs exactly one term with "
                    f"the lex-largest fiber part, and a fiber coordinate in it"
                )
            self.radical_squares.append(sq)
            self.radical_leads.append(lead)
        # per radical, (radical slot, denominator slot, square) for monomial loops
        self.radical_slots = tuple(
            (self.nf + self.np + j, self.nvars + j, sq)
            for j, sq in enumerate(self.radical_squares)
        )
        # per fiber variable, (radical slot, denominator slot, half of
        # d square/d var) for each radical whose square depends on that
        # variable: d(u^v)/da = v * (1/2 dp/da) * u^(v-2)
        self.radical_partials = tuple(
            tuple(
                (rslot, dslot, _half_partial(square, i))
                for rslot, dslot, square in self.radical_slots
                if any(pm[i] for pm in square)
            )
            for i in range(self.nf)
        )

    def _coefficient(self, c) -> Coefficient:
        """c as a canonical coefficient over this ring's field."""
        try:
            return coefficient(self.field, c)
        except ValueError as e:
            raise RingError(str(e)) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return (
            f"Ring(fiber={self.fiber}, params={self.params}, "
            f"radicals={self.radical_names})"
        )

    # -- constructors ------------------------------------------------------

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, {})

    @property
    def one(self) -> "Scalar":
        return Scalar(self, {(0,) * self.width: 1})

    def constant(self, c) -> "Scalar":
        ce = self._coefficient(c)
        if not ce:
            return self.zero
        return Scalar(self, {(0,) * self.width: ce})

    def var(self, name: str) -> "Scalar":
        if name not in self.index:
            raise RingError(f"unknown ring variable {name!r}")
        mono = [0] * self.width
        mono[self.index[name]] = 1
        return Scalar(self, {tuple(mono): 1})

    def sqrt_constant(self, d: int) -> "Scalar":
        return Scalar(self, {(0,) * self.width: self.field.sqrt_radicand(d)})

    def normalize(self, raw) -> "Scalar":
        """Coerce a raw expression into normal form.

        Accepts a Scalar of this ring, a number or field element, or a map
        from exponent tuples (one exponent per fiber variable, parameter and
        radical; radical exponents may be any integer) to coefficients.
        """
        if isinstance(raw, Scalar):
            if raw.ring != self:
                raise RingError("scalar from a different ring")
            return raw
        if isinstance(raw, (int, Fraction, FieldElement)):
            return self.constant(raw)
        if isinstance(raw, Mapping):
            out: dict[Monomial, Coefficient] = {}
            for mono, c in raw.items():
                mono = tuple(mono)
                if len(mono) != self.nvars:
                    raise RingError(
                        f"monomial must list {self.nvars} exponents, got {mono}"
                    )
                internal = mono + (0,) * self.nr
                _accumulate(self, out, internal, self._coefficient(c))
            return _finish(self, out)
        raise RingError(f"cannot normalize {raw!r} into the ring")

    @cached_property
    def radial_square(self) -> "Scalar":
        """The squared fiber radius a_1^2 + ... + a_k^2."""
        out = self.zero
        for name in self.fiber:
            v = self.var(name)
            out = out + v * v
        return out

    @cached_property
    def ray_restriction(self) -> "RingMap":
        """The restriction to the ray a = t*e1, built on first use.

        Into a ring with the one fiber coordinate a1: a_i -> 0 for i >= 2,
        and each radical u_j keeps its name, with square p_j(a1, 0, ..., 0),
        never folded into a1.  Restriction only raises visible radical
        exponents, so the depth bound cannot fire on an image when it did
        not on the source.  The map is the identity on a ring with one
        fiber coordinate, and when the one-fiber ring refuses a restricted
        square (k + a2^2 becomes k).
        """
        target = self
        nf = self.nf
        if nf >= 2:
            radicals = tuple(
                RadicalSpec(
                    rad.name,
                    tuple(
                        (tuple(mono[:1]) + tuple(mono[nf:]), c)
                        for mono, c in rad.square
                        if not any(mono[1:nf])
                    ),
                )
                for rad in self.spec.radicals
            )
            spec = replace(self.spec, fiber=self.fiber[:1], radicals=radicals)
            try:
                target = Ring(spec)
            except RingError:
                pass  # a restricted square is refused: stay the identity
        zero = target.zero
        images = {n: target.var(n) if n in target.index else zero for n in self.index}
        return RingMap(self, target, images)

    def radicals_squaring_to(self, s: "Scalar") -> tuple[str, ...]:
        """Names of the declared radicals whose square is s, in order."""
        return tuple(
            name
            for j, name in enumerate(self.radical_names)
            if self.radical_squares[j] == s.coeffs
        )

    # index helpers
    def is_fiber_index(self, i: int) -> bool:
        return i < self.nf

    def radical_slot(self, j: int) -> int:
        return self.nf + self.np + j

    def denominator_slot(self, j: int) -> int:
        return self.nvars + j

    def visible_radical_exponent(self, mono: Monomial, j: int) -> int:
        return mono[self.radical_slot(j)] - 2 * mono[self.denominator_slot(j)]


def _accumulate(ring: Ring, out: dict, mono: Monomial, c: Coefficient) -> None:
    """Add c * mono to out, normalizing radical exponent slots.

    The one normal-form step of the ring: the terms of products that can
    reach u^2, of inverses, raw maps and ring-map images, and of denominator
    lifts all come through here.  Rewrites u^2 -> p, folds negative u exponents into
    denominator slots and expands negative denominator slots (positive
    powers of p) back into polynomials.  Does not run the p-adic reduction
    and leaves coefficients that may not be canonical; callers do both once
    per result via _finish.
    """
    if not c:
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
    if not s:
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
    lo = ring.nf
    hi = ring.nf + ring.np
    lt = max(den)
    inv = None  # 1 / leading coefficient, on the first divisible term
    work = dict(num)
    q: dict = {}
    r: dict = {}
    while work:
        t = max(work)
        c = work.pop(t)
        qm = tuple(map(sub, t, lt))
        if all(e >= 0 for e in qm[:lo]) and all(e >= 0 for e in qm[hi:]):
            if inv is None:
                inv = inverse(den[lt])
            qc = c * inv
            q[qm] = qc
            for dm, dc in den.items():
                if dm == lt:
                    continue
                key = tuple(map(add, qm, dm))
                s = work.get(key)
                s = -qc * dc if s is None else s - qc * dc
                if not s:
                    work.pop(key, None)
                else:
                    work[key] = s
        else:
            r[t] = c
    return q, r


def _reduce_denominators(ring: Ring, terms: dict) -> dict:
    """Canonicalize denominator content by nested p-adic expansion.

    A radical is skipped when no term over a power of its square has a
    fiber part divisible by the square's leading one: those terms are
    already remainders, and the expansion is unique, so lifting and
    peeling would return them unchanged."""
    for j, (_, dslot, square) in enumerate(ring.radical_slots):
        lead = ring.radical_leads[j]
        if not any(mono[dslot] and all(map(ge, mono, lead)) for mono in terms):
            continue
        kmax = max(mono[dslot] for mono in terms)
        # lift everything to the common denominator p^kmax: a slot of
        # k - kmax <= 0 is the positive power p^(kmax - k), expanded
        lifted: dict = {}
        for mono, c in terms.items():
            lift = list(mono)
            lift[dslot] -= kmax
            _accumulate(ring, lifted, tuple(lift), c)
        # peel canonical digits: lifted = sum digit_i * p^i
        digits: list[dict] = []
        work = lifted
        while work:
            work, rem = _exact_divide(ring, work, square)
            digits.append(rem)
        # digit_i sits over p^(kmax - i), expanded where that power is >= 0
        out: dict = {}
        for i, digit in enumerate(digits):
            for mono, c in digit.items():
                restored = list(mono)
                restored[dslot] = kmax - i
                _accumulate(ring, out, tuple(restored), c)
        terms = out
    return terms


def _check_bounds(ring: Ring, coeffs: dict) -> None:
    nf, floor = ring.nf, -ring.depth
    for mono in coeffs:
        if min(mono[:nf], default=0) < 0:
            raise RingError("negative exponent on a fiber variable")
        for j, (rslot, dslot, _) in enumerate(ring.radical_slots):
            vis = mono[rslot] - 2 * mono[dslot]
            if vis < floor:
                raise RingError(
                    f"radical exponent {vis} below depth bound -{ring.depth} "
                    f"for {ring.radical_names[j]}"
                )


def _finish(ring: Ring, out: dict) -> "Scalar":
    """finish, refusing a term below the depth bound or with a negative
    fiber exponent."""
    x = finish(ring, out)
    _check_bounds(ring, x.coeffs)
    return x


class Scalar:
    """An element of a Ring in normal form.  Immutable once constructed, so
    an operation may return one of its operands."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: dict[Monomial, Coefficient]):
        self.ring = ring
        self.coeffs = coeffs

    # -- basics ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError("scalars from different rings")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ring.constant(other)
        return None

    def __add__(self, other) -> "Scalar":
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
                    out[m] = s if type(s) is int else canonical(s)
                else:
                    del out[m]
        # the normal form is additive and the monomials are the operands'
        # own, so the sum needs no reduction and keeps the bounds
        return Scalar(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs:
            return self
        if not o.coeffs:
            return o
        ring, x, y = self.ring, self.coeffs, o.coeffs
        out: dict[Monomial, Coefficient] = {}
        accumulate_product(ring, out, x, y)
        return finish(ring, out) if _above_floor(ring, x, y) else _finish(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse_monomial() ** (-n)
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse_monomial(self) -> "Scalar":
        """Inverse of a single-term scalar with no fiber part.

        This is the only inversion the ring supports directly; general
        denominators must be declared as radicals (1/p = u^-2).
        """
        if len(self.coeffs) != 1:
            raise RingError("can only invert single-term scalars")
        ((mono, c),) = self.coeffs.items()
        if any(mono[i] for i in range(self.ring.nf)):
            raise RingError("cannot invert a fiber variable")
        inv_mono = tuple(map(neg, mono))
        out: dict[Monomial, Coefficient] = {}
        _accumulate(self.ring, out, inv_mono, inverse(c))
        return _finish(self.ring, out)

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse_monomial()

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str) -> "Scalar":
        return differentiate(self, var)

    # -- substitutions -----------------------------------------------------

    def substitute_square(self, var: str, replacement: "Scalar") -> "Scalar":
        """Rewrite var^2 -> replacement until the exponent of var is <= 1.

        The replacement must not contain var, so this terminates and computes
        the normal form modulo the principal ideal (var^2 - replacement).
        Radical generators whose defining square involves var must be
        substituted away first.
        """
        ring = self.ring
        i = ring.index[var]
        if not ring.is_fiber_index(i):
            raise RingError("substitute_square expects a fiber variable")
        if any(m[i] for m in replacement.coeffs):
            raise RingError("replacement may not involve the substituted variable")
        for j in range(ring.nr):
            if any(pm[i] for pm in ring.radical_squares[j]):
                rslot, dslot = ring.radical_slot(j), ring.denominator_slot(j)
                if any(m[rslot] or m[dslot] for m in self.coeffs):
                    raise RingError(
                        f"substitute the radical {ring.radical_names[j]} "
                        f"before reducing powers of {var}"
                    )
        # the monomials by the power of the replacement they take, each
        # power computed once
        groups: dict[int, dict[Monomial, Coefficient]] = {}
        for mono, c in self.coeffs.items():
            e = mono[i]
            rest = list(mono)
            rest[i] = e % 2
            groups.setdefault(e // 2, {})[tuple(rest)] = c
        out: dict[Monomial, Coefficient] = {}
        power = ring.one
        for n in range(max(groups, default=-1) + 1):
            if n:
                power = power * replacement
            if n in groups:
                multiply_into(out, Scalar(ring, groups[n]), power)
        return finish(ring, out)

    # -- inspection ----------------------------------------------------------

    def constant_term(self) -> Coefficient:
        return self.coeffs.get((0,) * self.ring.width, 0)

    @property
    def is_constant(self) -> bool:
        return all(not any(m) for m in self.coeffs)

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        ring = self.ring
        names = ring.fiber + ring.params + ring.radical_names
        parts: list[str] = []
        for mono in sorted(self.coeffs):
            c = self.coeffs[mono]
            exponents = mono[: ring.nf + ring.np] + tuple(
                mono[r] - 2 * mono[d] for r, d, _ in ring.radical_slots
            )
            body = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exponents)
                if e
            )
            try:
                cs = str(c)
            except ValueError:  # Python prints no integer over its digit limit
                raise RingError(
                    f"a coefficient has more than {sys.get_int_max_str_digits()} "
                    f"digits, the limit for printing an integer"
                ) from None
            neg = cs.startswith("-") and "+" not in cs and cs.count("-") == 1
            if neg:
                cs = cs[1:]
            if body:
                if cs == "1":
                    piece = body
                elif "+" in cs or "-" in cs:
                    piece = f"({cs})*{body}"
                else:
                    piece = f"{cs}*{body}"
            else:
                piece = cs if ("+" not in cs and "-" not in cs) else f"({cs})"
            if not parts:
                parts.append(("-" if neg else "") + piece)
            else:
                parts.append(("-" if neg else "+") + piece)
        return "".join(parts)


def _half_partial(poly: dict, i: int) -> dict:
    """Half the partial derivative of a radical-free polynomial in slot i."""
    out = {}
    for pm, pc in poly.items():
        if pm[i]:
            pl = list(pm)
            pl[i] -= 1
            out[tuple(pl)] = canonical(pc * Fraction(pm[i], 2))
    return out


def _partial_into(
    ring: Ring, out: dict, mono: Monomial, c: Coefficient, i: int
) -> None:
    """out += d(c * mono)/da_i for a normal monomial, unreduced.

    A radical power u^r p^-k, with visible exponent v = r - 2k, goes to
    v * (1/2 dp/da_i) * u^r p^-(k+1), so every monomial added keeps its
    radical exponent 0 or 1 and needs no _accumulate."""
    e = mono[i]
    if e:
        lowered = list(mono)
        lowered[i] = e - 1
        _add_term(out, tuple(lowered), c, e)
    for rslot, dslot, half_dp in ring.radical_partials[i]:
        k = mono[dslot]
        v = mono[rslot] - 2 * k
        if v:
            raised = list(mono)
            raised[dslot] = k + 1
            for pm, pc in half_dp.items():
                _add_term(out, tuple(map(add, raised, pm)), c, v * pc)


def _add_term(out: dict, mono: Monomial, c: Coefficient, f: Coefficient) -> None:
    """out[mono] += c * f, unreduced, without multiplying by 1 or -1: the
    factors of derivatives and constant products mostly are."""
    if f == 1:
        p = c
    elif f == -1:
        p = -c
    else:
        p = c * f
    s = out.get(mono)
    out[mono] = p if s is None else s + p


def _lowest(x: dict, rslot: int, dslot: int) -> int:
    """The lowest visible exponent of one radical over the monomials of x,
    or 0 when none is negative."""
    low = 0
    for m in x:
        if m[dslot] and m[rslot] - 2 * m[dslot] < low:
            low = m[rslot] - 2 * m[dslot]
    return low


def _above_floor(ring: Ring, x: dict, y: dict) -> bool:
    """Whether, for every radical, the lowest visible exponents of two
    normal scalars add up to at least -depth, so that no product of a
    monomial of x and one of y, and no normal form of a sum of them, goes
    below the floor: normalization never goes below the lowest exponent it
    is given."""
    for rslot, dslot, _ in ring.radical_slots:
        # y is normal, so at or above the floor: only a negative exponent
        # of x can take a product below it
        low = _lowest(x, rslot, dslot)
        if low and low + _lowest(y, rslot, dslot) < -ring.depth:
            return False
    return True


def differentiate(x: Scalar, var: str) -> Scalar:
    """Partial derivative with respect to a fiber variable.

    Radicals differentiate through their defining relation,
    d(u^v)/da = (v/2) (dp/da) u^(v-2), v the visible exponent r - 2k.
    """
    ring = x.ring
    if var not in ring.index or not ring.is_fiber_index(ring.index[var]):
        raise RingError(f"{var!r} is not a fiber variable")
    i = ring.index[var]
    out: dict[Monomial, Coefficient] = {}
    for mono, c in x.coeffs.items():
        _partial_into(ring, out, mono, c, i)
    return _finish(ring, out)


def gradient(x: Scalar) -> list[dict]:
    """The partial derivatives of x by every fiber variable, in one pass
    over its monomials, each an unreduced coefficient map for finish.

    A partial lowers a visible radical exponent by at most 2, and
    normalization never goes below the lowest exponent it is given, so
    when every exponent of x stays 2 clear of the depth floor no partial
    can be refused.  Otherwise each partial is taken and normalized on its
    own by differentiate, which refuses one below the floor as it always
    has.
    """
    ring = x.ring
    floor = -ring.depth
    if any(_lowest(x.coeffs, r, d) - 2 < floor for r, d, _ in ring.radical_slots):
        return [differentiate(x, name).coeffs for name in ring.fiber]
    outs: list[dict] = [{} for _ in ring.fiber]
    for mono, c in x.coeffs.items():
        for i, out in enumerate(outs):
            _partial_into(ring, out, mono, c, i)
    return outs


def accumulate_product(
    ring: Ring, out: dict, x: dict, y: dict, sign: int = 1
) -> None:
    """out += sign * x * y on coefficient maps whose monomials are normal
    in their radical slots, left unreduced.  It checks no bound: a caller
    either knows that the product stays above the depth floor and
    normalizes with finish, or checks it with _finish."""
    if len(x) == 1 and len(y) > 1:
        x, y = y, x  # a single term, a constant most often, goes second
    if len(y) == 1:
        ((m2, c2),) = y.items()
        if not any(m2):
            # a constant factor keeps every monomial
            if sign < 0:
                c2 = -c2
            for m, a in x.items():
                _add_term(out, m, a, c2)
            return
    # a radical in both factors is the only way to an exponent of 2
    plain = True
    for rslot, _, _ in ring.radical_slots:
        if any(m[rslot] for m in x) and any(m[rslot] for m in y):
            plain = False
    for m1, c1 in x.items():
        if sign < 0:
            c1 = -c1
        for m2, c2 in y.items():
            m = tuple(map(add, m1, m2))
            if plain:
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
            else:
                _accumulate(ring, out, m, c1 * c2)


def multiply_into(
    out: dict, x: Scalar, y: Scalar, sign: int = 1, scale: Coefficient = 1
) -> None:
    """out += sign * scale * x * y, left unreduced for finish; scale is a
    nonzero canonical coefficient.

    The normal form is additive and the p-adic reduction linear, so a sum
    of products is normalized once, by finish, instead of product by
    product.  A product that could go below the depth floor is formed on
    its own by Scalar.__mul__, which refuses it as it always has.
    """
    ring = x.ring
    a, b = x.coeffs, y.coeffs
    if not _above_floor(ring, a, b):
        a, b = (x * y).coeffs, ring.one.coeffs
    if scale != 1:
        b = {m: c * scale for m, c in b.items()}
    accumulate_product(ring, out, a, b, sign)


def finish(ring: Ring, out: dict) -> Scalar:
    """The normal form of an unreduced sum, such as multiply_into,
    accumulate_product and gradient leave.

    It checks no bound: those kernels add only terms at or above the depth
    floor, and normalization never goes below the lowest exponent it is
    given."""
    out = {m: c if type(c) is int else canonical(c) for m, c in out.items() if c}
    if any(mono[dslot] for _, dslot, _ in ring.radical_slots for mono in out):
        out = _reduce_denominators(ring, out)
        out = {m: c if type(c) is int else canonical(c) for m, c in out.items()}
    return Scalar(ring, out)


_ROOT = object()  # a radical image still to be derived from its square


def _single_term(x: Scalar) -> tuple | None:
    """None for zero, else (coefficient or None for one, ((slot, exponent),
    ...) over the nonzero slots of the monomial)."""
    if len(x.coeffs) > 1:
        raise RingError(f"the image {x} of a ring variable is not a single term")
    for mono, c in x.coeffs.items():
        return None if c == 1 else c, tuple((i, e) for i, e in enumerate(mono) if e)
    return None


class RingMap:
    """The map from source to target given by one image per fiber
    coordinate, parameter and radical: zero, or a coefficient times a
    target monomial.  It is a ring homomorphism when the image of each
    radical squares to the image of its square; setting u = 1 where u^2 is
    the radial square is not one, but followed by reduction modulo aa - 1
    it is the restriction to the unit sphere.

    A normal monomial c * a^alpha * t^gamma * u^delta goes to c times the
    product of the images raised to its exponents, a radical's exponent
    being its visible exponent r - 2k, and the images are re-normalized once
    in the target ring: where u^2 = a1*a2 + a1 restricts to u^2 = a1, the
    normal form a1*u^-2 maps to 1.  A radical given no image goes to the
    nonnegative square root of the image of its square, which must be a
    constant with a root in the coefficient field.  The root is computed on
    first use, so a scalar without that radical never needs it.  A negative
    power of a zero image has no value.
    """

    def __init__(self, source: Ring, target: Ring, images: Mapping[str, object]):
        if any(n not in images for n in source.fiber + source.params):
            raise RingError("a ring map needs images of the fiber and parameters")
        self.source, self.target = source, target
        self.names = source.fiber + source.params + source.radical_names
        self._images = [
            _single_term(target.normalize(images[n])) if n in images else _ROOT
            for n in self.names
        ]
        self._memo: dict[Monomial, tuple | None] = {}
        # variable i of the ring sits in monomial slot i
        self.is_identity = target is source and self._images == [
            (None, ((i, 1),)) for i in range(len(self.names))
        ]

    def _root(self, i: int) -> tuple | None:
        source = self.source
        j = i - source.nf - source.np
        square = self(Scalar(source, source.radical_squares[j]))
        value = square.constant_term() if square.is_constant else square
        root = sqrt(self.target.field, value) if square.is_constant else None
        if root is None:
            raise PointError(
                f"radical {self.names[i]} has no exact value at this point "
                f"(square evaluates to {value})"
            )
        self._images[i] = _single_term(self.target.constant(root))
        return self._images[i]

    def _monomial(self, mono: Monomial) -> tuple | None:
        """(image monomial, coefficient factor or None for one) of a normal
        monomial, None when the image is zero."""
        source, images = self.source, self._images
        exponents = mono[: source.nf + source.np] + tuple(
            mono[r] - 2 * mono[d] for r, d, _ in source.radical_slots
        )
        image = [0] * self.target.width
        factor = None
        vanishes = False
        for i, e in enumerate(exponents):
            if not e:
                continue
            term = images[i] if images[i] is not _ROOT else self._root(i)
            if term is None:
                if e < 0:
                    raise PointError(
                        f"negative power of zero while evaluating {self.names[i]}"
                    )
                vanishes = True
                continue
            if term[0] is not None:
                p = power(term[0], e)
                factor = p if factor is None else factor * p
            for slot, k in term[1]:
                image[slot] += k * e
        return None if vanishes else (tuple(image), factor)

    def __call__(self, x: Scalar) -> Scalar:
        if self.is_identity:
            return x
        if x.ring is not self.source and x.ring != self.source:
            raise RingError("scalar from a different ring")
        # normal monomials recur across scalars: each is mapped once
        memo = self._memo
        out: dict[Monomial, Coefficient] = {}
        for mono, c in x.coeffs.items():
            image = memo.get(mono, _ROOT)
            if image is _ROOT:
                image = memo[mono] = self._monomial(mono)
            if image is not None:
                mono, factor = image
                if factor is not None:
                    c = c * factor
                _accumulate(self.target, out, mono, c)
        return _finish(self.target, out)


class Point(RingMap):
    """Evaluation at exact values of the fiber variables and parameters: the
    ring map into the constants of the same ring, each radical going to the
    nonnegative root of its square's value."""

    def __init__(self, ring: Ring, values: Mapping[str, object]):
        for name in values:
            if name not in ring.fiber + ring.params:
                raise PointError(f"{name!r} is not a fiber variable or parameter")
        missing = [n for n in ring.fiber + ring.params if n not in values]
        if missing:
            raise PointError(f"point is missing values for {missing}")
        super().__init__(
            ring, ring, {n: ring._coefficient(v) for n, v in values.items()}
        )

    def fiber_vector(self) -> list[Coefficient]:
        return [self(self.source.var(n)).constant_term() for n in self.source.fiber]
