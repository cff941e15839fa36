"""Ring arithmetic on canonical coefficients against the FieldElement-
coefficient kernels kept in field_coefficient_oracle.py.

Sums, products and partial derivatives must equal the old kernels' results
on the same operands with every coefficient lifted to a FieldElement, and
every result coefficient must be canonical: an int, a Fraction that is not
integral, or a FieldElement with an irrational term.  The rings are both
bundled ones and a Q(sqrt2, sqrt3) ring whose radical square has an
irrational coefficient.  Coefficients are drawn from small rationals and
field elements such as sqrt3, -sqrt3 and 1+sqrt3, and the second operand is
often the first with its irrational parts negated, so that sums and
products whose irrational parts cancel come up on every run.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config
from equiform.numberfield import FieldElement, NumberField
from equiform.scalars import RadicalSpec, Ring, RingError, RingSpec, Scalar

import field_coefficient_oracle as oracle
from test_numberfield import _assert_canonical_coefficient

SU2 = Ring(parse_config(resolve_config("su2_ts2")[1]).ring)
SU3 = Ring(parse_config(resolve_config("su3_tcp2")[1]).ring)
_Q23 = NumberField([2, 3])
# u^2 = k + a1^2 + sqrt3*a2^2 over Q(sqrt2, sqrt3)
Q23 = Ring(
    RingSpec(
        field_radicands=(2, 3),
        fiber=("a1", "a2"),
        params=("k",),
        radicals=(
            RadicalSpec(
                "u",
                (((0, 0, 1), 1), ((2, 0, 0), 1), ((0, 2, 0), _Q23.sqrt_radicand(3))),
            ),
        ),
    )
)
RINGS = {"su2_ts2": SU2, "su3_tcp2": SU3, "q23": Q23}


def _pool(ring: Ring) -> list:
    field = ring.field
    out = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    roots = [field.sqrt_radicand(d) for d in field.radicands]
    for r in roots:
        out += [r, -r, 1 + r, Fraction(1, 2) * r]
    if len(roots) == 2:
        out.append(roots[0] * roots[1])
    return out


@st.composite
def scalars(draw, ring: Ring) -> Scalar:
    """Zero to three terms: fiber exponents up to 2, Laurent exponents in
    [-2, 2] and visible radical exponents in [-3, 2]."""
    pool = _pool(ring)
    raw = {}
    for _ in range(draw(st.integers(0, 3))):
        fiber = tuple(draw(st.integers(0, 2)) for _ in range(ring.nf))
        params = tuple(draw(st.integers(-2, 2)) for _ in range(ring.np))
        radicals = tuple(draw(st.integers(-3, 2)) for _ in range(ring.nr))
        raw[fiber + params + radicals] = draw(st.sampled_from(pool))
    return ring.normalize(raw)


def _conjugate(x: Scalar) -> Scalar:
    """x with the irrational part of every coefficient negated."""
    field = x.ring.field
    return Scalar(
        x.ring,
        {
            m: FieldElement(field, {k: -v if k else v for k, v in c.terms.items()})
            if type(c) is FieldElement
            else c
            for m, c in x.coeffs.items()
        },
    )


@st.composite
def operands(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    x = draw(scalars(ring))
    y = draw(st.one_of(scalars(ring), st.just(_conjugate(x))))
    return x, y


def _same(got: Scalar, want: Scalar) -> None:
    assert got.coeffs == want.coeffs
    for c in got.coeffs.values():
        _assert_canonical_coefficient(c)


@settings(max_examples=150, deadline=None)
@given(operands())
def test_sum_matches_field_coefficient_kernel(case):
    x, y = case
    _same(x + y, oracle.scalar_add(oracle.lift(x), oracle.lift(y)))
    _same(x - y, oracle.scalar_add(oracle.lift(x), oracle.lift(-y)))


@settings(max_examples=150, deadline=None)
@given(operands())
def test_product_matches_field_coefficient_kernel(case):
    x, y = case
    try:
        want = oracle.scalar_mul(oracle.lift(x), oracle.lift(y))
    except RingError:
        # a radical power below the depth bound is refused on every path
        with pytest.raises(RingError):
            x * y
        return
    _same(x * y, want)


@settings(max_examples=100, deadline=None)
@given(operands())
def test_derivative_matches_field_coefficient_kernel(case):
    x, _ = case
    for name in x.ring.fiber:
        try:
            want = oracle.differentiate(oracle.lift(x), name)
        except RingError:
            # d(u^-4) reaches u^-6, below the depth bound
            with pytest.raises(RingError):
                x.differentiate(name)
            continue
        _same(x.differentiate(name), want)


def test_cancelled_irrational_parts_are_rational():
    r3 = _Q23.sqrt_radicand(3)
    a1 = Q23.var("a1")
    (mono,) = a1.coeffs
    # sqrt3 * a1 * sqrt3 and (1+sqrt3)*a1 - sqrt3*a1 + 2*a1 are both 3*a1
    for x in (Q23.constant(r3) * a1 * r3, (1 + r3) * a1 - r3 * a1 + 2 * a1):
        assert x.coeffs == {mono: 3}
        assert type(x.coeffs[mono]) is int
