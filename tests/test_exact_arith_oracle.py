"""The zero, single-term and constant fast paths of `FieldElement` and
`Scalar` arithmetic against the general loops they bypass, kept in
exact_arith_oracle.py.

Field elements live in Q(sqrt2, sqrt3); scalars in the ring of the bundled
su3_tcp2 config (fiber a1..a4, Laurent parameters B and C, the radial radical
s with s^2 = |a|^2 and depth 4).  Every sum and constant scaling is also
checked to be its own normal form, which is what lets those paths skip
`_finish`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config
from equiform.numberfield import NumberField
from equiform.scalars import RadicalSpec, Ring, RingError, RingSpec, _finish

import exact_arith_oracle as oracle

Q23 = NumberField([2, 3])
SU3 = Ring(parse_config(resolve_config("su3_tcp2")[1]).ring)

nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).filter(bool)


@st.composite
def q23_elements(draw):
    """Zero, a single term, or two to four terms of Q(sqrt2, sqrt3)."""
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 4]))
    masks = draw(st.permutations(range(4)))[:size]
    return Q23.element({m: draw(nonzero_rationals) for m in masks})


def _same_field(x, y):
    assert x.field == y.field
    assert x.terms == y.terms


@settings(max_examples=150, deadline=None)
@given(q23_elements(), q23_elements())
def test_field_kernels_match_oracle(x, y):
    _same_field(x + y, oracle.field_add(x, y))
    _same_field(x * y, oracle.field_mul(x, y))
    _same_field(x - y, oracle.field_add(x, -y))
    for n in (0, 1, -3):
        _same_field(x + n, oracle.field_add(x, n))
        _same_field(n * x, oracle.field_mul(x, n))


@settings(max_examples=40, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_single_field_terms_sharing_a_radical(c1, c2):
    # every pair of masks, so sqrt6*sqrt2 = 2*sqrt3 and the like are covered
    for m1, m2 in itertools.product(range(4), repeat=2):
        x, y = Q23.element({m1: c1}), Q23.element({m2: c2})
        _same_field(x * y, oracle.field_mul(x, y))


def test_zero_operands_are_returned():
    x = Q23.element({0: 1, 3: Fraction(-2, 5)})
    assert x + Q23.zero is x
    assert (Q23.zero * x).is_zero and (x * Q23.zero).is_zero


# -- scalars of the su3_tcp2 ring --------------------------------------------

field_constants = st.builds(
    lambda q, r: SU3.field.element({0: q, 1: r}),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
).filter(bool)


@st.composite
def su3_scalars(draw):
    """Zero, a constant, or one to three normalized terms with fiber
    exponents up to 2, Laurent exponents of B and C in [-3, 3] and visible
    powers of s down to -depth."""
    kind = draw(st.sampled_from(["zero", "constant", "terms", "terms"]))
    if kind == "zero":
        return SU3.zero
    if kind == "constant":
        return SU3.constant(draw(field_constants))
    raw = {}
    for _ in range(draw(st.integers(1, 3))):
        fiber = tuple(draw(st.integers(0, 2)) for _ in range(SU3.nf))
        params = tuple(draw(st.integers(-3, 3)) for _ in range(SU3.np))
        s = draw(st.integers(-SU3.depth, 2))
        raw[fiber + params + (s,)] = draw(field_constants)
    return SU3.normalize(raw)


def _is_normal(r):
    assert _finish(r.ring, dict(r.coeffs)).coeffs == r.coeffs


@settings(max_examples=60, deadline=None)
@given(su3_scalars(), su3_scalars())
def test_scalar_sum_matches_oracle_and_is_normal(x, y):
    for r, expected in (
        (x + y, oracle.scalar_add(x, y)),
        (x - y, oracle.scalar_add(x, -y)),
    ):
        assert r.coeffs == expected.coeffs
        _is_normal(r)


@settings(max_examples=60, deadline=None)
@given(su3_scalars(), su3_scalars())
def test_scalar_product_matches_oracle(x, y):
    try:
        expected = oracle.scalar_mul(x, y)
    except RingError:
        # a power of s below the depth bound is refused on every path
        with pytest.raises(RingError):
            x * y
        return
    r = x * y
    assert r.coeffs == expected.coeffs
    if x.is_constant or y.is_constant:
        _is_normal(r)


@settings(max_examples=30, deadline=None)
@given(su3_scalars(), field_constants)
def test_constant_scaling_matches_oracle_and_is_normal(x, c):
    k = SU3.constant(c)
    for r, expected in (
        (x * k, oracle.scalar_mul(x, k)),
        (k * x, oracle.scalar_mul(k, x)),
        (x * 3, oracle.scalar_mul(x, 3)),
    ):
        assert r.coeffs == expected.coeffs
        _is_normal(r)


def test_sum_without_additive_normal_form_is_renormalized():
    # u^2 = a*t + a: the leading monomial a*t carries the parameter t, so
    # which monomials are p-adic remainders depends on the Laurent window and
    # the plain sum of these two normal forms is not itself normal.
    ring = Ring(
        RingSpec(
            field_radicands=(),
            fiber=("a",),
            params=("t",),
            radicals=(RadicalSpec("u", (((1, 1), 1), ((1, 0), 1))),),
        )
    )
    assert not ring.additive_normal_form
    assert SU3.additive_normal_form
    a, t, u = ring.var("a"), ring.var("t"), ring.var("u")
    x, y = a**2 * t**-6, u**-2 + a * u**-1
    merged = dict(x.coeffs)
    merged.update(y.coeffs)
    assert (x + y).coeffs != merged
    assert (x + y).coeffs == oracle.scalar_add(x, y).coeffs
