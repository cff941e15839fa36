"""`FieldElement` and `Scalar` arithmetic against the earlier kernels kept
in exact_arith_oracle.py: the field sum, product and inverse with Fraction
coefficients, and scalar sums and products through the general loops and
the earlier monomial bookkeeping.

Field elements live in Q(sqrt2, sqrt3); scalars in the ring of the bundled
su3_tcp2 config (fiber a1..a4, Laurent parameters B and C, the radial radical
s with s^2 = |a|^2 and depth 4).  Every sum and constant scaling is also
checked to be its own normal form under the earlier `_finish`, which is what
lets those paths skip it.

Division by a radical square treats parameters as units.  On the bundled
rings it must give the quotients and remainders of the old division that
shifted Laurent exponents into a window.  Denominator reduction skips a
radical when every term over a power of its square is already a remainder;
on the bundled rings and on two more it must return what the full lift and
peel returns, and normalizing a raw map with any radical exponents must
give the product of powers of the variables.  A Ring refuses squares without a
single leading fiber term, and in the u^2 = k*aa ring, whose leading term
carries the parameter, products associate and distribute and sums stay
normal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config
from equiform.numberfield import NumberField
from equiform.scalars import (
    RadicalSpec,
    Ring,
    RingError,
    RingSpec,
    _exact_divide,
    _reduce_denominators,
)

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


@settings(max_examples=100, deadline=None)
@given(q23_elements())
def test_field_inverse_matches_oracle(x):
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    _same_field(x.inverse(), oracle.field_inverse(x))


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
    assert oracle._finish(r.ring, dict(r.coeffs)).coeffs == r.coeffs


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


SU2 = Ring(parse_config(resolve_config("su2_ts2")[1]).ring)


@st.composite
def radical_square_division(draw):
    """A bundled ring, one of its radical squares and a numerator of one to
    four internal monomials: fiber exponents up to 4, Laurent exponents in
    [-3, 3], radical slot 0 or 1 and no denominator."""
    ring = draw(st.sampled_from([SU2, SU3]))
    num = {}
    for _ in range(draw(st.integers(1, 4))):
        fiber = tuple(draw(st.integers(0, 4)) for _ in range(ring.nf))
        params = tuple(draw(st.integers(-3, 3)) for _ in range(ring.np))
        radical = (draw(st.integers(0, 1)),)
        num[fiber + params + radical + (0,)] = ring.field.rational(
            draw(nonzero_rationals)
        )
    return ring, num


@settings(max_examples=80, deadline=None)
@given(radical_square_division())
def test_exact_divide_matches_shifted_oracle(case):
    # the bundled squares k+aa and aa lead with a parameter-free monomial,
    # so making parameters units changes no quotient and no remainder
    ring, num = case
    (sq,) = ring.radical_squares
    q_r = _exact_divide(ring, num, sq)
    assert q_r == oracle.shifted_exact_divide(ring, num, sq)
    assert q_r == oracle._exact_divide(ring, num, sq)


def _one_radical_ring(square, fiber=("a1", "a2")):
    return Ring(
        RingSpec(
            field_radicands=(),
            fiber=fiber,
            params=("k",),
            radicals=(RadicalSpec("u", square),),
        )
    )


# u^2 = k + a1^2 + a2^2, as on su2_ts2, and u^2 = a1*a2 + a1
SHIFTED = _one_radical_ring((((0, 0, 1), 1), ((2, 0, 0), 1), ((0, 2, 0), 1)))
SKEWED = _one_radical_ring((((1, 1, 0), 1), ((1, 0, 0), 1)))


@st.composite
def denominated_terms(draw):
    """A ring with one radical and one to four internal monomials as
    _accumulate leaves them: fiber exponents up to 3, Laurent exponents in
    [-2, 2], radical slot 0 or 1 and denominator exponent 0 to 3."""
    ring = draw(st.sampled_from([SU2, SU3, SHIFTED, SKEWED]))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        fiber = tuple(draw(st.integers(0, 3)) for _ in range(ring.nf))
        params = tuple(draw(st.integers(-2, 2)) for _ in range(ring.np))
        radical = (draw(st.integers(0, 1)), draw(st.integers(0, 3)))
        terms[fiber + params + radical] = ring.field.rational(draw(nonzero_rationals))
    return ring, terms


@settings(max_examples=120, deadline=None)
@given(denominated_terms())
def test_denominator_reduction_matches_the_full_lift_and_peel(case):
    # terms over a power of the square that are already remainders are
    # returned as they are, without lifting and peeling
    ring, terms = case
    got = _reduce_denominators(ring, dict(terms))
    assert got == oracle._reduce_denominators(ring, dict(terms))
    (lead,) = ring.radical_leads
    dslot = ring.denominator_slot(0)
    if not any(
        m[dslot] and all(e >= l for e, l in zip(m, lead)) for m in terms
    ):
        assert got == terms


@st.composite
def external_maps(draw):
    """A one-radical ring and a raw map of one to three external monomials:
    fiber exponents up to 2, Laurent exponents in [-2, 2] and radical
    exponents in [-depth, 8], so u^2 -> p, a negative u power and an
    expanded power of p all occur."""
    ring = draw(st.sampled_from([SU2, SHIFTED, SKEWED]))
    raw = {}
    for _ in range(draw(st.integers(1, 3))):
        fiber = tuple(draw(st.integers(0, 2)) for _ in range(ring.nf))
        params = tuple(draw(st.integers(-2, 2)) for _ in range(ring.np))
        radical = (draw(st.integers(-ring.depth, 8)),)
        raw[fiber + params + radical] = draw(nonzero_rationals)
    return ring, raw


@settings(max_examples=100, deadline=None)
@given(external_maps())
def test_normalize_folds_radical_exponents_as_powers(case):
    # Ring.normalize hands each exponent to _accumulate unsplit; the result
    # must be the sum of the terms built as products of powers of variables
    ring, raw = case
    names = ring.fiber + ring.params + ring.radical_names
    expected = ring.zero
    for mono, c in raw.items():
        term = ring.constant(c)
        for name, e in zip(names, mono):
            term = term * ring.var(name) ** e
        expected = expected + term
    assert ring.normalize(raw) == expected


@pytest.mark.parametrize(
    "square, fiber",
    [
        # u^2 = a*k + a: two terms share the leading fiber part a
        ((((1, 1), 1), ((1, 0), 1)), ("a",)),
        # u^2 = k + 1 and u^2 = k: the leading fiber part is 1
        ((((0, 0, 1), 1), ((0, 0, 0), 1)), ("a1", "a2")),
        ((((0, 0, 1), 1),), ("a1", "a2")),
    ],
    ids=["a*k+a", "k+1", "k"],
)
def test_square_without_a_single_fiber_leading_term_is_refused(square, fiber):
    with pytest.raises(RingError, match="needs exactly one term with the lex-largest"):
        _one_radical_ring(square, fiber=fiber)


# u^2 = k*(a1^2 + a2^2): the leading monomial carries the parameter k
KAA = _one_radical_ring((((2, 0, 1), 1), ((0, 2, 1), 1)))


def test_parameter_times_radial_square_is_associative():
    k, u = KAA.var("k"), KAA.var("u")
    assert (k**-1 * u**-1) * u == k**-1 * (u**-1 * u) == k**-1
    assert u**-2 * (k * u**2) == (u**-2 * k) * u**2 == k


@st.composite
def kaa_scalars(draw):
    """One or two terms of the u^2 = k*aa ring: fiber exponents up to 2,
    Laurent exponents of k in [-2, 2] and visible powers of u in [-2, 2]."""
    raw = {}
    for _ in range(draw(st.integers(1, 2))):
        fiber = tuple(draw(st.integers(0, 2)) for _ in range(KAA.nf))
        raw[fiber + (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))] = draw(
            nonzero_rationals
        )
    return KAA.normalize(raw)


@settings(max_examples=40, deadline=None)
@given(kaa_scalars(), kaa_scalars(), kaa_scalars())
def test_parameter_led_square_ring_laws(x, y, z):
    # three factors of u^-2 reach u^-6, below the depth bound 4; such draws
    # are refused on every path and skipped
    try:
        left, right = (x * y) * z, x * (y * z)
        spread = x * (y + z)
    except RingError:
        return
    assert left == right
    assert spread == x * y + x * z
    for r in (x + y, spread):
        _is_normal(r)
