from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform.numberfield import NumberField
from equiform.scalars import (
    Point,
    PointError,
    RadicalSpec,
    Ring,
    RingError,
    RingMap,
    RingSpec,
    differentiate,
)


def radial_ring(nfiber: int = 4, radicands=(3,), radical_square=None) -> Ring:
    """Ring with fiber a1..an and a radical s with s^2 = sum a_i^2 (default)."""
    fiber = tuple(f"a{i}" for i in range(1, nfiber + 1))
    if radical_square is None:
        radical_square = []
        for i in range(nfiber):
            mono = [0] * nfiber
            mono[i] = 2
            radical_square.append((tuple(mono), 1))
    spec = RingSpec(
        field_radicands=tuple(radicands),
        fiber=fiber,
        radicals=(RadicalSpec(name="s", square=tuple(radical_square)),),
    )
    return Ring(spec)


def shifted_ring() -> Ring:
    # u^2 = k + a1^2 + a2^2 with one parameter k
    spec = RingSpec(
        field_radicands=(),
        fiber=("a1", "a2"),
        params=("k",),
        radicals=(
            RadicalSpec(
                name="u",
                square=(((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 1), 1)),
            ),
        ),
    )
    return Ring(spec)


def test_radical_square_reduces():
    ring = radial_ring(2)
    s = ring.var("s")
    aa = ring.var("a1") ** 2 + ring.var("a2") ** 2
    assert s * s == aa
    assert s**3 == aa * s


def test_duplicate_names_rejected():
    with pytest.raises(RingError):
        Ring(RingSpec(field_radicands=(), fiber=("a", "a")))


def test_radicals_squaring_to():
    aa = (((2, 0), 1), ((0, 2), 1))
    spec = RingSpec(
        field_radicands=(),
        fiber=("a1", "a2"),
        radicals=(
            RadicalSpec(name="s", square=aa),
            RadicalSpec(name="t", square=(((2, 0), 1),)),
            RadicalSpec(name="r", square=aa),
        ),
    )
    ring = Ring(spec)
    assert ring.radial_square == ring.var("a1") ** 2 + ring.var("a2") ** 2
    assert ring.radicals_squaring_to(ring.radial_square) == ("s", "r")
    assert ring.radicals_squaring_to(ring.var("a1") ** 2) == ("t",)
    assert ring.radicals_squaring_to(ring.one) == ()


def test_differentiate_radical():
    # du/da1 = a1/u when u^2 = k + a1^2 + a2^2
    ring = shifted_ring()
    u = ring.var("u")
    du = differentiate(u, "a1")
    assert du == ring.var("a1") * u ** (-1)
    # and the defining relation stays consistent: d(u^2) = 2 u du = d(p)
    p = ring.var("k") + ring.var("a1") ** 2 + ring.var("a2") ** 2
    assert 2 * u * du == differentiate(p, "a1")


def test_differentiate_polynomial():
    ring = radial_ring(2)
    a1, a2 = ring.var("a1"), ring.var("a2")
    x = 3 * a1**2 * a2 + a2
    assert differentiate(x, "a1") == 6 * a1 * a2
    assert differentiate(x, "a2") == 3 * a1**2 + 1
    with pytest.raises(RingError):
        differentiate(x, "s")


def test_param_laurent_exponents():
    ring = shifted_ring()
    k = ring.var("k")
    x = k ** (-2) * ring.var("a1")
    assert x * k**2 == ring.var("a1")
    with pytest.raises(RingError):
        ring.var("a1") ** (-1)


def test_inverse_monomial_restrictions():
    ring = shifted_ring()
    with pytest.raises(RingError):
        (ring.var("a1") + 1).inverse_monomial()
    u = ring.var("u")
    assert u ** (-1) * u == ring.one
    with pytest.raises(RingError):
        ring.var("a1").inverse_monomial()


def test_radical_depth_bound():
    ring = radial_ring(2)
    s = ring.var("s")
    s ** (-4)  # at the default bound, fine
    with pytest.raises(RingError):
        s ** (-5)


def test_evaluate_radical_nonnegative_branch():
    ring = radial_ring(4)
    pt = Point(ring, {"a1": 1, "a2": 0, "a3": 0, "a4": 0})
    s = ring.var("s")
    assert pt(s) == ring.field.one
    pt2 = Point(ring, {"a1": 3, "a2": 4, "a3": 0, "a4": 0})
    assert pt2(s) == ring.field.rational(5)
    assert pt2(s ** (-1)) == ring.field.rational(Fraction(1, 5))


def test_evaluate_field_constant():
    ring = radial_ring(4)
    pt = Point(ring, {"a1": 2, "a2": 0, "a3": 0, "a4": 0})
    x = ring.sqrt_constant(3) * ring.var("a1")
    assert pt(x) == 2 * ring.field.sqrt_radicand(3)


def test_evaluate_radical_without_exact_root():
    ring = radial_ring(4)
    pt = Point(ring, {"a1": 1, "a2": 1, "a3": 0, "a4": 0})
    with pytest.raises(PointError):
        pt(ring.var("s"))


def test_evaluate_missing_value():
    ring = radial_ring(2)
    with pytest.raises(PointError):
        Point(ring, {"a1": 1})


def test_point_rejects_radical_assignment():
    ring = radial_ring(2)
    with pytest.raises(PointError):
        Point(ring, {"a1": 1, "a2": 0, "s": 1})


def test_substitute_square():
    # reduction mod (a.a - 1): a2^2 -> 1 - a1^2
    ring = radial_ring(2)
    a1, a2 = ring.var("a1"), ring.var("a2")
    aa = a1**2 + a2**2
    reduced = (aa - 1).substitute_square("a2", 1 - a1**2)
    assert reduced.is_zero
    x = a2**3
    assert x.substitute_square("a2", 1 - a1**2) == a2 * (1 - a1**2)


def test_substitute_radical_value():
    # the ring map s -> 1 that fixes the fiber, as sphere_reduce uses it:
    # every visible power of s in a normal form, negative ones too, goes to 1
    ring = radial_ring(2)
    s, a1, a2 = ring.var("s"), ring.var("a1"), ring.var("a2")
    radial_to_one = RingMap(ring, ring, {"a1": a1, "a2": a2, "s": ring.one})
    assert not radial_to_one.is_identity
    x = s + s ** (-1) + a1
    assert radial_to_one(x) == 2 + a1
    assert radial_to_one(a2 * s ** (-3)) == a2


def test_normalize():
    ring = radial_ring(2)
    assert ring.normalize(5) == ring.constant(5)
    assert ring.normalize({(0, 0, 2): 1}) == ring.var("a1") ** 2 + ring.var("a2") ** 2
    with pytest.raises(RingError):
        ring.normalize("nonsense")


def test_str_rendering():
    ring = shifted_ring()
    du = differentiate(ring.var("u"), "a1")
    assert str(du) == "a1*u^-1"
    x = 2 * ring.var("a1") * ring.var("k") ** (-2) - 1
    assert str(x) == "-1+2*a1*k^-2"
    assert str(ring.zero) == "0"


def test_normal_form_is_canonical_with_denominators():
    ring = radial_ring(2)
    s = ring.var("s")
    aa = ring.var("a1") ** 2 + ring.var("a2") ** 2
    assert (s * s) * s ** (-1) == s
    assert aa * s ** (-2) == ring.one
    assert aa * s ** (-1) == s
    assert (s ** (-1) + s) * s == aa + 1
    # d(1/s) = -a1/s^3 and multiplying back by s^3 recovers -a1
    d = differentiate(s ** (-1), "a1")
    assert d * s**3 == -ring.var("a1")


@st.composite
def poly_scalars(draw, ring):
    n = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(ring.nf)) + (
            draw(st.integers(-1, 1)),
        )
        coeffs[mono] = draw(st.fractions(min_value=-9, max_value=9, max_denominator=6))
    return ring.normalize(coeffs)


RING2 = radial_ring(2)


@settings(max_examples=60)
@given(poly_scalars(RING2), poly_scalars(RING2), poly_scalars(RING2))
def test_scalar_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60)
@given(poly_scalars(RING2), poly_scalars(RING2))
def test_leibniz_rule_for_differentiate(x, y):
    d = lambda t: differentiate(t, "a1")
    assert d(x * y) == d(x) * y + x * d(y)


@settings(max_examples=40)
@given(poly_scalars(RING2))
def test_evaluate_is_ring_hom(x):
    pt = Point(RING2, {"a1": 3, "a2": 4})
    y = RING2.var("a1") + 1
    assert pt(x * y) == pt(x) * pt(y)
    assert pt(x + y) == pt(x) + pt(y)
