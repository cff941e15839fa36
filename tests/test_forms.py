from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform.forms import (
    Form,
    Frame,
    FrameError,
    FrameSpec,
    bidegree_split,
    evaluate_to_vector,
    interior,
    map_form,
    merge_sign,
    point_vector,
    wedge,
    wedge_vectors,
)
from equiform.scalars import Point, PointError, Ring, RingSpec

from form_strategies import ring_forms
from test_numberfield import _assert_canonical_coefficient


def small_frame() -> Frame:
    ring = Ring(RingSpec(field_radicands=(), fiber=("a1", "a2")))
    spec = FrameSpec(
        generators=(
            ("e1", "horizontal"),
            ("e2", "horizontal"),
            ("e3", "horizontal"),
            ("b1", "vertical"),
            ("b2", "vertical"),
        )
    )
    return Frame(ring, spec)


F = small_frame()
E1, E2, E3 = (F.generator(n) for n in ("e1", "e2", "e3"))
B1, B2 = (F.generator(n) for n in ("b1", "b2"))


def test_frame_spec_validation():
    with pytest.raises(FrameError):
        FrameSpec(generators=(("x", "weird"),))
    with pytest.raises(FrameError):
        FrameSpec(generators=(("x", "horizontal"), ("x", "vertical")))


def test_wedge_antisymmetry_on_generators():
    assert wedge(E1, E2) == -wedge(E2, E1)
    assert wedge(E1, E1).is_zero
    assert (E1 * E2 * E3).terms == {0b111: F.ring.one}


def test_wedge_sorting_sign():
    # e2 * e1 = -e12
    x = E2 * E1
    assert x == -(E1 * E2)
    # (e2*e3) * e1 brings e1 past two generators: even sign
    assert (E2 * E3) * E1 == E1 * (E2 * E3)


def test_interior_antiderivation_examples():
    e23 = E2 * E3
    assert interior(F.index["e2"], e23) == E3
    assert interior(F.index["e3"], e23) == -E2
    assert interior(F.index["e1"], e23).is_zero


def test_interior_is_graded_antiderivation():
    i = F.index["e2"]
    x = E1 * E2
    y = E2 * E3 + E1 * E3
    # iota(x ^ y) = iota(x) ^ y + (-1)^deg(x) x ^ iota(y)
    lhs = interior(i, x * y)
    rhs = interior(i, x) * y + x * interior(i, y)
    assert lhs == rhs


def test_interior_squares_to_zero():
    i = F.index["b1"]
    x = E1 * B1 * B2 + E2 * E3 * B1
    assert interior(i, interior(i, x)).is_zero


def test_bidegree_split():
    x = E1 * E2 + E1 * B1 + B1 * B2
    split = bidegree_split(x)
    assert set(split) == {(2, 0), (1, 1), (0, 2)}
    assert split[(2, 0)] == E1 * E2
    assert split[(1, 1)] == E1 * B1
    assert split[(0, 2)] == B1 * B2


def test_scalar_coefficients():
    a1 = F.ring.var("a1")
    x = a1 * E1
    assert (x * x).is_zero
    y = (a1**2) * E2
    assert x * y == a1**3 * (E1 * E2)
    assert (x / 2) * 2 == x


def test_evaluate_form():
    ring = F.ring
    pt = Point(ring, {"a1": 3, "a2": 4})
    x = (ring.var("a1") ** 2 + ring.var("a2") ** 2) * E2
    ev = map_form(x, pt)
    assert ev == 25 * E2
    vec = evaluate_to_vector(x, pt)
    assert vec == {1 << F.index["e2"]: ring.field.rational(25)}


def test_form_rendering():
    x = E1 * E2 - 2 * B1
    s = str(x)
    assert "e1*e2" in s and "b1" in s


@st.composite
def forms(draw):
    ring = F.ring
    nterms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(nterms):
        mask = draw(st.integers(0, (1 << F.size) - 1))
        coeff = {
            (draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(
                st.fractions(min_value=-5, max_value=5, max_denominator=3)
            )
        }
        terms[mask] = ring.normalize(coeff)
    return F.form(terms)


@settings(max_examples=80)
@given(forms(), forms(), forms())
def test_wedge_associative_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=80)
@given(forms(), forms())
def test_wedge_graded_commutativity(x, y):
    for px, fx in bidegree_split(x).items():
        for py, fy in bidegree_split(y).items():
            dx = sum(px)
            dy = sum(py)
            sign = -1 if (dx * dy) % 2 else 1
            assert fx * fy == sign * (fy * fx)


def test_merge_sign_small_cases():
    assert merge_sign(0b001, 0b010) == 1
    assert merge_sign(0b010, 0b001) == -1
    assert merge_sign(0b110, 0b001) == 1  # two transpositions


# -- wedge on point values -------------------------------------------------------


def _points(setup):
    """The origin, the generic point and, over a field with sqrt(3), a point
    with an irrational coordinate: (sqrt3, 1, 0, ...), of radius 2."""
    k = setup.fiber_dim
    points = [setup.point([0] * k), setup.point(setup.generic_point_vector())]
    if 3 in setup.field.radicands:
        points.append(setup.point([setup.field.sqrt_radicand(3), 1] + [0] * (k - 2)))
    return points


@pytest.mark.parametrize("name", ["su2_setup", "su3_setup"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wedge_vectors_is_the_wedge_of_point_values(request, name, data):
    setup = request.getfixturevalue(name)
    x = data.draw(ring_forms(setup.frame))
    y = data.draw(ring_forms(setup.frame))
    for pt in _points(setup):
        try:
            vx, vy = point_vector(map_form(x, pt)), point_vector(map_form(y, pt))
        except PointError:
            continue  # a negative power of a radical that vanishes here
        got = wedge_vectors(vx, vy)
        assert got == point_vector(map_form(wedge(x, y), pt))
        for c in got.values():
            _assert_canonical_coefficient(c)


def test_wedge_vectors_keeps_sums_canonical(su3_setup):
    # at e1^e2, sqrt3 * (sqrt3/2) from e1^e2 meets -(1/2) * 1 from e2^e1:
    # two non-integral values add up to the int 1; sqrt3 * 2sqrt3 is 6
    s3 = su3_setup.field.sqrt_radicand(3)
    half = Fraction(1, 2)
    x = {0b001: s3, 0b010: half}
    y = {0b010: s3 * half, 0b001: 1, 0b100: 2 * s3}
    got = wedge_vectors(x, y)
    assert got == {0b011: 1, 0b101: 6, 0b110: s3}
    for c in got.values():
        _assert_canonical_coefficient(c)
    # e1^e2 + e2^e1 cancels
    assert wedge_vectors({0b01: 1, 0b10: 1}, {0b10: 1, 0b01: 1}) == {}
