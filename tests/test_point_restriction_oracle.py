"""Evaluation at a point and restriction to the ray are one ring map.

`scalars.RingMap` is given by the images of the fiber coordinates,
parameters and radicals; `Point` and `Ring.ray_restriction` are two of its
instances.  These tests compare both with the separate kernels they
replaced, kept in point_restriction_oracle.py: images of random scalars
under the restriction, values at random points, and the text of every
`PointError`, on the rings of test_ray_restriction.py whose images must
re-normalize, on the rings where the restriction is the identity, and on
both bundled rings.  They also pin that a radical's root is computed only
when a scalar uses the radical, and then once per point.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiform import scalars
from equiform.scalars import Point, PointError, RadicalSpec, Ring, RingSpec

import point_restriction_oracle as oracle


def _ring(fiber, params, squares):
    """A ring over Q whose radicals u, v, ... square to the given maps from
    (fiber + params) exponents to coefficients."""
    radicals = tuple(
        RadicalSpec(name, tuple((mono, Fraction(c)) for mono, c in sq.items()))
        for name, sq in zip("uvw", squares)
    )
    return Ring(RingSpec((), fiber, params, radicals))


# u^2 = k + a1^2 + a2^2, as on su2_ts2
SHIFTED = _ring(
    ("a1", "a2"), ("k",), [{(0, 0, 1): 1, (2, 0, 0): 1, (0, 2, 0): 1}]
)
# u^2 = a1*a2 + a1: the lead term a1*a2 vanishes on the ray, leaving u^2 = a1
SKEWED = _ring(("a1", "a2"), ("k",), [{(1, 1, 0): 1, (1, 0, 0): 1}])
# v^2 = k + a2^2 restricts to k, which the one-fiber ring refuses
REFUSED = _ring(
    ("a1", "a2"),
    ("k",),
    [{(0, 0, 1): 1, (2, 0, 0): 1, (0, 2, 0): 1}, {(0, 0, 1): 1, (0, 2, 0): 1}],
)
# one fiber coordinate: nothing to restrict
LINE = _ring(("a1",), ("k",), [{(0, 1): 1, (2, 0): 1}])

RINGS = {"shifted": SHIFTED, "skewed": SKEWED, "refused": REFUSED, "line": LINE}
BUNDLED = {"su2_ts2": "su2_setup", "su3_tcp2": "su3_setup"}


@pytest.fixture(scope="session", params=list(RINGS) + list(BUNDLED))
def ring(request):
    if request.param in RINGS:
        return RINGS[request.param]
    return request.getfixturevalue(BUNDLED[request.param]).ring


def _scalars(ring):
    """Sums of up to three monomials within the depth bound."""
    mono = st.tuples(
        *[st.integers(0, 2)] * ring.nf,
        *[st.integers(-1, 1)] * ring.np,
        *[st.integers(-2, 2)] * ring.nr,
    )
    return st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(ring.normalize)


def _values(ring):
    """Small integer values of the fiber coordinates and parameters, zero
    and negative ones included, so that both faults occur."""
    names = ring.fiber + ring.params
    return st.tuples(*[st.integers(-2, 2)] * len(names)).map(
        lambda vs: dict(zip(names, vs))
    )


def _outcome(evaluate, x):
    """The value of x, or the text of the PointError it raises."""
    try:
        value = evaluate(x)
    except PointError as e:
        return "PointError", str(e)
    return "value", value


def test_identity_exactly_where_the_oracle_is_one(ring):
    restrict = ring.ray_restriction
    want = oracle.RayRestriction(ring)
    assert restrict.is_identity == want.is_identity
    assert restrict.target == want.target


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restriction_matches_oracle(ring, data):
    x = data.draw(_scalars(ring))
    restrict = ring.ray_restriction
    want = oracle.RayRestriction(ring)(x)
    got = restrict(x)
    assert got.ring == want.ring
    assert got.coeffs == want.coeffs


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_evaluation_matches_oracle(ring, data):
    # fresh points per scalar, so neither side has a root cached: the
    # first fault met, monomial by monomial and factor by factor, decides
    values = data.draw(_values(ring))
    xs = [data.draw(_scalars(ring)) for _ in range(2)]
    pt, want_pt = Point(ring, values), oracle.Point(ring, values)
    for x in xs:
        got = _outcome(lambda y: pt(y).constant_term(), x)
        want = _outcome(lambda y: oracle.evaluate(y, want_pt), x)
        assert got == want


def test_point_construction_errors_match_oracle(ring):
    names = ring.fiber + ring.params
    for values in (
        {n: 1 for n in names[1:]},
        {**{n: 1 for n in names}, "nope": 1},
        {**{n: 1 for n in names}, ring.radical_names[0]: 1},
    ):
        errors = []
        for make in (Point, oracle.Point):
            with pytest.raises(PointError) as info:
                make(ring, values)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


# -- the radical roots are lazy ------------------------------------------------


def _counting_sqrt(monkeypatch):
    calls = []
    sqrt = scalars.sqrt

    def counting(field, c):
        calls.append(c)
        return sqrt(field, c)

    monkeypatch.setattr(scalars, "sqrt", counting)
    return calls


def test_radical_free_scalars_evaluate_where_a_root_is_missing(monkeypatch):
    # at a = (1, 0) and k = 1, u^2 = 2 has no rational root
    calls = _counting_sqrt(monkeypatch)
    pt = Point(SHIFTED, {"a1": 1, "a2": 0, "k": 1})
    a1, a2, k = (SHIFTED.var(n) for n in ("a1", "a2", "k"))
    assert pt(3 * a1 * a1 + a2 - k ** -1) == 2
    assert calls == []
    with pytest.raises(PointError, match=r"^radical u has no exact value"):
        pt(SHIFTED.var("u") * a2)


def test_each_root_is_computed_once_per_point(monkeypatch):
    # at a = (3, 0) and k = 16: u = 5 and v = 4, and v is never used
    ring = REFUSED
    calls = _counting_sqrt(monkeypatch)
    pt = Point(ring, {"a1": 3, "a2": 0, "k": 16})
    u = ring.var("u")
    for x, value in ((u, 5), (u ** -1, Fraction(1, 5)), (u * ring.var("a1"), 15)):
        assert pt(x) == value
    assert len(calls) == 1
    assert pt(ring.var("v")) == 4
    assert len(calls) == 2
    # a second point computes its own roots
    Point(ring, {"a1": 3, "a2": 0, "k": 16})(u)
    assert len(calls) == 3
