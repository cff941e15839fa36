"""The span systems of express_in_generators are solved on the ray a = t*e1.

Restriction to the ray is a ring homomorphism into a ring with the one
fiber coordinate a1 (Ring.ray_restriction, a scalars.RingMap).  These tests
pin that it is one, that it re-normalizes its images and that evaluation on
the ray factors through it, and then check the solve on the ray against the
full-fiber kernel in unfiltered_express_oracle.py, term for term: on the
bundled configs, on a ring whose radical square k+a1*a1 is not invariant,
and on a ring whose extra radical square k+a2*a2 restricts to a square the
one-fiber ring refuses, so the restriction is the identity.  On the same
rings, a column is composed from syllables without translating a word: the
ray image of an entry, or of a product of two (on su2_ts2, three)
entries, is the restricted prefix of their syllables wedged with the
restricted last one, and an entry's weight is the sum of its syllables'.
"""

import json
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import (
    EngineError,
    _dilation_weigher,
    _single_weight,
    express_in_generators,
    generate_dictionary,
)
from equiform.expressions import parse_form_expression
from equiform.forms import map_form, wedge
from equiform.homogeneous import exterior_derivative
from equiform.scalars import Point, RadicalSpec, Ring, RingSpec

import unfiltered_express_oracle as oracle


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


# -- the map --------------------------------------------------------------------


def test_restriction_targets_the_one_fiber_ring(su3_setup, su2_setup):
    restrict = su3_setup.ring.ray_restriction
    assert restrict is su3_setup.ring.ray_restriction
    target = restrict.target
    assert target.fiber == ("a1",) and target.radical_names == ("s",)
    assert target.radical_squares == [{(2, 0, 0): 1}]
    assert restrict(su3_setup.ring.var("s") ** -3) == target.var("s") ** -3
    assert restrict(su3_setup.ring.var("a2")).is_zero
    target = su2_setup.ring.ray_restriction.target
    assert (target.fiber, target.params) == (("a1",), ("k",))
    assert target.radical_squares == [{(0, 1, 0, 0): 1, (2, 0, 0, 0): 1}]


def test_refused_square_falls_back_to_the_identity():
    # v^2 = k + a2^2 restricts to k, which has no fiber coordinate
    ring = _ring(
        ("a1", "a2"),
        ("k",),
        [{(0, 0, 1): 1, (2, 0, 0): 1, (0, 2, 0): 1}, {(0, 0, 1): 1, (0, 2, 0): 1}],
    )
    restrict = ring.ray_restriction
    assert restrict.is_identity and restrict.target is ring
    x = ring.var("a2") * ring.var("v") ** -1
    assert restrict(x) is x


def test_images_are_renormalized():
    # a1/u^2 is a normal form of SKEWED, but on the ray u^2 = a1, so its
    # image is 1: a projection of the monomial would not be a normal form
    restrict = SKEWED.ray_restriction
    x = SKEWED.var("a1") * SKEWED.var("u") ** -2
    assert x.coeffs == {(1, 0, 0, 0, 1): 1}
    assert restrict(x) == restrict.target.one


def _scalars(ring):
    """Sums of up to three monomials within the depth bound."""
    nf = ring.nf
    mono = st.tuples(
        *[st.integers(0, 2)] * nf,
        *[st.integers(-1, 1)] * ring.np,
        *[st.integers(-2, 2)] * ring.nr,
    )
    return st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(ring.normalize)


@pytest.mark.parametrize("ring", [SHIFTED, SKEWED], ids=["shifted", "skewed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restriction_is_a_ring_homomorphism(ring, data):
    x = data.draw(_scalars(ring))
    y = data.draw(_scalars(ring))
    restrict = ring.ray_restriction
    assert restrict(x + y) == restrict(x) + restrict(y)
    assert restrict(x * y) == restrict(x) * restrict(y)
    assert restrict(ring.one) == restrict.target.one


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluation_on_the_ray_factors_through_the_restriction(data):
    # at a = (3, 0) and k = 16 the radical is u = 5 on both sides
    x = data.draw(_scalars(SHIFTED))
    restrict = SHIFTED.ray_restriction
    on_ray = Point(SHIFTED, {"a1": 3, "a2": 0, "k": 16})
    on_line = Point(restrict.target, {"a1": 3, "k": 16})
    assert on_ray(x).constant_term() == on_line(restrict(x)).constant_term()


# -- the solve, against the full-fiber kernel ----------------------------------


def _realize(name, squares=()):
    """A bundled config, with its first radical square replaced and extra
    radicals added when given."""
    doc = json.loads(resolve_config(name)[1])
    if squares:
        radicals = doc["ring"]["radicals"]
        radicals[0]["square"] = squares[0]
        radicals.extend({"name": n, "square": sq} for n, sq in squares[1:])
    return realize_config(parse_config(json.dumps(doc)))


def _assert_matches_oracle(setup, dictionary, target, **kwargs):
    got = express_in_generators(setup, dictionary, target, **kwargs)
    want = oracle.express_in_generators(setup, dictionary, target, **kwargs)
    assert (got.terms, got.residual, got.failed_cells) == (
        want.terms,
        want.residual,
        want.failed_cells,
    )
    return got


def _row_targets(rc, max_degree):
    dictionary = rc.dictionary()
    sources = [dictionary.radial.translation]
    sources.extend(
        e.translation
        for e in dictionary.entries
        if 1 <= e.word.degree <= max_degree
    )
    return [exterior_derivative(rc.setup, x) for x in sources]


VARIANTS = {
    "su2_ts2": (),
    "u=k+a1*a1": ("k+a1*a1",),
    "v=k+a2*a2": ("k+aa", ("v", "k+a2*a2")),
}


@pytest.fixture(scope="module", params=list(VARIANTS))
def su2_variant(request):
    return request.param, _realize("su2_ts2", VARIANTS[request.param])


def test_variants_restrict_as_declared(su2_variant):
    name, rc = su2_variant
    restrict = rc.setup.ring.ray_restriction
    assert restrict.is_identity == (name == "v=k+a2*a2")


def _assert_columns_are_composed(rc, factors):
    # a fresh dictionary, none of whose kept words is translated yet
    fresh = generate_dictionary(
        rc.setup, list(rc.letters.values()), list(rc.contractions.values())
    )
    entries = fresh.entries
    translated = set(fresh.alphabet._translations)
    weights = fresh._entry_weights()
    # products of up to `factors` entries of positive length within the fiber
    tags = [(i,) for i in range(len(entries))]
    positive = [i for i, e in enumerate(entries) if e.word.length]
    for r in range(2, factors + 1):
        for tag in combinations_with_replacement(positive, r):
            if sum(entries[i].bidegree[1] for i in tag) <= rc.setup.fiber_dim:
                tags.append(tag)
    images = {tag: fresh._ray_product(tag) for tag in tags}
    assert set(fresh.alphabet._translations) == translated
    weigh = _dilation_weigher(rc.setup)
    restrict = rc.setup.ring.ray_restriction
    for tag, image in images.items():
        product = reduce(wedge, (entries[i].translation for i in tag))
        assert image == map_form(product, restrict), tag
    for e, weight in zip(entries, weights):
        assert weight == _single_weight(weigh, e.translation), e.word.render()


def test_su2_variant_columns_are_composed_from_syllables(su2_variant):
    _assert_columns_are_composed(su2_variant[1], 3)


def test_su3_columns_are_composed_from_syllables():
    _assert_columns_are_composed(_realize("su3_tcp2"), 2)


def test_su2_variant_rows_match_oracle(su2_variant):
    _, rc = su2_variant
    dictionary = rc.dictionary()
    for target in _row_targets(rc, 2):
        _assert_matches_oracle(rc.setup, dictionary, target)
        _assert_matches_oracle(
            rc.setup, dictionary, target, degree_bounds=(16, -4)
        )
        _assert_matches_oracle(
            rc.setup, dictionary, target, degree_bounds=(0, 0)
        )
        _assert_matches_oracle(rc.setup, dictionary, target, allow_triples=True)


# the first form of su2_ts2's hyperkahler triple; forms carrying u, whose
# square k+aa is inhomogeneous, are left residual: no radial power supplies u
TRIPLE = "1/2*(k+aa)^(1/2)*det(beta,beta)-1/2*(k+aa)^(-1/2)*det(b,b)"
# per variant: (invariant forms, basic forms that are not invariant)
TARGETS = {
    "su2_ts2": (
        ["d(det(b,b))", "aa*det(a,b)", "u*det(b,b)", TRIPLE],
        ["a1*dot(a,b)"],
    ),
    "u=k+a1*a1": (
        ["d(det(b,b))", "aa*det(a,b)"],
        ["a1*dot(a,b)", "u*det(b,b)", "u*dot(b,beta)"],
    ),
    "v=k+a2*a2": (
        ["d(det(b,b))", "aa*det(a,b)", "u*det(b,b)", TRIPLE],
        ["a1*dot(a,b)", "v*det(b,b)"],
    ),
}


REFUSAL = "^target is not an invariant basic form$"


def test_su2_variant_forms_match_oracle(su2_variant):
    name, rc = su2_variant
    residual = []
    for text in TARGETS[name][0]:
        target = parse_form_expression(text, rc.context)
        got = _assert_matches_oracle(rc.setup, rc.dictionary(), target)
        residual.append(got.residual)
    assert residual[:2] == [False, False]
    assert all(residual[2:])


def test_su2_variant_refuses_non_invariant_targets(su2_variant):
    name, rc = su2_variant
    for text in TARGETS[name][1]:
        target = parse_form_expression(text, rc.context)
        for solve in (express_in_generators, oracle.express_in_generators):
            with pytest.raises(EngineError, match=REFUSAL):
                solve(rc.setup, rc.dictionary(), target)


@pytest.mark.parametrize("name", ["su2_ts2", "su3_tcp2"])
def test_bundled_express_tasks_match_oracle(name):
    rc = _realize(name)
    tasks = [t for t in rc.document.tasks if t.kind == "express"]
    assert tasks
    for task in tasks:
        target = parse_form_expression(task.expression, rc.context)
        kwargs = {"allow_triples": task.allow_triples}
        if task.laurent_bounds is not None:
            kwargs["degree_bounds"] = task.laurent_bounds
        got = _assert_matches_oracle(rc.setup, rc.dictionary(), target, **kwargs)
        assert not got.residual
