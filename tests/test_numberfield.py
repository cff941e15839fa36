from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiform import cli, verify
from equiform.config import parse_config, realize_config
from equiform.homogeneous import stabilizer_of_vector
from equiform.linalg import VectorSpan
from equiform.numberfield import (
    FieldElement,
    NumberField,
    _squarefree_split,
    canonical,
    coefficient,
    inverse,
    power,
    sqrt,
)
from equiform.scalars import Scalar

Q3 = NumberField([3])
Q23 = NumberField([2, 3])


def s3() -> FieldElement:
    return Q3.sqrt_radicand(3)


def test_squarefree_split():
    assert _squarefree_split(1) == (1, 1)
    assert _squarefree_split(12) == (2, 3)
    assert _squarefree_split(49) == (7, 1)
    assert _squarefree_split(360) == (6, 10)


def test_radicand_validation():
    with pytest.raises(ValueError):
        NumberField([4])
    with pytest.raises(ValueError):
        NumberField([1])
    with pytest.raises(ValueError):
        NumberField([3, 3])


def test_sqrt3_squares_to_3():
    assert s3() * s3() == Q3.rational(3)


def test_conjugate_product():
    one = Q3.one
    assert (one + s3()) * (one - s3()) == Q3.rational(-2)


def test_inverse():
    x = Q3.rational(2) + s3()
    assert x * x.inverse() == Q3.one
    y = Q23.sqrt_radicand(2) + Q23.sqrt_radicand(3) + 1
    assert y * y.inverse() == Q23.one


@pytest.mark.parametrize(
    "x, other, equal",
    [
        (Q3.zero, 0, True),
        (Q3.zero, 1, False),
        (Q3.one, 1, True),
        (Q3.one, -1, False),
        (-Q3.one, -1, True),
        (Q3.rational(Fraction(1, 2)), Fraction(1, 2), True),
        (Q3.rational(2), Fraction(2), True),
        (Q3.rational(Fraction(1, 2)), Fraction(-1, 2), False),
        (Q3.rational(Fraction(3, 4)), Q3.rational(Fraction(3, 4)), True),
        (s3(), s3(), True),
        (s3(), 0, False),
        (s3(), 1, False),
        (s3() + 1, 1, False),
        (s3() * s3(), 3, True),
        (s3(), Q3.one, False),
    ],
)
def test_equality_with_rationals(x, other, equal):
    """A FieldElement equals an int or Fraction exactly when it is that
    rational, and equals another element exactly when their terms agree."""
    assert (x == other) is equal
    assert (other == x) is equal
    assert (x != other) is (not equal)


def test_mixed_radical_product():
    r2 = Q23.sqrt_radicand(2)
    r3 = Q23.sqrt_radicand(3)
    r6 = r2 * r3
    assert r6 * r6 == Q23.rational(6)
    assert str(r6) == "sqrt6"


def test_sign_and_order():
    assert (s3() - 1).sign() == 1
    assert (s3() - 2).sign() == -1
    assert Q3.zero.sign() == 0
    # 1351/780 is a convergent of sqrt(3); the difference is tiny but nonzero
    close = Q3.rational(Fraction(1351, 780)) - s3()
    assert close.sign() == 1
    assert s3() < 2
    assert 1 < s3()


def test_sqrt_of_rational():
    assert Q3.sqrt_of_rational(Fraction(9, 4)) == Q3.rational(Fraction(3, 2))
    assert Q3.sqrt_of_rational(3) == s3()
    assert Q3.sqrt_of_rational(12) == 2 * s3()
    assert Q3.sqrt_of_rational(2) is None
    assert Q23.sqrt_of_rational(6) == Q23.sqrt_radicand(2) * Q23.sqrt_radicand(3)
    assert Q3.sqrt_of_rational(Fraction(3, 4)) == s3() / 2
    assert Q3.sqrt_of_rational(Fraction(1, 3)) == s3() / 3


def test_sqrt_element():
    # (1 + sqrt3)^2 = 4 + 2 sqrt3
    x = Q3.rational(4) + 2 * s3()
    r = x.sqrt()
    assert r is not None
    assert r * r == x
    assert r.sign() > 0
    assert (Q3.rational(2)).sqrt() is None
    assert (-Q3.one).sqrt() is None
    assert Q3.rational(Fraction(25, 16)).sqrt() == Q3.rational(Fraction(5, 4))


def test_str():
    assert str(Q3.zero) == "0"
    assert str(Q3.rational(Fraction(-2, 3))) == "-2/3"
    assert str(1 - s3()) == "1-sqrt3"
    assert str(-2 * s3()) == "-2*sqrt3"
    assert str(Fraction(1, 2) * s3() + 5) == "5+1/2*sqrt3"


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


@st.composite
def q23_elements(draw):
    terms = {m: draw(rationals) for m in range(4)}
    return Q23.element(terms)


@given(q23_elements(), q23_elements(), q23_elements())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a * (b * c) == (a * b) * c
    assert a + (-a) == Q23.zero


@given(q23_elements())
def test_inverse_roundtrip(x):
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == Q23.one


@given(q23_elements())
def test_sign_consistent_with_interval(x):
    s = x.sign()
    lo, hi = x._interval(20)
    assert lo <= hi
    if lo > 0:
        assert s == 1
    if hi < 0:
        assert s == -1
    assert (s == 0) == x.is_zero


# -- the canonical coefficient -------------------------------------------------


def _assert_canonical(x: FieldElement) -> None:
    """Every coefficient is an int, or a Fraction that is not integral."""
    for c in x.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


# small denominators, so that sums and products often come out integral
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def sparse_q23_elements(draw):
    masks = draw(st.permutations(range(4)))[: draw(st.integers(0, 4))]
    return Q23.element({m: draw(small_rationals) for m in masks})


@settings(max_examples=150, deadline=None)
@given(sparse_q23_elements(), sparse_q23_elements(), st.integers(-3, 3))
def test_coefficients_stay_canonical(x, y, n):
    results = [x + y, x - y, x * y, x + 1, 2 * x, x * Fraction(1, 2), x * x]
    if x:
        inv = x.inverse()
        assert x * inv == 1
        results += [inv, x**n, y / x]
    elif n >= 0:
        results.append(x**n)
    square = x * x
    root = square.sqrt()
    if root is not None:
        assert root * root == square
        results.append(root)
    for r in results:
        _assert_canonical(r)
    if x.is_rational:
        assert type(x.as_rational()) is Fraction


def test_integral_fraction_and_int_are_one_element():
    a, b = Q23.element({0: Fraction(2)}), Q23.element({0: 2})
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2"
    _assert_canonical(a)
    assert Q23.rational(Fraction(1, 2)) + Fraction(1, 2) == Q23.one
    _assert_canonical(Q23.rational(Fraction(1, 2)) + Fraction(1, 2))


def _assert_canonical_coefficient(c) -> None:
    """A ring coefficient is an int, a Fraction that is not integral, or a
    FieldElement with an irrational term: never a float, and never a
    FieldElement of rational value."""
    if type(c) is FieldElement:
        assert any(c.terms), c  # a term with a nonzero mask
        _assert_canonical(c)
    else:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def _assert_form_canonical(x) -> None:
    for scalar in x.terms.values():
        for c in scalar.coeffs.values():
            _assert_canonical_coefficient(c)


@settings(max_examples=150, deadline=None)
@given(sparse_q23_elements(), st.integers(-3, 3))
def test_coefficient_operations_stay_canonical(x, n):
    c = canonical(x)
    assert c == x
    _assert_canonical_coefficient(c)
    assert coefficient(Q23, x) == c and type(coefficient(Q23, x)) is type(c)
    if c:
        inv = inverse(c)
        _assert_canonical_coefficient(inv)
        assert canonical(inv * c) == 1
        p = power(c, n)
        _assert_canonical_coefficient(p)
        assert p == x**n
    root = sqrt(Q23, canonical(x * x))
    if root is not None:
        _assert_canonical_coefficient(root)
        assert canonical(root * root) == canonical(x * x)


def test_coefficient_coercion():
    assert type(coefficient(Q3, Fraction(4, 2))) is int
    assert coefficient(Q3, Q3.rational(Fraction(1, 2))) == Fraction(1, 2)
    assert coefficient(Q3, s3()) == s3()
    with pytest.raises(ValueError, match="different field"):
        coefficient(Q23, s3())
    assert inverse(-2) == Fraction(-1, 2) and type(inverse(Fraction(1, 3))) is int
    assert power(2, -2) == Fraction(1, 4) and power(s3(), 2) == 3
    assert type(power(s3(), 2)) is int
    assert sqrt(Q3, 12) == 2 * s3() and sqrt(Q3, Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt(Q3, 2) is None and sqrt(Q3, -1) is None and sqrt(Q3, 0) == 0
    assert sqrt(Q3, 4 + 2 * s3()) == 1 + s3()


def test_d_table_coefficients_are_canonical(monkeypatch):
    # every scalar built during a run of each bundled config, and in it every
    # d_table row, dictionary translation and verify residual; every row and
    # combination of a span; and the stabilizer bases, structure constants,
    # rho entries and contraction entries of each realized config
    built = []  # kept alive, so that their ids stay distinct
    init = Scalar.__init__

    def checked_init(self, ring, coeffs):
        for c in coeffs.values():
            _assert_canonical_coefficient(c)
        built.append(self)
        init(self, ring, coeffs)

    tables, dictionaries, residuals = [], [], []

    def recording_table(*args, **kwargs):
        tables.append(cli_differential_table(*args, **kwargs))
        return tables[-1]

    def recording_dictionary(*args):
        dictionaries.append(cli_dictionary_for(*args))
        return dictionaries[-1]

    def recording_settle(setup, name, check, residual, on_sphere):
        residuals.append(residual)
        return verify_settle(setup, name, check, residual, on_sphere)

    spans = []
    span_add, span_combination = VectorSpan.add, VectorSpan.combination

    def recording_add(self, vec, tag=None):
        spans.append(self)
        return span_add(self, vec, tag)

    def checked_combination(self, vec):
        combo = span_combination(self, vec)
        for c in (combo or {}).values():
            _assert_canonical_coefficient(c)
        return combo

    cli_differential_table = cli.differential_table
    cli_dictionary_for = cli._dictionary_for
    verify_settle = verify._settle
    monkeypatch.setattr(Scalar, "__init__", checked_init)
    monkeypatch.setattr(VectorSpan, "add", recording_add)
    monkeypatch.setattr(VectorSpan, "combination", checked_combination)
    monkeypatch.setattr(cli, "differential_table", recording_table)
    monkeypatch.setattr(cli, "_dictionary_for", recording_dictionary)
    monkeypatch.setattr(verify, "_settle", recording_settle)
    realized = []
    for name in ("su2_ts2", "su3_tcp2"):
        config = parse_config(cli.resolve_config(name)[1])
        rc = realize_config(config)
        cli.run_config(rc, name, list(config.tasks), cli.Overrides())
        realized.append(rc)
    assert len(tables) == 2 and residuals and dictionaries
    assert len(spans) > 100
    for span in {id(s): s for s in spans}.values():
        for _, row, combo in span._rows:
            for c in (*row.values(), *(combo or {}).values()):
                _assert_canonical_coefficient(c)
    for rc in realized:
        setup = rc.setup
        values = [c for *_, c in setup.algebra.constants]
        for _, m in setup.representation.matrices:
            values += [c for row in m for c in row]
        for contraction in rc.contractions.values():
            values += [c for _, c in contraction.entries]
        for vec in ([0] * setup.fiber_dim, setup.generic_point_vector()):
            values += [c for lam in stabilizer_of_vector(setup, vec) for c in lam]
        values += setup.generic_point_vector()
        assert values
        for c in values:
            _assert_canonical_coefficient(c)
    for rows in tables:
        assert rows
        for row in rows:
            for term in row.differential.terms:
                for c in term.coefficient.coeffs.values():
                    _assert_canonical_coefficient(c)
    for dictionary in dictionaries:
        for entry in dictionary.entries:
            _assert_form_canonical(entry.translation)
    for residual in residuals:
        _assert_form_canonical(residual)
    # the scalars recorded above, each word's finished sum among them, were
    # all built through the checked constructor
    recorded = [
        term.coefficient
        for rows in tables
        for row in rows
        for term in row.differential.terms
    ]
    recorded += [
        c
        for form in [e.translation for d in dictionaries for e in d.entries] + residuals
        for c in form.terms.values()
    ]
    checked = {id(s) for s in built}
    assert len(recorded) > 1000
    assert all(id(s) in checked for s in recorded)
