"""The span-based elimination against the dense pivot-loop oracle."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from equiform.homogeneous import invariant_dimension, stabilizer_of_vector
from equiform.linalg import VectorSpan, nullspace_basis, rref
from equiform.numberfield import NumberField, canonical

from dense_rref_oracle import matrix_rank as oracle_rank
from dense_rref_oracle import rref as oracle_rref
from invariant_dimension_oracle import _derivation_equations
from test_numberfield import _assert_canonical_coefficient

Q3 = NumberField((3,))
S3 = Q3.sqrt_radicand(3)

small = st.integers(-3, 3)
# canonical coefficients: ints (zero among them), Fractions that are not
# integral, and FieldElements with an irrational term
elements = st.one_of(
    small,
    st.builds(Fraction, small, st.sampled_from([2, 3])).map(canonical),
    st.builds(lambda a, b: a + b * S3, small, st.integers(1, 3)),
)


def _combine(rows, coefficients, ncols):
    out = [0] * ncols
    for c, r in zip(coefficients, rows):
        out = [canonical(x + c * y) for x, y in zip(out, r)]
    return out


@st.composite
def matrices(draw):
    """Matrices with some zero rows and some rows dependent on the others."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(elements, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coefficients = [draw(elements) for _ in rows]
        rows.append(_combine(rows, coefficients, ncols))
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([])
@example([[]])
@example([[0, 0]])
@example([[S3, 1], [1, S3 / 3]])
@example([[Fraction(1, 2), 1], [1, 2]])
def test_rref_matches_dense_oracle(matrix):
    rows, pivots = rref(matrix)
    assert (rows, pivots) == oracle_rref(Q3, matrix)
    for row in rows:
        for c in row:
            if c:
                _assert_canonical_coefficient(c)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_is_annihilated_and_complements_rank(matrix):
    basis = nullspace_basis(matrix)
    if matrix:
        assert len(basis) == len(matrix[0]) - oracle_rank(Q3, matrix)
    for vec in basis:
        for c in vec:
            if c:
                _assert_canonical_coefficient(c)
        for row in matrix:
            assert not sum((a * b for a, b in zip(row, vec)), 0)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_span_rows_and_combinations_are_canonical(matrix, data):
    # rows of the matrix as sparse vectors, added with their index as tag;
    # a combination of them is then found, and its coefficients rebuild it
    ncols = len(matrix[0]) if matrix else 0
    span = VectorSpan(track=True)
    for i, row in enumerate(matrix):
        span.add({j: c for j, c in enumerate(row) if c}, i)
    assert span.rank == (oracle_rank(Q3, matrix) if matrix else 0)
    for _, row, combo in span._rows:
        for c in (*row.values(), *combo.values()):
            _assert_canonical_coefficient(c)
    coefficients = [data.draw(elements) for _ in matrix]
    target = _combine(matrix, coefficients, ncols)
    combo = span.combination({j: c for j, c in enumerate(target) if c})
    assert combo is not None
    for c in combo.values():
        _assert_canonical_coefficient(c)
    rebuilt = _combine([matrix[t] for t in combo], list(combo.values()), ncols)
    assert rebuilt == target


def test_combination_requires_tracking():
    span = VectorSpan()
    span.add({0: 1})
    with pytest.raises(ValueError, match="track=True"):
        span.combination({0: 1})


def _generator(setup, lam, matrix_of):
    """sum_a lam_a * matrix_of(a) over the gauge basis, as nested lists."""
    out = None
    for c, a in zip(lam, setup.splitting.gauge):
        m = [[c * x for x in row] for row in matrix_of(a)]
        out = m if out is None else [
            [x + y for x, y in zip(r, s)] for r, s in zip(out, m)
        ]
    return out


@pytest.mark.parametrize("name", ["su2_setup", "su3_setup"])
def test_invariant_dimension_matches_dense_rank(request, name):
    setup = request.getfixturevalue(name)
    field = setup.field
    nt, nv = setup.horizontal_dim, setup.fiber_dim
    points = ([field.zero] * nv, setup.generic_point_vector())
    for stab in (stabilizer_of_vector(setup, v) for v in points):
        generators = [
            (
                _generator(setup, lam, setup.ad_on_horizontal),
                _generator(setup, lam, setup.rho),
            )
            for lam in stab
        ]
        for p in range(nt + 1):
            for q in range(nv + 1):
                nbasis = comb(nt, p) * comb(nv, q)
                stacked = [
                    [row.get(j, field.zero) for j in range(nbasis)]
                    for m_t, m_v in generators
                    for row in _derivation_equations(m_t, m_v, p, q)
                ]
                expected = nbasis - oracle_rank(field, stacked)
                assert invariant_dimension(setup, (p, q), stab) == expected, (p, q)
