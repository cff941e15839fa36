"""The span-based elimination against the dense pivot-loop oracle."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from equiform.homogeneous import (
    _derivation_equations,
    invariant_dimension,
    stabilizer_of_vector,
)
from equiform.linalg import VectorSpan, nullspace_basis, rref
from equiform.numberfield import NumberField

from dense_rref_oracle import matrix_rank as oracle_rank
from dense_rref_oracle import rref as oracle_rref

Q3 = NumberField((3,))
S3 = Q3.sqrt_radicand(3)

small = st.integers(-3, 3).map(Fraction)
elements = st.one_of(
    st.just(Q3.zero),
    st.builds(lambda a, b: Q3.rational(a) + Q3.rational(b) * S3, small, small),
)


@st.composite
def matrices(draw):
    """Matrices with some zero rows and some rows dependent on the others."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(elements, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        combo = [Q3.zero] * ncols
        for r in rows:
            c = draw(elements)
            combo = [x + c * y for x, y in zip(combo, r)]
        rows.append(combo)
    rows += [[Q3.zero] * ncols for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([])
@example([[]])
@example([[Q3.zero, Q3.zero]])
@example([[S3, Q3.one], [Q3.one, S3 / 3]])
def test_rref_matches_dense_oracle(matrix):
    assert rref(Q3, matrix) == oracle_rref(Q3, matrix)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_is_annihilated_and_complements_rank(matrix):
    basis = nullspace_basis(Q3, matrix)
    if matrix:
        assert len(basis) == len(matrix[0]) - oracle_rank(Q3, matrix)
    for vec in basis:
        for row in matrix:
            assert sum((a * b for a, b in zip(row, vec)), Q3.zero).is_zero


def test_combination_requires_tracking():
    span = VectorSpan(Q3)
    span.add({0: Q3.one})
    with pytest.raises(ValueError, match="track=True"):
        span.combination({0: Q3.one})


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
