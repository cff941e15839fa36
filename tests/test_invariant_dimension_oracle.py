"""invariant_dimension against the unscaled kernel in
invariant_dimension_oracle.py.

invariant_dimension divides each stabilizer element's lambda-combination
(m_t, m_v) by its first nonzero entry when that entry is irrational, which
leaves the kernel alone.  The two must give the same dimension on every
cell of both bundled setups, at the stabilizers of the origin and of the
generic point, also when those bases are rescaled by sqrt3, 1+sqrt3 or -2/3
and when they are recombined by a random invertible rational matrix.  On
su3_tcp2 the scaling makes every equation row rational.
"""

import random
from fractions import Fraction

import pytest

from equiform import homogeneous
from equiform.homogeneous import (
    invariant_dimension,
    stabilizer_of_vector,
    validate_setup,
)
from equiform.linalg import nullspace_basis
from equiform.numberfield import FieldElement, canonical

import invariant_dimension_oracle as oracle
from conftest import su3_raw, su3_ring_spec


def _cells(setup):
    return [
        (p, q)
        for p in range(setup.horizontal_dim + 1)
        for q in range(setup.fiber_dim + 1)
    ]


def _assert_dimensions_agree(setup, basis, want):
    for cell in _cells(setup):
        got = invariant_dimension(setup, cell, basis)
        assert got == oracle.invariant_dimension(setup, cell, basis) == want[cell], (
            cell
        )


@pytest.fixture(scope="module", params=["su2_setup", "su3_setup"])
def bases(request):
    """(setup, stabilizer basis, the oracle's dimension per cell) at the
    origin and at the generic point."""
    setup = request.getfixturevalue(request.param)
    return [
        (
            setup,
            stab,
            {c: oracle.invariant_dimension(setup, c, stab) for c in _cells(setup)},
        )
        for stab in (
            stabilizer_of_vector(setup, v)
            for v in ([0] * setup.fiber_dim, setup.generic_point_vector())
        )
    ]


def test_dimensions_match_the_oracle(bases):
    for setup, stab, want in bases:
        _assert_dimensions_agree(setup, stab, want)


@pytest.mark.parametrize("scale", ["sqrt3", "1+sqrt3", "-2/3"])
def test_rescaled_stabilizers_keep_their_dimensions(bases, scale):
    for setup, stab, want in bases:
        s3 = setup.field.sqrt_radicand(3) if 3 in setup.field.radicands else None
        factor = {"sqrt3": s3, "1+sqrt3": s3 and 1 + s3, "-2/3": Fraction(-2, 3)}[
            scale
        ]
        if factor is None:
            continue  # su2_ts2 has no sqrt(3)
        scaled = [[canonical(factor * c) for c in v] for v in stab]
        _assert_dimensions_agree(setup, scaled, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_recombined_stabilizers_keep_their_dimensions(bases, seed):
    # small entries: a mixed basis is eliminated on FieldElements, by both
    rng = random.Random(seed)
    entries = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    for setup, stab, want in bases:
        if not stab:
            continue  # nothing to recombine
        n = len(stab)
        matrix = [[0] * n] * n
        while nullspace_basis(matrix):
            matrix = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        mixed = [
            [
                canonical(sum(c * v[j] for c, v in zip(row, stab)))
                for j in range(len(stab[0]))
            ]
            for row in matrix
        ]
        _assert_dimensions_agree(setup, mixed, want)


def test_su3_equation_rows_are_rational(monkeypatch):
    # a fresh setup, whose tables are not cached yet
    setup = validate_setup(*su3_raw()[1:], su3_ring_spec())
    offered = []

    class Counting(homogeneous.VectorSpan):
        def add(self, vec, *args, **kwargs):
            offered.append(vec)
            return super().add(vec, *args, **kwargs)

    monkeypatch.setattr(homogeneous, "VectorSpan", Counting)
    setup.invariant_dimension_tables()
    monkeypatch.undo()
    # the e8 direction carries sqrt(3) in ad|T and rho alike, and the
    # generic stabilizer is -sqrt3*e7 + e8: scaled, every row is rational
    assert len(offered) == 437
    assert not any(type(c) is FieldElement for row in offered for c in row.values())
