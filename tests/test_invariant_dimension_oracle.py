"""invariant_dimension against the per-cell kernel in
invariant_dimension_oracle.py.

invariant_dimension builds each stabilizer's action once: the pairs
(m_t, m_v) of its elements, split into rational parts where the span
allows, cut to Lie generators, and each generator's derivation on every
wedge power of T and of V.  The two must give the same dimension on every
cell of both bundled setups, at the stabilizers of the origin and of the
generic point, also when those bases are rescaled by sqrt3, 1+sqrt3 or
-2/3, recombined by a random invertible rational matrix, or padded with a
bracket of two of their elements or with a duplicate.  On su3_tcp2 every
equation row is rational.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from equiform import homogeneous
from equiform.homogeneous import (
    StabilizerAction,
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
    """Every cell from one action, as the tables rank them, and from the
    basis itself, against the oracle; returns the action."""
    action = StabilizerAction(setup, basis)
    for cell in _cells(setup):
        got = invariant_dimension(setup, cell, action)
        assert got == invariant_dimension(setup, cell, basis), cell
        assert got == oracle.invariant_dimension(setup, cell, basis) == want[cell], (
            cell
        )
    return action


def _is_rational(action):
    return not any(
        type(x) is FieldElement for pair in action.generators for x in pair.values()
    )


def _gauge_bracket(setup, lam, mu):
    """[sum lam_a e_a, sum mu_b e_b] over the gauge basis, with
    [e_a, e_b] = -sum_g c^g_ab e_g."""
    gauge = setup.splitting.gauge
    return [
        canonical(
            -sum(
                x * y * setup.c_signed(g, a, b)
                for x, a in zip(lam, gauge)
                for y, b in zip(mu, gauge)
            )
        )
        for g in gauge
    ]


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
    setup = bases[0][0]
    tables = setup.invariant_dimension_tables()
    for (_, stab, want), grid in zip(bases, (tables.origin, tables.generic)):
        _assert_dimensions_agree(setup, stab, want)
        assert grid == tuple(
            tuple(want[p, q] for q in range(setup.fiber_dim + 1))
            for p in range(setup.horizontal_dim + 1)
        )


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
        assert _is_rational(_assert_dimensions_agree(setup, scaled, want))


@pytest.mark.parametrize("seed", [0, 1])
def test_recombined_stabilizers_keep_their_dimensions(bases, seed):
    # the oracle eliminates a mixed basis on FieldElements; the rational
    # parts of each recombined element lie in the span, so the kernel
    # eliminates on rationals
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
        assert _is_rational(_assert_dimensions_agree(setup, mixed, want))


@pytest.mark.parametrize("pad", ["bracket", "duplicate"])
def test_padded_stabilizers_keep_their_generators(bases, pad):
    for setup, stab, want in bases:
        if not stab:
            continue
        if pad == "duplicate":
            extra = stab[0]
        else:
            extra = next(
                (
                    b
                    for lam, mu in combinations(stab, 2)
                    if any(b := _gauge_bracket(setup, lam, mu))
                ),
                [0] * len(stab[0]),
            )
        action = _assert_dimensions_agree(setup, stab + [extra], want)
        assert len(action.generators) == len(StabilizerAction(setup, stab).generators)


def test_padding_brackets_are_nonzero_on_su3(su3_setup):
    # so that the bracket case above pads with a new element somewhere
    stab = stabilizer_of_vector(su3_setup, [0] * su3_setup.fiber_dim)
    assert any(any(_gauge_bracket(su3_setup, x, y)) for x, y in combinations(stab, 2))


def _pair(setup, lam):
    """The lambda-combinations of ad|T and of rho, keyed (side, i, j)."""
    out = {}
    for c, a in zip(lam, setup.splitting.gauge):
        for side, m in enumerate((setup.ad_on_horizontal(a), setup.rho(a))):
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    out[side, i, j] = canonical(out.get((side, i, j), 0) + c * x)
    return {key: x for key, x in out.items() if x}


@pytest.mark.parametrize("name", ["su2_setup", "su3_setup"])
def test_bracket_of_pairs_is_the_pair_of_the_bracket(request, name):
    # ad|T and rho are representations of the gauge algebra, so the
    # commutator of two pairs is the pair of the gauge bracket
    setup = request.getfixturevalue(name)
    n = len(setup.splitting.gauge)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    for lam, mu in combinations(units, 2):
        want = _pair(setup, _gauge_bracket(setup, lam, mu))
        got = homogeneous._bracket(_pair(setup, lam), _pair(setup, mu))
        assert got == want, (lam, mu)


def test_su3_origin_keeps_three_generators(su3_setup):
    origin = stabilizer_of_vector(su3_setup, [0] * su3_setup.fiber_dim)
    generic = stabilizer_of_vector(su3_setup, su3_setup.generic_point_vector())
    assert len(origin) == 4 and len(generic) == 1
    assert len(StabilizerAction(su3_setup, origin).generators) == 3
    assert len(StabilizerAction(su3_setup, generic).generators) == 1


def test_a_pair_outside_the_span_stays_whole(su3_setup):
    # e7 + e8 alone: its rational part e7 and its sqrt3 part are not in the
    # span of the one pair, so the pair is kept and ranked on FieldElements
    basis = [[0, 0, 1, 1]]
    assert su3_setup.splitting.gauge == (1, 6, 7, 8)
    action = StabilizerAction(su3_setup, basis)
    assert len(action.generators) == 1 and not _is_rational(action)
    for cell in _cells(su3_setup):
        assert invariant_dimension(
            su3_setup, cell, action
        ) == oracle.invariant_dimension(su3_setup, cell, basis), cell


def test_su3_equation_rows_are_rational(monkeypatch):
    # a fresh setup, whose tables are not cached yet
    setup = validate_setup(*su3_raw()[1:], su3_ring_spec())
    offered = []
    ranking = [False]  # only rows offered while a cell is ranked

    class Counting(homogeneous.VectorSpan):
        def add(self, vec, *args, **kwargs):
            if ranking[0]:
                offered.append(vec)
            return super().add(vec, *args, **kwargs)

    def tracking(*args):
        ranking[0] = True
        try:
            return invariant_dimension(*args)
        finally:
            ranking[0] = False

    monkeypatch.setattr(homogeneous, "VectorSpan", Counting)
    monkeypatch.setattr(homogeneous, "invariant_dimension", tracking)
    setup.invariant_dimension_tables()
    monkeypatch.undo()
    # the e8 direction carries sqrt(3) in ad|T and rho alike, and the
    # generic stabilizer is -sqrt3*e7 + e8: split into rational parts,
    # every row is rational
    assert len(offered) == 320
    assert not any(type(c) is FieldElement for row in offered for c in row.values())
