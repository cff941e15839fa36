"""Setup validation, vertical frame, d, contractions, invariant dimensions.

The vertical frame and the fundamental contraction live on the raw extended
frame, which only the oracle in raw_frame_oracle.py builds now.  The gauge
variation lives in gauge_variation_oracle.py.
"""

from fractions import Fraction
from math import comb

import pytest

from equiform import homogeneous
from equiform.forms import bidegree_split, wedge
from equiform.homogeneous import (
    SetupError,
    Splitting,
    exterior_derivative,
    invariant_dimension,
    is_basic,
    is_invariant,
    make_algebra,
    make_representation,
    stabilizer_of_vector,
    validate_setup,
)

from conftest import su2_raw, su2_ring_spec, su3_raw, su3_ring_spec
from gauge_variation_oracle import gauge_variation
from raw_frame_oracle import RawFrame


# -- validation --------------------------------------------------------------


def test_su3_setup_validates(su3_setup):
    assert su3_setup.warnings == []
    assert su3_setup.fiber_dim == 4
    assert su3_setup.horizontal_dim == 4


def test_su2_setup_validates(su2_setup):
    assert su2_setup.warnings == []
    assert su2_setup.fiber_dim == 2


def test_jacobi_violation_names_index():
    field, algebra, splitting, representation = su3_raw()
    bad = [(i, j, k, c) for (i, j, k, c) in algebra.constants]
    # overwrite c^1_23 with -2
    bad = [
        (i, j, k, (-2 * field.one if (i, j, k) == (1, 2, 3) else c))
        for (i, j, k, c) in bad
    ]
    broken = make_algebra(field, 8, bad)
    with pytest.raises(SetupError) as err:
        validate_setup(broken, splitting, representation, su3_ring_spec())
    assert "Jacobi" in str(err.value)
    assert "e^" in str(err.value)


def test_non_subalgebra_splitting_rejected():
    field, algebra, _, _ = su3_raw()
    # gauge part {1, 5, 7, 8} is not closed: [e1, e5] = e4
    splitting = Splitting(horizontal=(2, 3, 4, 6), gauge=(1, 5, 7, 8))
    z = field.zero
    one = field.one
    rho = {a: [[z]] for a in (1, 5, 7, 8)}
    rho = make_representation(field, {a: [[z]] for a in (1, 5, 7, 8)})
    with pytest.raises(SetupError) as err:
        validate_setup(algebra, splitting, rho)
    assert "subalgebra" in str(err.value)


def test_partition_must_cover_all_indices():
    field, algebra, _, representation = su3_raw()
    splitting = Splitting(horizontal=(2, 3, 4), gauge=(1, 6, 7, 8))
    with pytest.raises(SetupError) as err:
        validate_setup(algebra, splitting, representation)
    assert "partition" in str(err.value)


def test_non_skew_representation_rejected():
    field, algebra, splitting, representation = su3_raw()
    z = field.zero
    one = field.one
    s3 = field.sqrt_radicand(3)
    mats = dict(representation.matrices)
    entries = {a: [list(r) for r in mats[a]] for a in (1, 6, 7, 8)}
    entries[1][0][1] = one  # breaks skewness
    broken = make_representation(field, entries)
    with pytest.raises(SetupError) as err:
        validate_setup(algebra, splitting, broken, su3_ring_spec())
    assert "representation not orthogonal" in str(err.value)


def test_non_homomorphism_rejected():
    field, algebra, splitting, representation = su3_raw()
    mats = dict(representation.matrices)
    entries = {a: [list(r) for r in mats[a]] for a in (1, 6, 7, 8)}
    entries[6] = [list(r) for r in mats[7]]  # rho_6 := rho_7
    broken = make_representation(field, entries)
    with pytest.raises(SetupError) as err:
        validate_setup(algebra, splitting, broken, su3_ring_spec())
    assert "homomorphism" in str(err.value)


# -- vertical frame ----------------------------------------------------------


def test_su2_vertical_frame_explicit(su2_setup):
    raw = RawFrame(su2_setup)
    b1, b2 = raw.b_forms()
    frame = raw.frame
    ring = su2_setup.ring
    a1, a2 = ring.var("a1"), ring.var("a2")
    da1, da2 = frame.generator("da1"), frame.generator("da2")
    e3 = frame.generator("e3")
    assert b1 == da1 - a2 * e3
    assert b2 == da2 + a1 * e3


def test_vertical_frame_contraction_vanishes(su3_setup):
    raw = RawFrame(su3_setup)
    for b in raw.b_forms():
        for a in su3_setup.splitting.gauge:
            assert raw.fundamental_contraction(a, b).is_zero


# -- exterior derivative ------------------------------------------------------


def test_structure_derivative_of_gauge_coframe(su3_setup):
    frame = su3_setup.frame
    expected = (
        -wedge(frame.generator("e2"), frame.generator("e3"))
        - wedge(frame.generator("e4"), frame.generator("e5"))
        + 2 * wedge(frame.generator("e6"), frame.generator("e7"))
    )
    assert su3_setup.structure_derivative(1) == expected


def test_d_of_radius_squared(su3_setup):
    ring = su3_setup.ring
    frame = su3_setup.frame
    aa = ring.zero
    for i in range(1, 5):
        aa = aa + ring.var(f"a{i}") * ring.var(f"a{i}")
    expected = frame.zero
    for i in range(1, 5):
        expected = expected + 2 * ring.var(f"a{i}") * frame.generator(f"b{i}")
    d_aa = exterior_derivative(su3_setup, frame.scalar_form(aa))
    assert d_aa == expected
    assert exterior_derivative(su3_setup, d_aa).is_zero


def test_d_of_single_coframe_is_not_basic(su3_setup):
    # d e^2 contains gauge terms, so the derivative must refuse
    with pytest.raises(SetupError) as err:
        exterior_derivative(su3_setup, su3_setup.frame.generator("e2"))
    assert "not basic" in str(err.value)


def test_d_rejects_raw_input(su3_setup):
    with pytest.raises(SetupError):
        exterior_derivative(su3_setup, RawFrame(su3_setup).gen("da1"))


@pytest.mark.parametrize("name", ["b1", "e8"])
def test_d_rejects_non_invariant_input(su3_setup, name):
    # b1 is basic but not invariant, like e2 above; e8 is a gauge generator
    with pytest.raises(SetupError) as err:
        exterior_derivative(su3_setup, su3_setup.frame.generator(name))
    assert "not basic" in str(err.value)


def sigma_ab(setup):
    """The symplectic pairing of the coordinates with the vertical frame."""
    ring = setup.ring
    frame = setup.frame
    a = [ring.var(f"a{i}") for i in range(1, 5)]
    b = [frame.generator(f"b{i}") for i in range(1, 5)]
    return a[0] * b[3] - a[3] * b[0] - a[1] * b[2] + a[2] * b[1]


def test_d_squared_on_invariant_one_form(su3_setup):
    x = sigma_ab(su3_setup)
    assert is_invariant(su3_setup, x)
    dx = exterior_derivative(su3_setup, x)
    assert exterior_derivative(su3_setup, dx).is_zero


def test_d_squared_on_su2(su2_setup):
    ring = su2_setup.ring
    frame = su2_setup.frame
    a1, a2 = ring.var("a1"), ring.var("a2")
    b1, b2 = frame.generator("b1"), frame.generator("b2")
    x = a1 * b1 + a2 * b2
    dx = exterior_derivative(su2_setup, x)
    assert exterior_derivative(su2_setup, dx).is_zero
    y = wedge(b1, b2)
    dy = exterior_derivative(su2_setup, y)
    assert exterior_derivative(su2_setup, dy).is_zero


# -- contraction, basic, invariant -------------------------------------------


def test_fundamental_contraction_examples(su3_setup):
    raw = RawFrame(su3_setup)
    frame = raw.frame
    c = raw.fundamental_contraction(8, frame.generator("e8"))
    assert c == frame.one
    assert raw.fundamental_contraction(8, frame.generator("e2")).is_zero
    for i in range(1, 5):
        assert raw.fundamental_contraction(8, frame.generator(f"b{i}")).is_zero


def test_contraction_is_antiderivation(su3_setup):
    raw = RawFrame(su3_setup)
    frame = raw.frame
    x = wedge(frame.generator("e8"), frame.generator("e2"))
    c = raw.fundamental_contraction(8, x)
    assert c == frame.generator("e2")
    y = wedge(frame.generator("e2"), frame.generator("e8"))
    assert raw.fundamental_contraction(8, y) == -frame.generator("e2")


def test_basic_and_invariant_flags(su3_setup):
    frame = su3_setup.frame
    ring = su3_setup.ring
    b1 = frame.generator("b1")
    assert is_basic(su3_setup, b1)
    assert not is_invariant(su3_setup, b1)
    assert not is_basic(su3_setup, frame.generator("e8"))
    ab = frame.zero
    for i in range(1, 5):
        ab = ab + ring.var(f"a{i}") * frame.generator(f"b{i}")
    assert is_basic(su3_setup, ab)
    assert is_invariant(su3_setup, ab)


def test_gauge_variation_on_vertical_generator(su3_setup):
    frame = su3_setup.frame
    # rho_1 rotates (v1, v2): variation of b1 along e1 is +b2
    v = gauge_variation(su3_setup, 1, frame.generator("b1"))
    assert v == frame.generator("b2")


def test_d_preserves_invariance(su3_setup):
    x = sigma_ab(su3_setup)
    dx = exterior_derivative(su3_setup, x)
    assert is_invariant(su3_setup, dx)


# -- stabilizers ---------------------------------------------------------------


def test_stabilizer_at_origin_is_full_gauge(su3_setup):
    field = su3_setup.field
    z = field.zero
    stab = stabilizer_of_vector(su3_setup, [z, z, z, z])
    assert len(stab) == 4


def test_stabilizer_at_generic_point(su3_setup):
    field = su3_setup.field
    pt = su3_setup.point([1, 0, 0, 0])
    stab = stabilizer_of_vector(su3_setup, pt.fiber_vector())
    assert len(stab) == 1
    # kernel direction: lambda_7 = -sqrt(3) lambda_8, all others zero
    (vec,) = stab
    s3 = field.sqrt_radicand(3)
    lam = dict(zip(su3_setup.splitting.gauge, vec))
    assert not lam[1] and not lam[6]
    assert lam[7] == -s3 * lam[8]
    assert lam[8]


def test_su2_stabilizer_trivial_at_generic_point(su2_setup):
    pt = su2_setup.point([1, 0])
    assert stabilizer_of_vector(su2_setup, pt.fiber_vector()) == []


# -- invariant dimensions -------------------------------------------------------


def full_gauge_basis(setup):
    field = setup.field
    n = len(setup.splitting.gauge)
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def test_invariant_dimension_pinned_cells(su3_setup):
    full = full_gauge_basis(su3_setup)
    assert invariant_dimension(su3_setup, (0, 0), full) == 1
    assert invariant_dimension(su3_setup, (2, 2), full) == 4
    pt = su3_setup.point([1, 0, 0, 0])
    stab = stabilizer_of_vector(su3_setup, pt.fiber_vector())
    assert invariant_dimension(su3_setup, (1, 1), stab) == 6


def test_invariant_dimension_table_full_gauge(su3_setup):
    """Dimensions at the origin, grouped by the symmetry classes {0,4},
    {1,3}, {2} in each slot; the table is constant on each class."""
    full = full_gauge_basis(su3_setup)
    dims = {
        (p, q): invariant_dimension(su3_setup, (p, q), full)
        for p in range(5)
        for q in range(5)
    }
    classes = [(0, 4), (1, 3), (2,)]
    for pc in classes:
        for qc in classes:
            vals = {dims[(p, q)] for p in pc for q in qc}
            assert len(vals) == 1, f"class {pc}x{qc} not constant: {vals}"
    assert sum(dims.values()) == 20
    assert dims[(2, 2)] == 4


def test_invariant_dimension_table_principal_stabilizer(su3_setup):
    pt = su3_setup.point([1, 0, 0, 0])
    stab = stabilizer_of_vector(su3_setup, pt.fiber_vector())
    dims = {
        (p, q): invariant_dimension(su3_setup, (p, q), stab)
        for p in range(5)
        for q in range(5)
    }
    expected_class = {
        (0, 0): 1, (0, 1): 2, (0, 2): 2,
        (1, 0): 2, (1, 1): 6, (1, 2): 8,
        (2, 0): 2, (2, 1): 8, (2, 2): 12,
    }
    classes = {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}
    for p in range(5):
        for q in range(5):
            assert dims[(p, q)] == expected_class[(classes[p], classes[q])], (
                f"cell ({p},{q})"
            )
    assert sum(dims.values()) == 96


@pytest.mark.parametrize("name", ["su3_setup", "su2_setup"])
def test_invariant_dimension_tables_match_direct_grid(request, name):
    setup = request.getfixturevalue(name)
    tables = setup.invariant_dimension_tables()
    assert setup.invariant_dimension_tables() is tables
    z = setup.field.zero
    for vec, grid, stab_dim in (
        ([z] * setup.fiber_dim, tables.origin, tables.stabilizer_dim_origin),
        (setup.generic_point_vector(), tables.generic, tables.stabilizer_dim_generic),
    ):
        stab = stabilizer_of_vector(setup, vec)
        assert stab_dim == len(stab)
        assert grid == tuple(
            tuple(
                invariant_dimension(setup, (p, q), stab)
                for q in range(setup.fiber_dim + 1)
            )
            for p in range(setup.horizontal_dim + 1)
        )


def test_invariant_dimension_stops_at_full_rank(monkeypatch):
    # a fresh setup, whose tables are not cached yet
    setup = validate_setup(*su3_raw()[1:], su3_ring_spec())
    offered = []  # (cell, span rank) per equation row offered
    cell = [None]

    class Counting(homogeneous.VectorSpan):
        def add(self, *args, **kwargs):
            if cell[0] is not None:  # not a span of the stabilizer's pairs
                offered.append((cell[0], self.rank))
            return super().add(*args, **kwargs)

    def tracking(setup, bidegree, stab):
        cell[0] = bidegree
        try:
            return invariant_dimension(setup, bidegree, stab)
        finally:
            cell[0] = None

    monkeypatch.setattr(homogeneous, "VectorSpan", Counting)
    monkeypatch.setattr(homogeneous, "invariant_dimension", tracking)
    tables = setup.invariant_dimension_tables()
    monkeypatch.undo()
    assert tables.origin == (
        (1, 0, 1, 0, 1),
        (0, 2, 0, 2, 0),
        (1, 0, 4, 0, 1),
        (0, 2, 0, 2, 0),
        (1, 0, 1, 0, 1),
    )
    assert tables.generic == (
        (1, 2, 2, 2, 1),
        (2, 6, 8, 6, 2),
        (2, 8, 12, 8, 2),
        (2, 6, 8, 6, 2),
        (1, 2, 2, 2, 1),
    )
    # no row is offered to a span of full rank C(4,p)*C(4,q); offering
    # every nonzero row of every generator takes 432, 112 of them late
    assert all(rank < comb(4, p) * comb(4, q) for (p, q), rank in offered)
    assert len(offered) == 320


def _su2_with_constants(triples):
    field, _, splitting, representation = su2_raw()
    algebra = make_algebra(field, 3, triples)
    return validate_setup(algebra, splitting, representation, su2_ring_spec())


ORTHONORMAL = [(1, 2, 3, -1), (2, 1, 3, 1), (3, 1, 2, -1)]
# so(3) over the two-sphere with the horizontal e1 doubled: the basis is not
# orthonormal for the invariant metric, so ad(e3)|T is not skew
RESCALED = [(1, 2, 3, Fraction(-1, 2)), (2, 1, 3, 2), (3, 1, 2, -2)]
# e3 dilates T = <e1, e2>: Lambda^0 T is invariant and Lambda^2 T is not, so
# the horizontal mirror would be wrong
DILATING = [(1, 1, 3, -1), (2, 2, 3, -1)]


@pytest.mark.parametrize(
    "triples, ranked",
    [(ORTHONORMAL, 4), (RESCALED, 6), (DILATING, 6)],
    ids=["orthonormal", "rescaled", "dilating"],
)
def test_dimension_tables_rank_one_cell_per_duality_class(
    monkeypatch, triples, ranked
):
    # ranked cells per grid: the fiber mirror always applies, the
    # horizontal one only when every ad(e_a)|T is skew
    setup = _su2_with_constants(triples)
    calls = []

    def counting(setup, bidegree, stab):
        calls.append(bidegree)
        return invariant_dimension(setup, bidegree, stab)

    monkeypatch.setattr(homogeneous, "invariant_dimension", counting)
    tables = setup.invariant_dimension_tables()
    assert len(calls) == 2 * ranked
    monkeypatch.undo()
    z = setup.field.zero
    for vec, grid in (
        ([z] * setup.fiber_dim, tables.origin),
        (setup.generic_point_vector(), tables.generic),
    ):
        stab = stabilizer_of_vector(setup, vec)
        assert grid == tuple(
            tuple(invariant_dimension(setup, (p, q), stab) for q in range(3))
            for p in range(3)
        )
    if triples is DILATING:
        assert tables.origin[0][0] == 1 and tables.origin[2][0] == 0
