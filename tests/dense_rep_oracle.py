"""`validate_setup` as it was before the Jacobi and homomorphism checks were
read off the setup's own derivative images, kept as an independent oracle.

Jacobi is d(d e^i) = 0 over the structure 2-forms alone, and rho is checked
to be a homomorphism with dense matrix products: [rho_a, rho_b] against
-sum_g c^g_ab rho_g.  Both functions raise SetupError with the same issue
texts in the same order.
"""

from __future__ import annotations

from dataclasses import replace

from equiform.forms import Frame, FrameSpec
from equiform.homogeneous import (
    HomogeneousSetup,
    LieAlgebraData,
    Representation,
    SetupError,
    Splitting,
    _is_skew,
)
from equiform.numberfield import NumberField
from equiform.scalars import Ring, RingSpec

from field_lift import as_field_element
from per_product_oracle import _derivation

# -- small exact matrix helpers ----------------------------------------------


def _mat_mul(field, m1, m2):
    n = len(m1)
    p = len(m2[0])
    return tuple(
        tuple(
            sum((m1[i][t] * m2[t][j] for t in range(len(m2))), field.zero)
            for j in range(p)
        )
        for i in range(n)
    )


def _mat_sub(m1, m2):
    return tuple(
        tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
    )


def _mat_scale(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def _mat_add(m1, m2):
    return tuple(
        tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
    )


def _mat_is_zero(m) -> bool:
    return all(x.is_zero for row in m for x in row)



def dense_validate_setup(
    algebra: LieAlgebraData,
    splitting: Splitting,
    representation: Representation,
    ring_spec: RingSpec | None = None,
) -> HomogeneousSetup:
    """Check every structural axiom and assemble the setup.

    The ring spec, when given, must either leave the fiber empty (it is
    filled with a1..ak) or declare exactly the fiber the representation acts
    on.  Raises SetupError listing all violated axioms.
    """
    # the canonical coefficients, lifted to FieldElements at entry
    lifted = algebra.field
    algebra = replace(
        algebra,
        constants=tuple(
            (i, j, kk, as_field_element(lifted, c)) for i, j, kk, c in algebra.constants
        ),
    )
    representation = Representation(
        tuple(
            (a, tuple(tuple(as_field_element(lifted, c) for c in row) for row in m))
            for a, m in representation.matrices
        )
    )
    issues: list[str] = []
    n = algebra.dimension
    # splitting partitions 1..n
    declared = sorted(splitting.horizontal + splitting.gauge)
    if declared != list(range(1, n + 1)):
        issues.append(
            f"splitting must partition 1..{n}, got T={splitting.horizontal} "
            f"and gauge={splitting.gauge}"
        )
        raise SetupError(issues)
    k = representation.fiber_dimension
    rep_indices = tuple(idx for idx, _ in representation.matrices)
    if sorted(rep_indices) != sorted(splitting.gauge):
        issues.append(
            f"representation matrices must cover the gauge indices "
            f"{splitting.gauge}, got {rep_indices}"
        )
        raise SetupError(issues)

    # coefficient ring
    fiber = tuple(f"a{i}" for i in range(1, k + 1))
    if ring_spec is None:
        # reuse the field the constants live in
        field0 = algebra.constants[0][3].field if algebra.constants else NumberField()
        ring_spec = RingSpec(field_radicands=field0.radicands, fiber=fiber)
    elif not ring_spec.fiber:
        ring_spec = RingSpec(
            field_radicands=ring_spec.field_radicands,
            fiber=fiber,
            params=ring_spec.params,
            radicals=ring_spec.radicals,
            radical_depth=ring_spec.radical_depth,
        )
    elif tuple(ring_spec.fiber) != fiber:
        issues.append(
            f"ring fiber variables must be {fiber} to match the representation"
        )
        raise SetupError(issues)
    ring = Ring(ring_spec)
    field = ring.field

    # coerce/validate constant entries against the ring's field
    for i, j, kk, c in algebra.constants:
        if c.field != field:
            issues.append("structure constants must live in the declared field")
            raise SetupError(issues)

    # frame: horizontal, vertical, gauge
    gens = [(f"e{i}", "horizontal") for i in splitting.horizontal]
    gens += [(f"b{i}", "vertical") for i in range(1, k + 1)]
    gens += [(f"e{i}", "gauge") for i in splitting.gauge]
    frame = Frame(ring, FrameSpec(generators=tuple(gens)))
    setup = HomogeneousSetup(algebra, splitting, representation, ring, frame)

    # Jacobi: d(d e^i) = 0 with d e^i from the constants
    struct = {i: setup.structure_derivative(i) for i in range(1, n + 1)}
    images = {setup._pos_e[i]: struct[i] for i in range(1, n + 1)}
    for i in range(1, n + 1):
        if not _derivation(struct[i], lambda c: None, images).is_zero:
            issues.append(f"Jacobi identity fails: d(d e^{i}) != 0")

    # gauge part closed under bracket; reductivity
    for a in splitting.gauge:
        for b in splitting.gauge:
            if a >= b:
                continue
            for t in splitting.horizontal:
                if setup.c_signed(t, a, b):
                    issues.append(
                        f"gauge indices are not a subalgebra: "
                        f"[e{a}, e{b}] has a horizontal component e{t}"
                    )
    for a in splitting.gauge:
        for t in splitting.horizontal:
            for g in splitting.gauge:
                if setup.c_signed(g, a, t):
                    issues.append(
                        f"splitting is not reductive: [e{a}, e{t}] has a "
                        f"gauge component e{g}"
                    )

    # representation checks
    for a in splitting.gauge:
        m = representation.matrix(a)
        if len(m) != k or any(len(row) != k for row in m):
            issues.append(f"representation matrix for e{a} is not {k}x{k}")
            raise SetupError(issues)
        if not _is_skew(m):
            issues.append(f"representation not orthogonal: rho(e{a}) is not skew")
    for a in splitting.gauge:
        for b in splitting.gauge:
            if a >= b:
                continue
            ma, mb = representation.matrix(a), representation.matrix(b)
            comm = _mat_sub(_mat_mul(field, ma, mb), _mat_mul(field, mb, ma))
            # [e_a, e_b] = -sum_g c^g_ab e_g
            expect = _mat_scale(field.zero, ma)
            for g in splitting.gauge:
                c = setup.c_signed(g, a, b)
                if c:
                    expect = _mat_add(expect, _mat_scale(-c, representation.matrix(g)))
            if not _mat_is_zero(_mat_sub(comm, expect)):
                issues.append(
                    f"representation not a homomorphism on [e{a}, e{b}]"
                )

    # the T-restriction of ad should be skew for an orthonormal horizontal basis
    for a in splitting.gauge:
        sub = setup.ad_on_horizontal(a)
        if not _is_skew(sub):
            setup.warnings.append(
                f"ad(e{a})|T is not skew; the declared horizontal basis is "
                f"not orthonormal for an invariant metric"
            )

    if issues:
        raise SetupError(issues)
    return setup
