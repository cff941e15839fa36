"""The transitive-sphere check as it was before it became a rank test, kept
as an independent oracle.

It compares the stabilizer dimension at the origin with the one at the
generic point, and that one with the stabilizer dimensions at a fixed list
of spot points: the unit vectors, the sums of two of them, the all-ones
vector and (1, 2, ..., k).  Equal dimensions at those points do not make
the action transitive on the sphere: so(2) acting on R^4 by J + J has the
trivial stabilizer at every nonzero point, and passes, although its orbits
in S^3 are circles.
"""

from __future__ import annotations

from equiform.dictionary import EngineError
from equiform.homogeneous import HomogeneousSetup, stabilizer_of_vector
from equiform.numberfield import FieldElement


def _spot_points(setup: HomogeneousSetup) -> list[list[FieldElement]]:
    field = setup.field
    k = setup.fiber_dim
    z, one = field.zero, field.one
    pts = []
    for i in range(k):
        pts.append([one if j == i else z for j in range(k)])
    for i in range(k):
        for j in range(i + 1, k):
            pts.append([one if t in (i, j) else z for t in range(k)])
    pts.append([one] * k)
    pts.append([field.rational(i + 1) for i in range(k)])
    return pts


def spot_check_transitive_sphere(setup: HomogeneousSetup) -> int:
    """Exactly two stabilizer dimensions: at 0 and on the punctured fiber."""
    field = setup.field
    k = setup.fiber_dim
    dim0 = len(stabilizer_of_vector(setup, [field.zero] * k))
    dimv = len(stabilizer_of_vector(setup, setup.generic_point_vector()))
    if dimv >= dim0:
        raise EngineError(
            "transitive-sphere hypothesis violated: the generic stabilizer "
            "is not smaller than the full gauge algebra"
        )
    for vec in _spot_points(setup):
        d = len(stabilizer_of_vector(setup, vec))
        if d != dimv:
            raise EngineError(
                "transitive-sphere hypothesis violated: stabilizer dimension "
                f"{d} at a spot-check point differs from {dimv}"
            )
    return dimv
