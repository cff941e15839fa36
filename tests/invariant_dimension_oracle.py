"""invariant_dimension as it was before its equation rows were scaled,
kept as an oracle.

The kernel ranked the equation rows of each stabilizer element's
lambda-combinations (m_t, m_v) as they came, so on su3_tcp2 the rows of the
sqrt(3)-carrying e8 direction were eliminated on FieldElements.  The body
below is that kernel, unchanged.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from equiform.homogeneous import HomogeneousSetup, _derivation_equations
from equiform.linalg import VectorSpan
from equiform.numberfield import Coefficient, canonical


def invariant_dimension(
    setup: HomogeneousSetup,
    bidegree: tuple[int, int],
    stab_basis: Sequence[Sequence[Coefficient]],
) -> int:
    """Dimension of the stabilizer-invariant subspace of Lambda^p T x Lambda^q V.

    stab_basis holds coefficient vectors over the gauge basis.  Equations
    stop once they have full rank: the dimension is then 0.
    """
    p, q = bidegree
    nt = setup.horizontal_dim
    nv = setup.fiber_dim
    if p < 0 or q < 0 or p > nt or q > nv:
        return 0
    # per gauge index, the nonzero entries (i, j, x) of ad|T and of rho
    gens = [
        [
            [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x]
            for m in (setup.ad_on_horizontal(a), setup.rho(a))
        ]
        for a in setup.splitting.gauge
    ]
    full = comb(nt, p) * comb(nv, q)
    span = VectorSpan()
    for lam in stab_basis:
        if span.rank == full:
            break
        # the lambda-combinations of ad|T and of rho
        m_t = [[0] * nt for _ in range(nt)]
        m_v = [[0] * nv for _ in range(nv)]
        for c, pair in zip(lam, gens):
            if c:
                for m, entries in zip((m_t, m_v), pair):
                    for i, j, x in entries:
                        m[i][j] = canonical(m[i][j] + c * x)
        for row in _derivation_equations(m_t, m_v, p, q):
            span.add(row)
            if span.rank == full:
                break
    return full - span.rank
