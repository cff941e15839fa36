"""invariant_dimension as it was before each stabilizer's action was built
once, kept as an oracle.

For each cell, the kernel formed every stabilizer element's
lambda-combinations (m_t, m_v) of ad|T and of rho and ranked the equation
rows of the derivation they induce on Lambda^p T x Lambda^q V, element by
element, up to full rank.  The bodies below are that kernel, unchanged,
with one switch: scaled=False skips the division by an irrational first
entry, which gives the kernel as it was before the rows were scaled.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from equiform.forms import bits
from equiform.homogeneous import HomogeneousSetup
from equiform.linalg import VectorSpan
from equiform.numberfield import Coefficient, FieldElement, canonical, inverse


def _wedge_power_basis(n: int, p: int) -> list[int]:
    """Bitmasks of the p-element subsets of range(n), ascending."""
    out = [m for m in range(1 << n) if m.bit_count() == p]
    out.sort()
    return out


def _derivation_equations(m_t, m_v, p: int, q: int) -> list[dict[int, Coefficient]]:
    """Equation rows of the induced derivation on Lambda^p T x Lambda^q V.

    One sparse row per target basis element, keyed by source index, so the
    rows of several generators together span the joint kernel system.
    """
    nt = len(m_t) if m_t else 0
    nv = len(m_v) if m_v else 0
    basis_t = _wedge_power_basis(nt, p)
    basis_v = _wedge_power_basis(nv, q)
    basis = [(mt, mv) for mt in basis_t for mv in basis_v]
    index = {bm: i for i, bm in enumerate(basis)}
    rows: list[dict[int, Coefficient]] = [{} for _ in basis]
    for src, (mt, mv) in enumerate(basis):

        def act(mask, m, which):
            for i in bits(mask):
                for knew in range(len(m)):
                    c = m[knew][i]
                    if not c:
                        continue
                    if knew == i:
                        tgt = mask
                        sign = 1
                    elif mask >> knew & 1:
                        continue
                    else:
                        tgt = (mask ^ (1 << i)) | (1 << knew)
                        below_i = (mask & ((1 << i) - 1)).bit_count()
                        below_k = ((mask ^ (1 << i)) & ((1 << knew) - 1)).bit_count()
                        sign = -1 if (below_i + below_k) % 2 else 1
                    if which == "t":
                        row = rows[index[(tgt, mv)]]
                    else:
                        row = rows[index[(mt, tgt)]]
                    term = c if sign > 0 else -c
                    row[src] = row[src] + term if src in row else term

        if m_t:
            act(mt, m_t, "t")
        if m_v:
            act(mv, m_v, "v")
    return [{j: canonical(c) for j, c in row.items() if c} for row in rows]


def invariant_dimension(
    setup: HomogeneousSetup,
    bidegree: tuple[int, int],
    stab_basis: Sequence[Sequence[Coefficient]],
    scaled: bool = True,
) -> int:
    """Dimension of the stabilizer-invariant subspace of Lambda^p T x Lambda^q V.

    stab_basis holds coefficient vectors over the gauge basis.  Each vector
    lambda gives the lambda-combinations (m_t, m_v) of ad|T and of rho,
    whose equation rows on the cell join one span.  A nonzero scale leaves
    their kernel alone, so when the first nonzero entry of the pair is
    irrational every entry is divided by it: an irrational multiple of a
    rational pair then gives rational rows.  On su3_tcp2, ad|T and rho of
    e8 are sqrt3 times rational matrices, and the generic stabilizer is
    -sqrt3*e7 + e8, so no row carries sqrt3.  Equations stop once they have
    full rank: the dimension is then 0.
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
        first = next((x for m in (m_t, m_v) for row in m for x in row if x), 0)
        if scaled and type(first) is FieldElement:
            scale = inverse(first)
            for m in (m_t, m_v):
                for row in m:
                    for j, x in enumerate(row):
                        if x:
                            row[j] = canonical(x * scale)
        for row in _derivation_equations(m_t, m_v, p, q):
            span.add(row)
            if span.rank == full:
                break
    return full - span.rank
