"""Exact linear algebra on canonical coefficients, with one elimination.

VectorSpan is the only Gaussian elimination here.  It works on sparse
vectors, maps from sortable keys to canonical coefficients, and keeps
echelonized rows, stored canonical, plus, optionally, the combination of
added vectors behind each row.  A rational system never builds a
FieldElement.  It serves dictionary elimination, expressing forms in
generators and invariant dimension counts (a rank is the span's row count).
rref and nullspace_basis are views over it for dense matrices, lists of
lists of coefficients: rref adds the columns to a tracked span, and
nullspace_basis reads the kernel off the reduced form.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from equiform.numberfield import Coefficient, canonical, inverse

SparseVec = dict


def vec_iadd_scaled(target: SparseVec, src: SparseVec, coeff: Coefficient) -> None:
    """target += coeff * src, in place, dropping zeros."""
    if not coeff:
        return
    for k, v in src.items():
        s = target.get(k)
        s = v * coeff if s is None else s + v * coeff
        if type(s) is not int:
            s = canonical(s)
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class VectorSpan:
    """Incremental echelonized span of sparse vectors over a field.

    Rows are kept with unit pivots at distinct keys but are not reduced
    against each other; reducing an incoming vector walks the rows in
    insertion order.  With track=True every row remembers how it was built
    from the added vectors, so combination() can report the coefficients.
    """

    def __init__(self, *, track: bool = False):
        self.track = track
        self._rows: list[tuple[Hashable, SparseVec, SparseVec | None]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: SparseVec, combo: SparseVec | None) -> SparseVec:
        vec = dict(vec)
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c:
                vec_iadd_scaled(vec, row, -c)
                if combo is not None and rcombo is not None:
                    vec_iadd_scaled(combo, rcombo, -c)
        return vec

    def contains(self, vec: SparseVec) -> bool:
        return not self._reduce(vec, None)

    def combination(self, vec: SparseVec) -> SparseVec | None:
        """Coefficients on the added tags reproducing vec, or None.

        Requires track=True at construction.
        """
        if not self.track:
            raise ValueError("span was not built with track=True")
        combo: SparseVec = {}
        rem = self._reduce(vec, combo)
        if rem:
            return None
        return {t: -c for t, c in combo.items()}

    def add(self, vec: SparseVec, tag: Hashable = None) -> bool:
        """Insert vec; returns True when it enlarged the span."""
        combo: SparseVec | None = {} if self.track else None
        rem = self._reduce(vec, combo)
        if not rem:
            return False
        pivot = min(rem)
        inv = inverse(rem[pivot])
        row = {k: canonical(v * inv) for k, v in rem.items()}
        rcombo: SparseVec | None = None
        if self.track:
            assert combo is not None
            rcombo = {t: canonical(c * inv) for t, c in combo.items()}
            s = canonical(rcombo.get(tag, 0) + inv)
            if s:
                rcombo[tag] = s
            else:
                rcombo.pop(tag, None)
        self._rows.append((pivot, row, rcombo))
        return True


# -- matrix views ------------------------------------------------------------


def rref(matrix: Sequence[Sequence[Coefficient]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Column j is a pivot exactly when it is not in the span of the columns
    before it; every other column's entries are its coefficients on the
    pivot columns, which row reduction leaves unchanged.
    """
    if not matrix:
        return [], []
    span = VectorSpan(track=True)
    pivots: list[int] = []
    columns: list[SparseVec] = []
    for j in range(len(matrix[0])):
        col = {i: row[j] for i, row in enumerate(matrix) if row[j]}
        combo = span.combination(col)
        if combo is None:
            combo = {len(pivots): 1}
            span.add(col, len(pivots))
            pivots.append(j)
        columns.append(combo)
    rows = [[c.get(r, 0) for c in columns] for r in range(len(pivots))]
    return rows, pivots


def nullspace_basis(matrix: Sequence[Sequence[Coefficient]]) -> list[list[Coefficient]]:
    """Canonical kernel basis of the matrix (acting on column vectors)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, p in zip(rows, pivots):
            vec[p] = -r[f]
        basis.append(vec)
    return basis
