"""Exact linear algebra over a NumberField, with one elimination.

VectorSpan is the only Gaussian elimination here.  It works on sparse
vectors, maps from sortable keys to FieldElement, and keeps echelonized rows
plus, optionally, the combination of added vectors behind each row.  It
serves dictionary elimination, expressing forms in generators and invariant
dimension counts (a rank is the span's row count).  rref and nullspace_basis
are views over it for dense matrices, lists of lists of FieldElement: rref
adds the columns to a tracked span, and nullspace_basis reads the kernel off
the reduced form.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from equiform.numberfield import FieldElement, NumberField

SparseVec = dict


def vec_iadd_scaled(target: SparseVec, src: SparseVec, coeff: FieldElement) -> None:
    """target += coeff * src, in place, dropping zeros."""
    if coeff.is_zero:
        return
    for k, v in src.items():
        s = target.get(k)
        s = v * coeff if s is None else s + v * coeff
        if s.is_zero:
            target.pop(k, None)
        else:
            target[k] = s


class VectorSpan:
    """Incremental echelonized span of sparse vectors over a field.

    Rows are kept with unit pivots at distinct keys but are not reduced
    against each other; reducing an incoming vector walks the rows in
    insertion order.  With track=True every row remembers how it was built
    from the added vectors, so combination() can report the coefficients.
    """

    def __init__(self, field: NumberField, track: bool = False):
        self.field = field
        self.track = track
        self._rows: list[tuple[Hashable, SparseVec, SparseVec | None]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: SparseVec, combo: SparseVec | None) -> SparseVec:
        vec = dict(vec)
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if c is not None and not c.is_zero:
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
        inv = rem[pivot].inverse()
        row = {k: v * inv for k, v in rem.items()}
        rcombo: SparseVec | None = None
        if self.track:
            assert combo is not None
            rcombo = {t: c * inv for t, c in combo.items()}
            prev = rcombo.get(tag, self.field.zero)
            s = prev + inv
            if s.is_zero:
                rcombo.pop(tag, None)
            else:
                rcombo[tag] = s
        self._rows.append((pivot, row, rcombo))
        return True


# -- matrix views ------------------------------------------------------------


def rref(field: NumberField, matrix: Sequence[Sequence[FieldElement]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Column j is a pivot exactly when it is not in the span of the columns
    before it; every other column's entries are its coefficients on the
    pivot columns, which row reduction leaves unchanged.
    """
    if not matrix:
        return [], []
    span = VectorSpan(field, track=True)
    pivots: list[int] = []
    columns: list[SparseVec] = []
    for j in range(len(matrix[0])):
        col = {i: row[j] for i, row in enumerate(matrix) if not row[j].is_zero}
        combo = span.combination(col)
        if combo is None:
            combo = {len(pivots): field.one}
            span.add(col, len(pivots))
            pivots.append(j)
        columns.append(combo)
    rows = [[c.get(r, field.zero) for c in columns] for r in range(len(pivots))]
    return rows, pivots


def nullspace_basis(
    field: NumberField, matrix: Sequence[Sequence[FieldElement]]
) -> list[list[FieldElement]]:
    """Canonical kernel basis of the matrix (acting on column vectors)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(field, matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in zip(rows, pivots):
            vec[p] = -r[f]
        basis.append(vec)
    return basis
