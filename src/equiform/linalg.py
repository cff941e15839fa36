"""Small exact linear algebra toolkit over a NumberField.

Two flavours live here.  Dense routines (rref, rank, nullspace) work on lists
of lists of FieldElement and are used for stabilizer kernels and invariant
dimension counts.  The incremental VectorSpan works on sparse vectors, maps
from sortable keys to FieldElement, and is the workhorse for dictionary
elimination and for expressing forms in generators; it keeps an echelonized
row list plus, optionally, the combination of input vectors that produced
each row.
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

    Rows are kept with unit pivots at distinct keys, fully reduced against
    each other is not required; reduction of an incoming vector walks rows in
    insertion order.  With track=True every row remembers how it was built
    from the added vectors, so reduce() can report the combination.
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


# -- dense routines ----------------------------------------------------------


def rref(field: NumberField, matrix: Sequence[Sequence[FieldElement]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(field: NumberField, matrix: Sequence[Sequence[FieldElement]]) -> int:
    return len(rref(field, matrix)[0])


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
