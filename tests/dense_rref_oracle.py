"""The dense pivot-loop rref that `linalg.rref` used before it went through
`VectorSpan`, kept as an independent oracle for the span-based kernel.

It searches each column for a nonzero entry, swaps that row up, scales it to
a unit pivot and clears the column in every other row, all on full rows of
FieldElement.  The span works on canonical coefficients (ints, Fractions
and irrational FieldElements); this oracle lifts its input at entry.
"""

from __future__ import annotations

from typing import Sequence

from equiform.numberfield import FieldElement, NumberField

from field_lift import as_field_element


def rref(field: NumberField, matrix: Sequence[Sequence[FieldElement]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [[as_field_element(field, x) for x in r] for r in matrix]
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
