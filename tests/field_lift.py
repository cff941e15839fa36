"""Canonical coefficients lifted into FieldElements.

The program holds every exact number as a canonical coefficient (an int, a
Fraction, or a FieldElement with an irrational term).  The oracles keep the
FieldElement arithmetic of the kernels they replaced, so they lift their
inputs at entry with this.
"""

from __future__ import annotations

from equiform.numberfield import Coefficient, FieldElement, NumberField


def as_field_element(field: NumberField, c: Coefficient) -> FieldElement:
    """A canonical coefficient as an element of field."""
    if type(c) is FieldElement:
        return c
    return FieldElement(field, {0: c} if c else {})
