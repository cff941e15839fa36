"""Evaluation at a point and restriction to the ray as two separate kernels,
kept as an oracle for the one ring map (`scalars.RingMap`) that replaced
them.

`Point`, `radical_value`, `_field_pow` and `evaluate` are the earlier
evaluator: exact values for the fiber variables and parameters, radical
values derived from the defining squares on first use, and a monomial
evaluated factor by factor in the order fiber, parameters, radicals.
`RayRestriction` is the earlier restriction to the ray a = t*e1: a
projection of every normal monomial that drops the fiber slots a2, ...,
followed by the target ring's p-adic normalization.  The bodies are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Mapping

from equiform.numberfield import FieldElement
from equiform.scalars import (
    PointError,
    RadicalSpec,
    Ring,
    RingError,
    Scalar,
    _finish,
)

from field_lift import as_field_element


class RayRestriction:
    """The ring homomorphism restricting a scalar to the ray a = t*e1.

    Into a ring with the one fiber coordinate a1: a_i -> 0 for i >= 2, and
    each radical u_j keeps its name and visible exponent, with square
    p_j(a1, 0, ..., 0), never folded into a1.  Images are re-normalized
    (with u^2 = a1*a2 + a1, the normal form a1*u^-2 maps to 1), which only
    raises visible exponents, so the depth bound cannot fire on an image
    when it did not on the source.  The map is the identity on a ring with
    one fiber coordinate, and when the one-fiber ring refuses a restricted
    square (k + a2^2 becomes k).
    """

    def __init__(self, ring: Ring):
        self.source = self.target = ring
        nf = ring.nf
        if nf < 2:
            return
        spec = ring.spec
        radicals = tuple(
            RadicalSpec(
                rad.name,
                tuple(
                    (tuple(mono[:1]) + tuple(mono[nf:]), c)
                    for mono, c in rad.square
                    if not any(mono[1:nf])
                ),
            )
            for rad in spec.radicals
        )
        try:
            self.target = Ring(replace(spec, fiber=spec.fiber[:1], radicals=radicals))
        except RingError:
            pass  # a restricted square is refused: stay the identity

    @property
    def is_identity(self) -> bool:
        return self.target is self.source

    def __call__(self, x: Scalar) -> Scalar:
        if self.target is self.source:
            return x
        nf = self.source.nf
        # normal monomials have radical exponents in {0, 1} and denominator
        # powers >= 0: images need only the p-adic reduction, and stay distinct
        out = {
            mono[:1] + mono[nf:]: c
            for mono, c in x.coeffs.items()
            if not any(mono[1:nf])
        }
        return _finish(self.target, out)


@dataclass
class Point:
    """Exact values for the fiber variables and parameters.

    Radical values are derived from the defining squares, always taking the
    nonnegative branch; evaluation fails if the square root does not exist in
    the coefficient field.
    """

    ring: Ring
    values: dict = dc_field(default_factory=dict)

    def __init__(self, ring: Ring, values: Mapping[str, object]):
        self.ring = ring
        clean: dict[str, FieldElement] = {}
        for name, v in values.items():
            if name not in ring.index or ring.index[name] >= ring.nf + ring.np:
                raise PointError(f"{name!r} is not a fiber variable or parameter")
            clean[name] = as_field_element(ring.field, ring._coefficient(v))
        missing = [n for n in ring.fiber + ring.params if n not in clean]
        if missing:
            raise PointError(f"point is missing values for {missing}")
        self.values = clean
        self._radical_values: dict[int, FieldElement] = {}

    def fiber_vector(self) -> list[FieldElement]:
        return [self.values[n] for n in self.ring.fiber]

    def radical_value(self, j: int) -> FieldElement:
        """Value of one radical generator, computed on first use so that
        scalars not involving a radical never force its evaluation."""
        if j not in self._radical_values:
            sq = evaluate(Scalar(self.ring, self.ring.radical_squares[j]), self)
            root = sq.sqrt()
            if root is None:
                raise PointError(
                    f"radical {self.ring.radical_names[j]} has no exact value "
                    f"at this point (square evaluates to {sq})"
                )
            self._radical_values[j] = root
        return self._radical_values[j]


def _field_pow(v: FieldElement, e: int, name: str) -> FieldElement:
    if e < 0 and v.is_zero:
        raise PointError(f"negative power of zero while evaluating {name}")
    return v**e


def evaluate(x: Scalar, pt: Point) -> FieldElement:
    if pt.ring != x.ring:
        raise PointError("point belongs to a different ring")
    ring = x.ring
    base_vals = [pt.values[n] for n in ring.fiber + ring.params]
    names = ring.fiber + ring.params
    total = ring.field.zero
    for mono, c in x.coeffs.items():
        term = c
        for v, e, name in zip(base_vals, mono, names):
            if e:
                term = term * _field_pow(v, e, name)
        for j, name in enumerate(ring.radical_names):
            e = ring.visible_radical_exponent(mono, j)
            if e:
                term = term * _field_pow(pt.radical_value(j), e, name)
        total = total + term
    return total
