"""Exact verdicts for closedness and equality of invariant forms.

Every check runs in exact arithmetic, so a verdict has no tolerance
attached.  Besides the global checks there is a sphere mode for ansatze
that only hold on the unit sphere of the fiber: a residual r is accepted
when its pullback to the sphere vanishes.  The test is algebraic.  Wedging
r with d(aa) kills the conormal part of the pullback kernel, and reducing
the coefficients modulo aa - 1 (set the radial radical to one, then
eliminate the square of the first fiber coordinate) kills the multiples of
the defining function.  Both steps are exact, and together they vanish
precisely when the pullback does, because d(aa) is nowhere zero on the
sphere and wedging with a nonzero covector is exact in the Koszul sense.
"""

from __future__ import annotations

from dataclasses import dataclass

from equiform.forms import Form, wedge
from equiform.homogeneous import HomogeneousSetup, InvariantForm, exterior_derivative
from equiform.scalars import RingMap, Scalar


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class _Sphere:
    """What every sphere check on one setup reuses: the radicals squaring
    to aa, the map sending them to 1, the replacement 1 - a2^2 - ... - ak^2
    for a1^2, and d(aa)."""

    radial_names: tuple[str, ...]
    radial_to_one: RingMap
    replacement: Scalar
    d_aa: Form


def _sphere(setup: HomogeneousSetup) -> _Sphere:
    """The sphere pieces of setup, built on first use and kept on it."""
    sphere = setup._sphere
    if sphere is None:
        ring = setup.ring
        radial_names = ring.radicals_squaring_to(ring.radial_square)
        images = {n: ring.one if n in radial_names else ring.var(n) for n in ring.index}
        replacement = ring.one
        for name in ring.fiber[1:]:
            v = ring.var(name)
            replacement = replacement - v * v
        # aa is invariant because rho is skew, as validate_setup enforces
        aa = InvariantForm.of(setup.frame.scalar_form(ring.radial_square))
        sphere = setup._sphere = _Sphere(
            radial_names,
            RingMap(ring, ring, images),
            replacement,
            exterior_derivative(setup, aa),
        )
    return sphere


def sphere_reduce(setup: HomogeneousSetup, x: Form) -> Form:
    """Normal form of x modulo the ideal of the unit sphere.

    Radicals squaring to aa become 1; afterwards the square of the first
    fiber coordinate is eliminated through aa = 1.  Coefficients using any
    other radical are rejected, since their value on the sphere is not a
    ring element.
    """
    ring = setup.ring
    sphere = _sphere(setup)
    first = ring.fiber[0]
    out: dict[int, object] = {}
    for mask, c in x.terms.items():
        for j, name in enumerate(ring.radical_names):
            rslot, dslot = ring.radical_slot(j), ring.denominator_slot(j)
            present = any(m[rslot] or m[dslot] for m in c.coeffs)
            if present and name not in sphere.radial_names:
                raise VerifyError(
                    f"cannot restrict to the unit sphere: radical {name} "
                    "does not square to the radial function"
                )
        c = sphere.radial_to_one(c).substitute_square(first, sphere.replacement)
        if not c.is_zero:
            out[mask] = c
    return Form(setup.frame, out)


def vanishes_on_sphere(setup: HomogeneousSetup, x: Form) -> bool:
    """Whether the pullback of x to the unit sphere of the fiber is zero."""
    if x.is_zero:
        return True
    return sphere_reduce(setup, wedge(_sphere(setup).d_aa, x)).is_zero


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check, with the exact residual kept for reporting."""

    name: str
    check: str
    holds: bool
    on_sphere: bool
    residual: Form

    def describe(self) -> str:
        where = " on the unit sphere" if self.on_sphere else ""
        outcome = "holds" if self.holds else "FAILS"
        return f"{self.name}: {self.check}{where} {outcome}"


def _settle(
    setup: HomogeneousSetup,
    name: str,
    check: str,
    residual: Form,
    on_sphere: bool,
) -> Verdict:
    holds = residual.is_zero or (
        on_sphere and vanishes_on_sphere(setup, residual)
    )
    return Verdict(
        name=name,
        check=check,
        holds=holds,
        on_sphere=on_sphere,
        residual=residual,
    )


def verify_closed(
    setup: HomogeneousSetup,
    form: Form,
    name: str = "form",
    on_sphere: bool = False,
) -> Verdict:
    """Check d(form) = 0, optionally only after pullback to the sphere."""
    return _settle(
        setup, name, "closed", exterior_derivative(setup, form), on_sphere
    )


def verify_equation(
    setup: HomogeneousSetup,
    lhs: Form,
    rhs: Form,
    name: str = "equation",
    on_sphere: bool = False,
) -> Verdict:
    """Check lhs = rhs, optionally only after pullback to the sphere."""
    return _settle(setup, name, "equation", lhs - rhs, on_sphere)
