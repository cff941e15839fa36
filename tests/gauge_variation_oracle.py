"""The gauge-variation invariance check that d replaced, kept as an oracle.

Before d kept its gauge terms, invariance of a basic form was checked one
gauge index at a time: the Lie derivative along the fundamental field of
e_a, with its own generator images and its own partial derivatives of
every coefficient, had to vanish for every a.  Equivariance of a letter
was the same variation plus the representation twist.  The functions
below are that code, with the derivation walker as it was then, so the
new verdicts can be compared against an independent derivation.
"""

from typing import Sequence

from equiform.forms import Form, bits, wedge
from equiform.homogeneous import HomogeneousSetup, SetupError, is_basic
from equiform.letters import LetterError
from equiform.scalars import Scalar


def _derivation(x: Form, coeff_rule, gen_images: dict[int, Form]) -> Form:
    """Apply a derivation of degree 0 or 1 on the frame: coeff_rule(c) is a
    Form (or None), gen_images maps frame positions to generator images.

    One walker serves both degrees.  Removing generator g from a word costs
    the sign (-1)^(set bits below g) either way: an odd derivation takes it
    from the graded Leibniz rule and puts its even image in front freely,
    an even one moves its 1-form image in front past those generators.
    """
    out = x.frame.zero
    for mask, c in x.terms.items():
        word = Form(x.frame, {mask: x.ring.one})
        dc = coeff_rule(c)
        if dc is not None and not dc.is_zero:
            out = out + wedge(dc, word)
        for g in bits(mask):
            img = gen_images.get(g)
            if img is None or img.is_zero:
                continue
            below = mask & ((1 << g) - 1)
            sign = -1 if below.bit_count() & 1 else 1
            rest = Form(x.frame, {mask ^ (1 << g): c if sign > 0 else -c})
            out = out + wedge(img, rest)
    return out


def gauge_variation(setup: HomogeneousSetup, a: int, x: Form) -> Form:
    """Infinitesimal gauge action (Lie derivative along the fundamental
    field of e_a) on a form over the frame."""
    if a not in setup.splitting.gauge:
        raise SetupError([f"{a} is not a gauge index"])
    rho_a = setup.rho(a)
    rho_a_on_coords = setup.rho_apply(a, setup._avars)

    gen_images: dict[int, Form] = {}
    ad = setup.ad_matrices[a]
    for i in setup.splitting.horizontal + setup.splitting.gauge:
        img = setup.frame.zero
        for kk in setup.splitting.horizontal + setup.splitting.gauge:
            c = ad[i - 1][kk - 1]
            if c:
                img = img - c * setup.frame.generator(f"e{kk}")
        gen_images[setup._pos_e[i]] = img
    for i in range(setup.fiber_dim):
        img_b = setup.frame.zero
        for j in range(setup.fiber_dim):
            c = rho_a[i][j]
            if c:
                img_b = img_b - c * setup.frame.generator(f"b{j + 1}")
        gen_images[setup._pos_b[i]] = img_b

    def dcoeff(c: Scalar) -> Form:
        out = setup.ring.zero
        for i in range(setup.fiber_dim):
            dci = c.differentiate(f"a{i + 1}")
            if not dci.is_zero:
                out = out - rho_a_on_coords[i] * dci
        return setup.frame.scalar_form(out)

    return _derivation(x, dcoeff, gen_images)


def is_invariant(setup: HomogeneousSetup, x: Form) -> bool:
    if not is_basic(setup, x):
        return False
    return all(
        gauge_variation(setup, a, x).is_zero for a in setup.splitting.gauge
    )


def _check_equivariant(
    setup: HomogeneousSetup, name: str, comps: Sequence[Form]
) -> None:
    for a in setup.splitting.gauge:
        rho_a = setup.rho(a)
        for i in range(setup.fiber_dim):
            resid = gauge_variation(setup, a, comps[i])
            for j in range(setup.fiber_dim):
                c = rho_a[i][j]
                if c:
                    resid = resid + c * comps[j]
            if not resid.is_zero:
                raise LetterError(f"letter {name} is not equivariant along e{a}")
