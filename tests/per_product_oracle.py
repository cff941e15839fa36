"""wedge and the exterior derivative as they were while every product was
normalized on its own, kept as an oracle for the kernels that sum each
output word unreduced and normalize it once.

`merge_sign`, `wedge` and `_derivation` are copied unchanged.
`d_coefficient` is the coefficient rule of `HomogeneousSetup` then (its
`_d_coefficient`), which took each partial through `Scalar.differentiate`; its
negated connection is rebuilt from the setup's connection forms, which
involve no derivation.  `frame_derivative` and `basic_derivative` are the
full pass and the pass on the basic frame, over generator images that this
module derives itself.
"""

from __future__ import annotations

from functools import cache, partial

from equiform.forms import Form, FrameError, bits
from equiform.homogeneous import HomogeneousSetup
from equiform.scalars import Scalar


def merge_sign(mx: int, my: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending words."""
    sign = 1
    for j in bits(my):
        if (mx >> (j + 1)).bit_count() & 1:
            sign = -sign
    return sign


def wedge(x: Form, y: Form) -> Form:
    """Exterior product."""
    if x.frame != y.frame:
        raise FrameError("forms over different frames")
    out: dict[int, Scalar] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            if mx & my:
                continue
            c = cx * cy
            if merge_sign(mx, my) < 0:
                c = -c
            m = mx | my
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
    return Form(x.frame, out)


def _derivation(x: Form, coeff_rule, gen_images: dict[int, Form]) -> Form:
    """Apply a derivation of degree 0 or 1 on the frame: coeff_rule(c) is a
    Form (or None), gen_images maps frame positions to generator images.

    One walker serves both degrees.  Removing generator g from a word costs
    the sign (-1)^(set bits below g) either way: an odd derivation takes it
    from the graded Leibniz rule and puts its even image in front freely,
    an even one moves its 1-form image in front past those generators.
    """
    out: dict[int, Scalar] = {}

    def put(image: Form, word: int, c: Scalar | None, sign: int) -> None:
        # out += sign * image ^ (c word), c None standing for 1
        for m, s in image.terms.items():
            if m & word:
                continue
            if c is not None:
                s = s * c
            if merge_sign(m, word) != sign:
                s = -s
            prev = out.get(m | word)
            s = s if prev is None else prev + s
            if s.is_zero:
                out.pop(m | word, None)
            else:
                out[m | word] = s

    for mask, c in x.terms.items():
        dc = coeff_rule(c)
        if dc is not None:
            put(dc, mask, None, 1)
        for g in bits(mask):
            img = gen_images.get(g)
            if img is not None:
                below = mask & ((1 << g) - 1)
                put(img, mask ^ (1 << g), c, -1 if below.bit_count() & 1 else 1)
    return Form(x.frame, out)


def d_coefficient(setup: HomogeneousSetup, c: Scalar, gauge: bool = True) -> Form:
    """df = sum_i (df/da_i) da_i, with da_i = b_i - (rho(theta) a)_i.

    With gauge False only the vertical half sum_i (df/da_i) b_i, which
    is the basic part of df.
    """
    negated_connection = tuple(-acc for acc in setup.derivative_images()[1])
    terms: dict[int, Scalar] = {}
    for i, name in enumerate(setup.ring.fiber):
        dci = c.differentiate(name)
        if dci.is_zero:
            continue
        terms[1 << setup._pos_b[i]] = dci
        if not gauge:
            continue
        # the connection has gauge words only, so it never meets b_i
        for m, s in negated_connection[i].terms.items():
            p = s * dci
            prev = terms.get(m)
            p = p if prev is None else prev + p
            if p.is_zero:
                terms.pop(m, None)
            else:
                terms[m] = p
    return Form(setup.frame, terms)


@cache
def derivative_images(setup: HomogeneousSetup) -> dict[int, Form]:
    """d of every frame generator, by frame position: the structure 2-form
    of each e^i, and d b_i = d(rho(theta) a)_i."""
    images = {pos: setup.structure_derivative(i) for i, pos in setup._pos_e.items()}
    rule = partial(d_coefficient, setup)
    connection = setup.derivative_images()[1]
    for pos, acc in zip(setup._pos_b, connection):
        images[pos] = _derivation(acc, rule, images)
    return images


def frame_derivative(setup: HomogeneousSetup, x: Form) -> Form:
    """d on the whole frame, gauge terms kept."""
    return _derivation(x, partial(d_coefficient, setup), derivative_images(setup))


def basic_derivative(setup: HomogeneousSetup, x: Form) -> Form:
    """The basic part of d: the walker over the images without their gauge
    words and the vertical half of the coefficient rule."""
    gauge = setup.frame.gauge_mask
    images = {}
    for pos, img in derivative_images(setup).items():
        terms = {m: s for m, s in img.terms.items() if not m & gauge}
        if terms:
            images[pos] = Form(setup.frame, terms)
    return _derivation(x, partial(d_coefficient, setup, gauge=False), images)
