"""The ray solve of `express_in_generators` before graded blocks, kept as
an oracle.

Each bidegree cell was one span system, rebuilt for every target, over the
columns power * form restricted to the ray a = t*e1, with a1 and the radial
radical s kept apart.  When every entry and radial power has a single
dilation weight, only the columns whose weight the target part carries
were built.  The graded kernel collapses each weight block at t = 1 and
keeps its span across targets; on every bundled system it must give the
same terms, coefficient for coefficient, the same residual flag and the
same failing cells.  The body below is that kernel, unchanged but for its
local helpers: it weighs the radial powers itself and multiplies the
entries' ray images by wedge.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from equiform.dictionary import (
    CombinationTerm,
    Dictionary,
    EngineError,
    GeneratorCombination,
    _dilation_weigher,
)
from equiform.forms import Form, bidegree_split, map_form, wedge
from equiform.homogeneous import (
    HomogeneousSetup,
    InvariantForm,
    is_basic,
    is_invariant,
)
from equiform.linalg import VectorSpan
from equiform.scalars import Scalar

from unfiltered_express_oracle import _form_to_vector


def _weights(weigh, x: Form) -> set[int | None]:
    return {weigh(mask, mono) for mask, sc in x.terms.items() for mono in sc.coeffs}


def _single(weights: set[int | None]) -> int | None:
    return weights.pop() if len(weights) == 1 else None


def express_in_generators(
    setup: HomogeneousSetup,
    dictionary: Dictionary,
    target: Form,
    degree_bounds: tuple[int, int] = (4, -2),
    allow_triples: bool = False,
) -> GeneratorCombination:
    """Solve target = sum of Laurent-in-s coefficients times generator
    products, exactly, preferring single generators over products.

    Each bidegree cell is one span system over the columns power * form.
    When every entry and every radial power has a single dilation weight,
    the system is block-diagonal by weight, so a column whose weight the
    target part does not carry can neither enter the combination nor
    change a pivot of the target's blocks: such columns, and the products
    behind them, are never built.  Otherwise every column is solved.

    Columns and target are restricted to the ray a = t*e1, which keeps
    every relation among invariant forms, so the target must be basic and
    invariant: any target but an InvariantForm is checked once before the
    solve.  Coefficients are read back as full-ring powers of the radius.
    """
    if not is_basic(setup, target):
        raise EngineError("target is not an invariant basic form")
    hi, lo = degree_bounds
    if lo > hi:
        raise EngineError(f"empty Laurent window ({hi}, {lo})")
    powers, ray_powers = dictionary._radial_window(lo, hi)
    # restriction to the ray is injective on invariant forms only
    if not isinstance(target, InvariantForm) and not is_invariant(setup, target):
        raise EngineError("target is not an invariant basic form")
    entries = dictionary.entries
    positive = [i for i, e in enumerate(entries) if e.word.length > 0]
    weigh = _dilation_weigher(setup)
    power_weights = [
        _single(_weights(weigh, setup.frame.scalar_form(sc))) for _, sc in powers
    ]
    entry_weights = dictionary._entry_weights()
    restrict = setup.ring.ray_restriction
    images: dict[int, Form] = {}

    def ray_image(i: int) -> Form:
        if i not in images:
            images[i] = map_form(entries[i].translation, restrict)
        return images[i]

    graded = None not in entry_weights and None not in power_weights
    terms: list[CombinationTerm] = []
    residual = False
    failed: list[tuple[int, int]] = []
    for cell, part in sorted(bidegree_split(target).items()):
        wanted = _weights(weigh, part)
        tags = [(i,) for i, e in enumerate(entries) if e.bidegree == cell]
        # only entries within the cell can be factors; the order is kept
        fits = [
            i
            for i in positive
            if entries[i].bidegree[0] <= cell[0]
            and entries[i].bidegree[1] <= cell[1]
        ]
        for r in (2, 3) if allow_triples else (2,):
            for tag in combinations_with_replacement(fits, r):
                p = q = 0
                for i in tag:
                    p += entries[i].bidegree[0]
                    q += entries[i].bidegree[1]
                if (p, q) == cell:
                    tags.append(tag)
        span = VectorSpan(track=True)
        for tag in tags:
            if graded:
                w = sum(entry_weights[i] for i in tag)
                usable = [
                    power
                    for power, pw in zip(ray_powers, power_weights)
                    if w + pw in wanted
                ]
            else:
                usable = ray_powers
            if not usable:
                continue
            form = reduce(wedge, (ray_image(i) for i in tag))
            for ex, sc in usable:
                col = sc * form
                if col.is_zero:
                    continue
                span.add(_form_to_vector(col), (tag, ex))
        on_ray = map_form(part, setup.ring.ray_restriction)
        combo = span.combination(_form_to_vector(on_ray))
        if combo is None:
            residual = True
            failed.append(cell)
            continue
        grouped: dict[tuple[int, ...], Scalar] = {}
        for (tag, ex), c in combo.items():
            sc = grouped.get(tag, setup.ring.zero)
            power = next(p for e2, p in powers if e2 == ex)
            grouped[tag] = sc + c * power
        for tag in sorted(grouped, key=lambda t: (len(t), t)):
            coeff = grouped[tag]
            if coeff.is_zero:
                continue
            words = tuple(entries[i].word for i in tag)
            terms.append(CombinationTerm(coefficient=coeff, factors=words))
    return GeneratorCombination(
        terms=tuple(terms), residual=residual, failed_cells=tuple(failed)
    )
