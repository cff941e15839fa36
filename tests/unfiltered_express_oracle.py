"""The `express_in_generators` that solved every column, kept as an oracle.

Before the dilation-weight filter, each cell built every candidate column
`power * form`, single generators and products alike, and eliminated them
all.  The filtered kernel must give the same terms, coefficient for
coefficient, the same residual flag and the same failing cells.  The body
below is that kernel, unchanged.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from equiform.dictionary import (
    CombinationTerm,
    Dictionary,
    EngineError,
    GeneratorCombination,
    _radial_powers,
)
from equiform.forms import Form, bidegree_split, wedge
from equiform.homogeneous import HomogeneousSetup, is_invariant
from equiform.linalg import VectorSpan
from equiform.scalars import Scalar


def _form_to_vector(x: Form) -> dict:
    """x as a sparse vector keyed by (basis word, monomial)."""
    return {
        (mask, mono): c
        for mask, sc in x.terms.items()
        for mono, c in sc.coeffs.items()
    }


def express_in_generators(
    setup: HomogeneousSetup,
    dictionary: Dictionary,
    target: Form,
    degree_bounds: tuple[int, int] = (4, -2),
    allow_triples: bool = False,
) -> GeneratorCombination:
    """Solve target = sum of Laurent-in-s coefficients times generator
    products, exactly, preferring single generators over products."""
    if not is_invariant(setup, target):
        raise EngineError("target is not an invariant basic form")
    hi, lo = degree_bounds
    if lo > hi:
        raise EngineError(f"empty Laurent window ({hi}, {lo})")
    powers = _radial_powers(setup, lo, hi)
    entries = dictionary.entries
    positive = [
        (i, e) for i, e in enumerate(entries) if e.word.length > 0
    ]
    field = setup.field
    terms: list[CombinationTerm] = []
    residual = False
    failed: list[tuple[int, int]] = []
    for cell, part in sorted(bidegree_split(target).items()):
        candidates: list[tuple[tuple[int, ...], Form]] = []
        for i, e in enumerate(entries):
            if e.bidegree == cell:
                candidates.append(((i,), e.translation))
        for r in (2, 3) if allow_triples else (2,):
            for factors in combinations_with_replacement(positive, r):
                p = q = 0
                for _, e in factors:
                    p += e.bidegree[0]
                    q += e.bidegree[1]
                if (p, q) != cell:
                    continue
                prod = reduce(wedge, (e.translation for _, e in factors))
                if not prod.is_zero:
                    candidates.append((tuple(i for i, _ in factors), prod))
        span = VectorSpan(track=True)
        for tag, form in candidates:
            for ex, sc in powers:
                col = sc * form
                if col.is_zero:
                    continue
                span.add(_form_to_vector(col), (tag, ex))
        combo = span.combination(_form_to_vector(part))
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
