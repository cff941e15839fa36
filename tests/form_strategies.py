"""Hypothesis strategies for forms over a setup's frame, shared by the
tests that compare form kernels on random input."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from hypothesis import strategies as st


@cache  # one strategy per frame: building it is most of a draw's cost
def ring_forms(frame):
    """Forms of one to four terms over a setup's frame, on words of at most
    two generators.  Each coefficient is a sum of up to three monomials,
    each a power of one fiber variable times parameters and radical powers
    from -2 to 2, mostly 0, so that values at points on the first axes, the
    origin among them, are often nonzero; its numbers are rational, or in
    Q(sqrt3) over that field."""
    ring = frame.ring
    fiber = st.tuples(st.integers(0, ring.nf - 1), st.integers(0, 2)).map(
        lambda ie: tuple(ie[1] if j == ie[0] else 0 for j in range(ring.nf))
    )
    mono = st.tuples(
        fiber,
        st.tuples(*[st.integers(0, 1)] * ring.np),
        st.tuples(*[st.sampled_from((0, 0, 0, 0, 1, 2, -1, -2))] * ring.nr),
    ).map(lambda parts: sum(parts, ()))
    numbers = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    if 3 in ring.field.radicands:
        s3 = ring.field.sqrt_radicand(3)
        numbers += [s3, -2 * s3, 1 + s3, Fraction(1, 2) - s3 / 3]
    number = st.sampled_from(numbers)
    coeff = st.dictionaries(mono, number, min_size=1, max_size=3)
    masks = st.sets(st.integers(0, frame.size - 1), max_size=2).map(
        lambda gens: sum(1 << g for g in gens)
    )
    return st.dictionaries(masks, coeff, min_size=1, max_size=4).map(frame.form)
