"""Dictionary generation with every candidate translated, kept as an oracle.

Before phases tested independence on point values, each candidate word was
translated symbolically, one wedge per syllable, and its translation was
evaluated at the phase point.  The point-value kernel must give the same
transcript, entries, translations, radial invariant and images.  The bodies
of `SymbolicAlphabet.translate`, `_phase` and `generate_dictionary` below
are that kernel, unchanged but for two mechanical edits: an entry is built
from its word and the alphabet, which translates it on each read, where
the kernel passed the translation; and the word-length cap, since deleted
from the kernel, is gone with its parameter.  `SymbolicAlphabet.translate`
overrides the memoized translation.
"""

from __future__ import annotations

from typing import Sequence

from equiform.dictionary import (
    Alphabet,
    Dictionary,
    DictionaryEntry,
    EngineError,
    Word,
    _check_transitive_sphere,
)
from equiform.forms import Form, evaluate_to_vector, wedge
from equiform.homogeneous import HomogeneousSetup, InvariantForm
from equiform.letters import Contraction, Letter
from equiform.linalg import VectorSpan
from equiform.scalars import Point


class SymbolicAlphabet(Alphabet):
    def translate(self, word: Word) -> Form:
        """The wedge of the syllable forms, an InvariantForm when each of
        them is one."""
        out = self.setup.frame.one
        certified = True
        for s in word.syllables:
            form = self.syllable_form(s)
            certified = certified and isinstance(form, InvariantForm)
            out = wedge(out, form)
            if out.is_zero:
                return out
        return InvariantForm.of(out) if certified else out


def _phase(
    alphabet: Alphabet,
    phase_name: str,
    point: Point,
    seeds: Sequence[DictionaryEntry],
    transcript: list,
    collect_radial: bool,
):
    setup = alphabet.setup
    span = VectorSpan()
    new_entries: list[DictionaryEntry] = []
    vectors: list[dict] = []  # images of seeds + new_entries at the point
    radial: DictionaryEntry | None = None
    pool: dict[int, list[Word]] = {}
    pool_set: set[Word] = set()

    def admit(word: Word):
        pool.setdefault(word.length, []).append(word)
        pool_set.add(word)

    for e in seeds:
        vec = evaluate_to_vector(e.translation, point)
        if not span.add(vec):
            raise EngineError(
                f"independence inheritance failed for {e.word.render()}: "
                f"its image at the generic point is dependent"
            )
        vectors.append(vec)
        admit(e.word)
    if not seeds:
        empty = Word(())
        entry = DictionaryEntry(empty, phase_name, (0, 0), alphabet)
        vec = evaluate_to_vector(entry.translation, point)
        span.add(vec)
        vectors.append(vec)
        new_entries.append(entry)
        admit(empty)
        transcript.append((phase_name, "1", "kept"))

    sylls = alphabet.syllables()
    l = 1
    while pool.get(l - 1):
        seen: set[Word] = set()
        cands: list[Word] = []
        for w in pool.get(l - 1, []):
            last = w.syllables[-1].key() if w.syllables else None
            for s in sylls:
                if last is not None and s.key() < last:
                    continue
                cw = Word(w.syllables + (s,))
                if cw in pool_set or cw in seen:
                    continue
                seen.add(cw)
                ok = all(
                    Word(cw.syllables[:i] + cw.syllables[i + 1 :]) in pool_set
                    for i in range(l)
                )
                if ok:
                    cands.append(cw)
        cands.sort(key=Word.key)
        for cw in cands:
            p, q = cw.bidegree
            if p > setup.horizontal_dim or q > setup.fiber_dim:
                transcript.append(
                    (phase_name, cw.render(), "pruned: bidegree overflow")
                )
                continue
            form = alphabet.translate(cw)
            if form.is_zero:
                transcript.append(
                    (phase_name, cw.render(), "pruned: zero translation")
                )
                continue
            if (p, q) == (0, 0):
                if collect_radial and radial is None:
                    radial = DictionaryEntry(cw, phase_name, (0, 0), alphabet)
                    transcript.append(
                        (phase_name, cw.render(), "radial invariant")
                    )
                else:
                    transcript.append(
                        (phase_name, cw.render(), "dependent: constant on orbits")
                    )
                continue
            vec = evaluate_to_vector(form, point)
            if not vec:
                transcript.append(
                    (phase_name, cw.render(), "dependent: evaluates to zero")
                )
                continue
            if span.add(vec):
                vectors.append(vec)
                new_entries.append(DictionaryEntry(cw, phase_name, (p, q), alphabet))
                admit(cw)
                transcript.append((phase_name, cw.render(), "kept"))
            else:
                transcript.append((phase_name, cw.render(), "dependent"))
        l += 1
    return new_entries, radial, vectors


def generate_dictionary(
    setup: HomogeneousSetup,
    letters: Sequence[Letter],
    contractions: Sequence[Contraction],
) -> Dictionary:
    alphabet = SymbolicAlphabet(setup, letters, contractions)
    _check_transitive_sphere(setup)
    origin_pt = setup.point([setup.field.zero] * setup.fiber_dim)
    v_pt = setup.point(setup.generic_point_vector())
    transcript: list[tuple[str, str, str]] = []
    c0, _, at_origin = _phase(alphabet, "origin", origin_pt, [], transcript, False)
    new, radial, at_generic = _phase(
        alphabet, "generic", v_pt, c0, transcript, True
    )
    dictionary = Dictionary(
        setup=setup,
        alphabet=alphabet,
        entries=c0 + new,
        radial=radial,
        transcript=transcript,
    )
    dictionary._origin_vectors = at_origin
    dictionary._generic_vectors = at_generic
    return dictionary
