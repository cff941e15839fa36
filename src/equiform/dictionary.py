"""Two-phase elimination producing a minimal dictionary of invariant forms.

Words are nondecreasing sequences of syllables; a syllable applies an
invariant contraction to a tuple of letters.  Phase one keeps the words
whose values at the origin are independent, phase two extends that set at
a generic point of the fiber.  Under the two-orbit-type hypothesis (the
gauge group acts transitively on fiber spheres, which generation proves
first) the two points decide everything, and the per-bidegree
cardinalities must match the stabilizer-invariant dimension counts.

Phases test independence on point values, sparse vectors {basis word:
canonical coefficient}: a word's vector is its prefix's wedged with its
last syllable's (forms.wedge_vectors), which is the value of its
translation, evaluation being a ring homomorphism.  A candidate word is a
tuple of indices into the sorted syllables until it reaches a verdict.  A
(0,0) word or a word of value zero takes the zero test on its ray image,
composed the same way and exact for invariant forms under the hypothesis,
which every word is: contract_syllable takes only letters and
contractions that make_letter and make_contraction checked.  So generation
translates only the empty word; an entry is translated when a task first
reads it as a form.  The differential table reads none: d of a word
reaches its solve on the ray, composed by the Leibniz rule from its
syllables' ray images and d.

The (0,0) cell is special: beyond the empty word every rotation-invariant
function evaluates to a constant at a single point, so the first nonzero
word of bidegree (0,0) is recorded as the distinguished radial invariant
instead of joining the partition.  Coefficients in expressed combinations
are Laurent polynomials in the radial square root.

Expressing a form solves span systems per bidegree cell over columns s^e
times a product of entries, restricted to the ray a = t*e1
(Ring.ray_restriction, a scalars.RingMap like evaluation at a point, the
identity when the one-fiber ring refuses a restricted radical square).  An
invariant form vanishes exactly when its ray image does, so restriction
keeps every relation, and a target that is not an InvariantForm is checked
first.  A product's ray image is composed syllable by syllable.

Fiber dilation commutes with the gauge action and with d, so it grades the
columns (_dilation_weigher); an entry weighs the sum of its syllables'
weights and s^e weighs 2e.  When the ray ring has the one fiber coordinate
a1 and every entry has one weight, a cell splits into a block per weight
the target carries, each solved at t = 1: on the ray a1 = t, and so does
every radical whose ray square is a1^2, so a weighted coordinate keeps its
basis word, its parameters and the other radicals' slots, which fix its
power of t within the block.  A block has one column per product, with
s^e read back into its coefficient; a target's weightless part has no
column there.  Otherwise the system is one block of the columns
s^e * product, keyed by full monomials.  No span depends on the target, so each is kept on the
Dictionary per (cell, weight, Laurent window, triples).

Generation ends by itself.  A syllable of degree 0 is a scalar at a
point, so a word that contains it is a multiple of the word without it,
which is pooled: it is never kept.  With bidegree overflow pruned, a kept
word has at most horizontal_dim + fiber_dim syllables.

Generation can stop at a total degree (generate_dictionary's max_degree).  A
word's subwords have at most its degree, and values of different
bidegrees have disjoint supports, so the bounded dictionary's entries,
radial invariant and verdicts are the full dictionary's of degree up to
the bound, in the same order.  A task that reads cells up to degree D
needs no more: d raises degree by one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Sequence

from equiform.expressions import MAX_EXPONENT
from equiform.forms import (
    Form,
    bidegree_split,
    map_form,
    point_vector,
    wedge,
    wedge_vectors,
)
from equiform.homogeneous import (
    HomogeneousSetup,
    InvariantForm,
    exterior_derivative,
    is_basic,
    is_invariant,
)
from equiform.letters import Contraction, Letter, contract_syllable
from equiform.linalg import VectorSpan, vec_iadd_scaled
from equiform.scalars import Point, Ring, Scalar


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class Syllable:
    """One contraction applied to a tuple of letters, with its bidegree."""

    contraction: str
    letters: tuple[str, ...]
    bidegree: tuple[int, int]

    # the dataclass hash, computed once: words are set and dict keys
    def __post_init__(self):
        key = (self.contraction, self.letters, self.bidegree)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.bidegree[0] + self.bidegree[1]

    def key(self):
        return (self.degree, self.contraction, self.letters)

    def render(self) -> str:
        return f"{self.contraction}({','.join(self.letters)})"


@dataclass(frozen=True)
class Word:
    """A formal product of syllables; the empty word translates to 1."""

    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.syllables,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        return len(self.syllables)

    @property
    def bidegree(self) -> tuple[int, int]:
        p = sum(s.bidegree[0] for s in self.syllables)
        q = sum(s.bidegree[1] for s in self.syllables)
        return (p, q)

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.syllables)

    def key(self):
        return (len(self.syllables), tuple(s.key() for s in self.syllables))

    def render(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(s.render() for s in self.syllables)


class Alphabet:
    """Letters plus contractions, with the derived syllable universe, up to
    a total degree when max_degree is set."""

    def __init__(
        self,
        setup: HomogeneousSetup,
        letters: Sequence[Letter],
        contractions: Sequence[Contraction],
        max_degree: int | None = None,
    ):
        self.setup = setup
        self.max_degree = max_degree
        self.letters: dict[str, Letter] = {}
        for let in letters:
            if let.name in self.letters:
                raise EngineError(f"duplicate letter name {let.name}")
            self.letters[let.name] = let
        self.contractions: dict[str, Contraction] = {}
        for m in contractions:
            if m.name in self.contractions:
                raise EngineError(f"duplicate contraction name {m.name}")
            self.contractions[m.name] = m
        self._syllables: list[Syllable] | None = None
        self._syllable_forms: dict[Syllable, Form] = {}
        self._translations: dict[Word, Form] = {
            Word(()): InvariantForm.of(setup.frame.one)
        }

    def syllables(self) -> list[Syllable]:
        """All syllables with nonzero translation, in the fixed total order:
        (total degree, contraction name, letter-name tuple).  With a degree
        bound, only those of degree at most it are contracted: they are a
        prefix of the unbounded list."""
        if self._syllables is None:
            out = []
            names = sorted(self.letters)
            bound = self.max_degree
            for cname in sorted(self.contractions):
                m = self.contractions[cname]
                for tup in combinations_with_replacement(names, m.arity):
                    lets = tuple(self.letters[n] for n in tup)
                    p = sum(l.bidegree[0] for l in lets)
                    q = sum(l.bidegree[1] for l in lets)
                    if bound is not None and p + q > bound:
                        continue
                    form = contract_syllable(m, lets)
                    if form.is_zero:
                        continue
                    syll = Syllable(cname, tup, (p, q))
                    self._syllable_forms[syll] = form
                    out.append(syll)
            out.sort(key=Syllable.key)
            self._syllables = out
        return self._syllables

    def syllable_form(self, syll: Syllable) -> Form:
        if syll not in self._syllable_forms:
            m = self.contractions[syll.contraction]
            lets = tuple(self.letters[n] for n in syll.letters)
            self._syllable_forms[syll] = contract_syllable(m, lets)
        return self._syllable_forms[syll]

    def translate(self, word: Word) -> InvariantForm:
        """The wedge of the syllable forms, an InvariantForm since each of
        them is one.  Memoized: a word is the translation of its prefix (the
        word without its last syllable) wedged with the last syllable form."""
        out = self._translations.get(word)
        if out is None:
            head = self.translate(Word(word.syllables[:-1]))
            out = InvariantForm.of(wedge(head, self.syllable_form(word.syllables[-1])))
            self._translations[word] = out
        return out


@dataclass
class DictionaryEntry:
    """A dictionary word.  Its translation is built on first read, through
    the alphabet's memo."""

    word: Word
    phase: str  # "origin" or "generic"
    bidegree: tuple[int, int]
    alphabet: Alphabet = dc_field(repr=False, compare=False)

    @property
    def translation(self) -> Form:
        return self.alphabet.translate(self.word)


@dataclass
class Dictionary:
    setup: HomogeneousSetup
    alphabet: Alphabet
    entries: list[DictionaryEntry]
    radial: DictionaryEntry | None
    transcript: list[tuple[str, str, str]]
    # filled on first use by express_in_generators; entries are fixed once
    # the dictionary is built, so weights and columns are keyed by entry
    # indices, radial powers by Laurent window
    _weights: list[int | None] | None = dc_field(
        default=None, init=False, repr=False, compare=False
    )
    _windows: dict[tuple[int, int], tuple] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _columns: dict[tuple[int, ...], dict] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _spans: dict[tuple, VectorSpan] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # left by generate_dictionary for completeness_check: the images of
    # every entry at the origin and at the generic point, in entry order
    _origin_vectors: list[dict] = dc_field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _generic_vectors: list[dict] = dc_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def max_degree(self) -> int | None:
        """The degree bound it was generated with; None for the full
        dictionary."""
        return self.alphabet.max_degree

    def per_bidegree(self) -> dict[tuple[int, int], list[DictionaryEntry]]:
        out: dict[tuple[int, int], list[DictionaryEntry]] = {}
        for e in self.entries:
            out.setdefault(e.bidegree, []).append(e)
        return dict(sorted(out.items()))

    def counts(self) -> dict[tuple[int, int], int]:
        return {cell: len(v) for cell, v in self.per_bidegree().items()}

    def origin_entries(self) -> list[DictionaryEntry]:
        return [e for e in self.entries if e.phase == "origin"]

    def _entry_weights(self) -> list[int | None]:
        """Dilation weight of each entry: the sum of its syllables' weights,
        None when a syllable has no single weight."""
        if self._weights is None:
            weigh = _dilation_weigher(self.setup)
            weights = {
                s: _single_weight(weigh, self.alphabet.syllable_form(s))
                for s in {s for e in self.entries for s in e.word.syllables}
            }
            self._weights = []
            for e in self.entries:
                found = [weights[s] for s in e.word.syllables]
                self._weights.append(None if None in found else sum(found))
        return self._weights

    def _radial_window(self, lo: int, hi: int):
        """The radial powers (e, s^e) of the Laurent window lo..hi and their
        ray images, cached by window.  A window the ring cannot represent
        raises, and is never cached."""
        window = self._windows.get((lo, hi))
        if window is None:
            powers = _radial_powers(self.setup, lo, hi)
            restrict = self.setup.ring.ray_restriction
            window = (powers, [(ex, restrict(sc)) for ex, sc in powers])
            self._windows[lo, hi] = window
        return window

    @cached_property
    def _on_ray(self) -> "_WordImages":
        """Ray images of words and of their d; generation hands over its
        zero tests' images."""
        return _WordImages.on_ray(self.alphabet)

    def _ray_product(self, tag: tuple[int, ...]) -> Form:
        """Wedge of the ray images of the entries at these indices: the ray
        image of their syllables in turn, wedge being associative."""
        return self._on_ray.of(sum((self.entries[i].word.syllables for i in tag), ()))

    @cached_property
    def _ray_weigher(self):
        """The dilation weigher of ray coordinates, or None when the system
        is ungraded: when the ray ring kept more fiber coordinates than a1,
        or an entry has no single weight."""
        ring = self.setup.ring.ray_restriction.target
        if ring.nf != 1 or None in self._entry_weights():
            return None
        return _dilation_weigher(self.setup, ring)

    @cached_property
    def _ray_key(self):
        """The slots a weighted ray coordinate keeps at t = 1: the parameters
        and each radical whose ray square is not a1^2."""
        ring = self.setup.ring.ray_restriction.target
        merged = ring.radicals_squaring_to(ring.radial_square)
        slots = list(range(ring.nf, ring.nf + ring.np))
        for j, name in enumerate(ring.radical_names):
            if name not in merged:
                slots += [ring.radical_slot(j), ring.denominator_slot(j)]
        return itemgetter(*slots) if slots else lambda mono: ()

    def _blocks(self, x: Form) -> dict:
        """A ray image split by dilation weight into sparse vectors, a
        weighted coordinate keyed by (basis word, _ray_key) at t = 1, a
        weightless one by (basis word, monomial)."""
        weigh, key = self._ray_weigher, self._ray_key
        blocks: dict[int | None, dict] = {}
        for mask, sc in x.terms.items():
            for mono, c in sc.coeffs.items():
                w = None if weigh is None else weigh(mask, mono)
                k = (mask, mono if w is None else key(mono))
                vec_iadd_scaled(blocks.setdefault(w, {}), {k: c}, 1)
        return blocks

    def _column(self, tag: tuple[int, ...], weight: int) -> dict:
        """The t = 1 block of the tag's ray product at its weight, built once
        and shared by every power s^e."""
        if tag not in self._columns:
            blocks = self._blocks(self._ray_product(tag))
            self._columns[tag] = blocks.get(weight, {})
        return self._columns[tag]

    def _span(self, cell, weight, window, triples: bool) -> VectorSpan:
        """The tracked span of one block of a cell, kept, with columns tagged
        (tag, e).  A weight block takes a tag's t = 1 column for the power
        s^e that brings it to the weight.  The None block of an ungraded
        system takes s^e times the ray product for every power; in a graded
        system every column has a weight, so its None block has none."""
        key = (cell, weight, window, triples)
        span = self._spans.get(key)
        if span is not None:
            return span
        span = VectorSpan(track=True)
        _, powers = self._radial_window(*window)
        weights = self._entry_weights()
        graded = self._ray_weigher is not None
        tags = [] if weight is None and graded else self._tags(cell, triples)
        for tag in tags:
            if weight is None:
                prod = self._ray_product(tag)
                cols = [(ex, self._blocks(sc * prod).get(None)) for ex, sc in powers]
            else:
                w = sum(weights[i] for i in tag)
                cols = [
                    (ex, self._column(tag, w))
                    for ex, _ in powers
                    if w + 2 * ex == weight
                ]
            for ex, col in cols:
                if col:
                    span.add(col, (tag, ex))
        self._spans[key] = span
        return span

    def _tags(self, cell, triples: bool) -> list[tuple[int, ...]]:
        """The entries of the cell, then the products of two (and three)
        entries of positive length that land in it, as index tuples."""
        cells = [e.bidegree for e in self.entries]
        tags = [(i,) for i, c in enumerate(cells) if c == cell]
        fits = [
            i
            for i, (p, q) in enumerate(cells)
            if self.entries[i].word.length and p <= cell[0] and q <= cell[1]
        ]
        # a product's last factor is the cell minus its other factors
        for r in (2, 3) if triples else (2,):
            for head in combinations_with_replacement(range(len(fits)), r - 1):
                tag = tuple(fits[k] for k in head)
                p = cell[0] - sum(cells[i][0] for i in tag)
                q = cell[1] - sum(cells[i][1] for i in tag)
                tags.extend(tag + (i,) for i in fits[head[-1] :] if cells[i] == (p, q))
        return tags


def _check_transitive_sphere(setup: HomogeneousSetup) -> int:
    """Prove that the gauge group acts transitively on the fiber's unit
    sphere; returns the dimension of the generic stabilizer, at t*e1.

    rho is skew, so the connected group H the gauge algebra generates lies
    in SO(k).  For k >= 2, H is transitive on S^(k-1) exactly when its orbit
    through e1, of dimension dim gauge - dim stab(e1), is k - 1: the closure
    of H is compact and normalizes H, so every H-orbit is then open, and the
    sphere is connected.  For k = 1 the sphere is two points."""
    k = setup.fiber_dim
    if k < 2:
        raise EngineError(
            "transitive-sphere hypothesis violated: a one-dimensional fiber "
            "has a disconnected unit sphere"
        )
    dimv = len(setup._generic_stabilizer)
    orbit = len(setup.splitting.gauge) - dimv
    if orbit != k - 1:
        raise EngineError(
            "transitive-sphere hypothesis violated: the orbit of e1 has "
            f"dimension {orbit}, not {k - 1}"
        )
    return dimv


class _WordImages:
    """Images of words under one ring map, memoized by word key.

    A key is a tuple of syllables or of syllable indices; syllable(last)
    images a key's last entry, once per syllable, and a word's image is
    multiply(image of its prefix, image of its last syllable).  The map is
    a ring homomorphism, so this is the image of the word's translation,
    which is never built.  At a Point (at_point) keys are indices into
    Alphabet.syllables() and images are sparse vectors {basis word:
    canonical coefficient}, multiplied by wedge_vectors, with {0: 1} for
    the empty word.  On the ray (on_ray) keys are a word's syllables and
    images are Forms, multiplied by wedge; there derive(last) images d of a
    syllable, once per syllable, and d of a word is composed by the graded
    Leibniz rule (d).
    """

    def __init__(self, syllable, multiply, empty, derive=None):
        self.syllable = syllable
        self.multiply = multiply
        self.derive = derive
        self._syllables: dict = {}
        self._words: dict[tuple, object] = {(): empty}
        self._syllable_ds: dict = {}
        self._word_ds: dict[tuple, object] = {}

    @classmethod
    def at_point(cls, alphabet: Alphabet, pt: Point) -> "_WordImages":
        sylls = alphabet.syllables()
        return cls(
            lambda i: point_vector(map_form(alphabet.syllable_form(sylls[i]), pt)),
            wedge_vectors,
            {0: 1},
        )

    @classmethod
    def on_ray(cls, alphabet: Alphabet) -> "_WordImages":
        setup = alphabet.setup
        restrict = setup.ring.ray_restriction
        return cls(
            lambda s: map_form(alphabet.syllable_form(s), restrict),
            wedge,
            map_form(setup.frame.one, restrict),
            # on the basic frame, refused unless the syllable is invariant
            lambda s: map_form(
                exterior_derivative(setup, alphabet.syllable_form(s)), restrict
            ),
        )

    def _syllable(self, last):
        image = self._syllables.get(last)
        if image is None:
            image = self._syllables[last] = self.syllable(last)
        return image

    def of(self, key: tuple):
        image = self._words.get(key)
        if image is None:
            syll = self._syllable(key[-1])
            image = self.multiply(self.of(key[:-1]), syll)
            self._words[key] = image
        return image

    def d(self, key: tuple[Syllable, ...]):
        """The image of d of a nonempty word of syllables: for prefix p and
        last syllable s, d(p s) = dp s + (-1)^|p| p ds, each factor's image
        memoized, the map being a ring homomorphism that commutes with
        wedge.  No translation is built, and d runs on syllable forms only."""
        image = self._word_ds.get(key)
        if image is None:
            head, last = key[:-1], key[-1]
            ds = self._syllable_ds.get(last)
            if ds is None:
                ds = self._syllable_ds[last] = self.derive(last)
            image = ds
            if head:
                image = self.multiply(self.of(head), ds)
                if sum(s.degree for s in head) & 1:
                    image = -image
                image = self.multiply(self.d(head), self._syllable(last)) + image
            self._word_ds[key] = image
        return image


def _phase(
    alphabet: Alphabet,
    phase_name: str,
    values: _WordImages,
    on_ray: _WordImages,
    seeds: Sequence[tuple[int, ...]],
    transcript: list,
    collect_radial: bool,
):
    """Extend the seeds, words as syllable-index tuples, by the words whose
    values at the point are independent.  Candidates stay index tuples:
    syllables are sorted by Syllable.key, whose values are distinct, so
    index order is syllable order.  A candidate becomes a Word when it
    reaches a verdict.  One of bidegree (0,0) or value zero takes the zero
    test, which tells a zero translation from one that vanishes at the
    point: on its ray image, exact under the transitive-sphere hypothesis
    for an invariant form, which every word is, so no word is translated.
    Under the alphabet's degree bound, a word is extended only by the
    syllables that keep it within the bound: syllables are sorted by degree
    first, so these are a prefix.  Returns the new entries, their index
    tuples and the radial entry."""
    setup = alphabet.setup
    sylls = alphabet.syllables()
    bidegrees = [s.bidegree for s in sylls]
    degrees = [s.degree for s in sylls]
    bound = alphabet.max_degree
    span = VectorSpan()
    new_entries: list[DictionaryEntry] = []
    new_keys: list[tuple[int, ...]] = []
    radial: DictionaryEntry | None = None
    pool: dict[int, list[tuple[int, ...]]] = {}
    pooled: set[tuple[int, ...]] = set()

    def admit(key: tuple[int, ...]):
        pool.setdefault(len(key), []).append(key)
        pooled.add(key)

    for key in seeds:
        if not span.add(values.of(key)):
            word = Word(tuple(sylls[i] for i in key))
            raise EngineError(
                f"independence inheritance failed for {word.render()}: "
                f"its image at the generic point is dependent"
            )
        admit(key)
    if not seeds:
        span.add(values.of(()))
        new_entries.append(DictionaryEntry(Word(()), phase_name, (0, 0), alphabet))
        new_keys.append(())
        admit(())
        transcript.append((phase_name, "1", "kept"))

    l = 1
    while pool.get(l - 1):
        # a candidate extends one pooled word w, its prefix, so it is met
        # once; w is pooled, and every other subword must be
        cands: list[tuple[int, ...]] = []
        for w in pool[l - 1]:
            stop = len(sylls)
            if bound is not None:
                stop = bisect_right(degrees, bound - sum(degrees[i] for i in w))
            for i in range(w[-1] if w else 0, stop):
                cw = w + (i,)
                if cw not in pooled and all(
                    cw[:j] + cw[j + 1 :] in pooled for j in range(l - 1)
                ):
                    cands.append(cw)
        cands.sort()
        for cw in cands:
            word = Word(tuple(sylls[i] for i in cw))
            p = q = 0
            for i in cw:
                p += bidegrees[i][0]
                q += bidegrees[i][1]
            if p > setup.horizontal_dim or q > setup.fiber_dim:
                transcript.append(
                    (phase_name, word.render(), "pruned: bidegree overflow")
                )
                continue
            value = None if (p, q) == (0, 0) else values.of(cw)
            if not value:
                if not on_ray.of(word.syllables):
                    verdict = "pruned: zero translation"
                elif value is not None:
                    verdict = "dependent: evaluates to zero"
                elif collect_radial and radial is None:
                    radial = DictionaryEntry(word, phase_name, (0, 0), alphabet)
                    verdict = "radial invariant"
                else:
                    verdict = "dependent: constant on orbits"
            elif span.add(value):
                new_entries.append(DictionaryEntry(word, phase_name, (p, q), alphabet))
                new_keys.append(cw)
                admit(cw)
                verdict = "kept"
            else:
                verdict = "dependent"
            transcript.append((phase_name, word.render(), verdict))
        l += 1
    return new_entries, new_keys, radial


def generate_dictionary(
    setup: HomogeneousSetup,
    letters: Sequence[Letter],
    contractions: Sequence[Contraction],
    max_degree: int | None = None,
) -> Dictionary:
    alphabet = Alphabet(setup, letters, contractions, max_degree)
    _check_transitive_sphere(setup)
    at_origin = _WordImages.at_point(alphabet, setup.point([0] * setup.fiber_dim))
    at_generic = _WordImages.at_point(
        alphabet, setup.point(setup.generic_point_vector())
    )
    on_ray = _WordImages.on_ray(alphabet)
    transcript: list[tuple[str, str, str]] = []
    c0, k0, _ = _phase(alphabet, "origin", at_origin, on_ray, [], transcript, False)
    new, k1, radial = _phase(
        alphabet, "generic", at_generic, on_ray, k0, transcript, True
    )
    dictionary = Dictionary(
        setup=setup,
        alphabet=alphabet,
        entries=c0 + new,
        radial=radial,
        transcript=transcript,
    )
    dictionary._on_ray = on_ray
    # every syllable of a generic-phase word was a length-one candidate of
    # the origin phase, so its value there is known: nothing new is evaluated
    keys = k0 + k1
    dictionary._origin_vectors = [at_origin.of(k) for k in keys]
    dictionary._generic_vectors = [at_generic.of(k) for k in keys]
    return dictionary


# -- completeness -------------------------------------------------------------


@dataclass(frozen=True)
class CompletenessCell:
    bidegree: tuple[int, int]
    span_origin: int
    target_origin: int
    span_generic: int
    target_generic: int

    @property
    def passed(self) -> bool:
        return (
            self.span_origin == self.target_origin
            and self.span_generic == self.target_generic
        )


@dataclass(frozen=True)
class CompletenessReport:
    cells: tuple[CompletenessCell, ...]
    stabilizer_dim_origin: int
    stabilizer_dim_generic: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def cell(self, bidegree) -> CompletenessCell:
        for c in self.cells:
            if c.bidegree == tuple(bidegree):
                return c
        raise KeyError(bidegree)


def completeness_check(
    setup: HomogeneousSetup,
    dictionary: Dictionary,
) -> CompletenessReport:
    """Direct span of the dictionary images against the invariant dimensions
    at both stabilizers, cell by cell.

    A dictionary from generate_dictionary carries every image; those of
    any other dictionary are composed here from its syllables' values.  A
    dictionary bounded in degree misses the cells above its bound, and is
    refused."""
    if dictionary.max_degree is not None:
        raise EngineError(
            "completeness needs the full dictionary, not one bounded at "
            f"degree {dictionary.max_degree}"
        )
    k = setup.fiber_dim
    tables = setup.invariant_dimension_tables()
    entries = dictionary.entries
    origin, generic = dictionary._origin_vectors, dictionary._generic_vectors
    if dictionary.setup is not setup or len(origin) < len(entries):
        alphabet = dictionary.alphabet
        index = {s: i for i, s in enumerate(alphabet.syllables())}
        keys = [tuple(index[s] for s in e.word.syllables) for e in entries]

        def images(point) -> list[dict]:
            values = _WordImages.at_point(alphabet, point)
            return [values.of(key) for key in keys]

        origin = images(setup.point([0] * k))
        generic = images(setup.point(setup.generic_point_vector()))
    spans: dict[tuple[int, int], tuple[VectorSpan, VectorSpan]] = {}
    for e, at_origin, at_generic in zip(entries, origin, generic):
        cell = e.bidegree
        if cell not in spans:
            spans[cell] = (VectorSpan(), VectorSpan())
        spans[cell][0].add(at_origin)
        spans[cell][1].add(at_generic)
    empty = (VectorSpan(), VectorSpan())
    cells = [
        CompletenessCell(
            bidegree=(p, q),
            span_origin=spans.get((p, q), empty)[0].rank,
            target_origin=tables.origin[p][q],
            span_generic=spans.get((p, q), empty)[1].rank,
            target_generic=tables.generic[p][q],
        )
        for p in range(setup.horizontal_dim + 1)
        for q in range(k + 1)
    ]
    return CompletenessReport(
        cells=tuple(cells),
        stabilizer_dim_origin=tables.stabilizer_dim_origin,
        stabilizer_dim_generic=tables.stabilizer_dim_generic,
    )


# -- expressing forms over the dictionary --------------------------------------


@dataclass(frozen=True)
class CombinationTerm:
    coefficient: Scalar
    factors: tuple[Word, ...]

    def render(self) -> str:
        prod = "*".join(w.render() for w in self.factors)
        c = str(self.coefficient)
        if c == "1":
            return prod
        if c == "-1":
            return f"-{prod}"
        if "+" in c or ("-" in c and not c.startswith("-")) or "-" in c[1:]:
            return f"({c})*{prod}"
        return f"{c}*{prod}"


@dataclass(frozen=True)
class GeneratorCombination:
    terms: tuple[CombinationTerm, ...]
    residual: bool
    failed_cells: tuple[tuple[int, int], ...] = ()

    def render(self) -> str:
        if self.residual:
            inside = ", ".join(str(c) for c in self.failed_cells)
            return f"<no expression within bounds; failing cells {inside}>"
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            r = t.render()
            if parts and not r.startswith("-"):
                parts.append("+" + r)
            else:
                parts.append(r)
        return "".join(parts)

    def as_form(self, dictionary: Dictionary) -> Form:
        """Re-assemble the combination into a Form (for cross-checking)."""
        out = dictionary.setup.frame.zero
        for t in self.terms:
            prod = dictionary.setup.frame.one
            for w in t.factors:
                prod = wedge(prod, dictionary.alphabet.translate(w))
            out = out + t.coefficient * prod
        return out


def _radial_powers(setup: HomogeneousSetup, lo: int, hi: int):
    """Available powers of the radial invariant: s^e when the ring declares
    a radical with square |a|^2, else even powers of |a|^2 with e >= 0.
    The window must lie within the exponents the ring can represent."""
    ring = setup.ring
    aa = ring.radial_square
    radial = ring.radicals_squaring_to(aa)
    if hi > MAX_EXPONENT:
        raise EngineError(
            f"Laurent bound {hi} exceeds the exponent bound {MAX_EXPONENT}"
        )
    if radial and lo < -ring.depth:
        raise EngineError(
            f"Laurent bound {lo} is below the depth bound -{ring.depth} "
            f"of the radial radical {radial[0]}"
        )
    powers = []
    if radial:
        s = ring.var(radial[0])
        for e in range(lo, hi + 1):
            powers.append((e, s**e))
    else:
        for e in range(max(lo, 0), hi + 1):
            if e % 2 == 0:
                powers.append((e, aa ** (e // 2)))
    return powers


def _dilation_weigher(setup: HomogeneousSetup, ring: Ring | None = None):
    """The weight of a coordinate (mask, monomial) under fiber dilation, in
    half-units: 2 per vertical generator and per fiber exponent, deg(p_j)
    per visible power of a radical whose square p_j is homogeneous of fiber
    degree deg(p_j), 0 for horizontal generators and parameters.  A
    coordinate using a radical with an inhomogeneous square weighs None.
    Monomials are those of ring, by default the setup's, or its ray ring's."""
    ring = ring or setup.ring
    nf = ring.nf
    degrees: list[int | None] = []
    for square in ring.radical_squares:
        found = {sum(mono[:nf]) for mono in square}
        degrees.append(found.pop() if len(found) == 1 else None)
    vertical = setup.frame.vertical_mask

    def weigh(mask: int, mono) -> int | None:
        w = 2 * ((mask & vertical).bit_count() + sum(mono[:nf]))
        for j, deg in enumerate(degrees):
            e = ring.visible_radical_exponent(mono, j)
            if e:
                if deg is None:
                    return None
                w += deg * e
        return w

    return weigh


def _single_weight(weigh, x: Form) -> int | None:
    found = {weigh(mask, mono) for mask, sc in x.terms.items() for mono in sc.coeffs}
    return found.pop() if len(found) == 1 else None


def _laurent_powers(dictionary: Dictionary, degree_bounds: tuple[int, int]):
    """The radial powers (e, s^e) of the window degree_bounds = (hi, lo),
    refusing an empty window or one the ring cannot represent."""
    hi, lo = degree_bounds
    if lo > hi:
        raise EngineError(f"empty Laurent window ({hi}, {lo})")
    return dictionary._radial_window(lo, hi)[0]


def _solve_on_ray(
    dictionary: Dictionary,
    on_ray: Form,
    degree_bounds: tuple[int, int],
    allow_triples: bool,
) -> GeneratorCombination:
    """Express the ray image of an invariant basic form, cell by cell: each
    block of the cell (Dictionary._blocks) is reduced against its own span
    (Dictionary._span), and coefficients are read back as full-ring powers
    of the radius."""
    powers = dict(_laurent_powers(dictionary, degree_bounds))
    hi, lo = degree_bounds
    ring = dictionary.setup.ring
    terms: list[CombinationTerm] = []
    failed: list[tuple[int, int]] = []
    for cell, part in bidegree_split(on_ray).items():
        combo: dict | None = {}
        for weight, vec in dictionary._blocks(part).items():
            span = dictionary._span(cell, weight, (lo, hi), allow_triples)
            found = span.combination(vec)
            if found is None:
                combo = None
                break
            combo.update(found)
        if combo is None:
            failed.append(cell)
            continue
        grouped: dict[tuple[int, ...], Scalar] = {}
        for (tag, ex), c in combo.items():
            grouped[tag] = grouped.get(tag, ring.zero) + c * powers[ex]
        for tag in sorted(grouped, key=lambda t: (len(t), t)):
            coeff = grouped[tag]
            if coeff.is_zero:
                continue
            words = tuple(dictionary.entries[i].word for i in tag)
            terms.append(CombinationTerm(coefficient=coeff, factors=words))
    return GeneratorCombination(
        terms=tuple(terms), residual=bool(failed), failed_cells=tuple(failed)
    )


def express_in_generators(
    setup: HomogeneousSetup,
    dictionary: Dictionary,
    target: Form,
    degree_bounds: tuple[int, int] = (4, -2),
    allow_triples: bool = False,
) -> GeneratorCombination:
    """Solve target = sum of Laurent-in-s coefficients times generator
    products, exactly, preferring single generators over products.

    Each bidegree cell of the target is solved on the ray a = t*e1, which
    keeps every relation among invariant forms, so the target must be basic
    and invariant: any target but an InvariantForm is checked once first.
    A cell whose ray image is zero takes no term.
    """
    if not is_basic(setup, target):
        raise EngineError("target is not an invariant basic form")
    _laurent_powers(dictionary, degree_bounds)  # a bad window is refused first
    # restriction to the ray is injective on invariant forms only
    if not isinstance(target, InvariantForm) and not is_invariant(setup, target):
        raise EngineError("target is not an invariant basic form")
    on_ray = map_form(target, setup.ring.ray_restriction)
    return _solve_on_ray(dictionary, on_ray, degree_bounds, allow_triples)


# -- the differential table -----------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    kind: str  # "radial" or "generator"
    word: Word
    differential: GeneratorCombination

    def render(self) -> str:
        return f"d({self.word.render()}) = {self.differential.render()}"


def differential_table(
    setup: HomogeneousSetup,
    dictionary: Dictionary,
    max_degree: int,
    degree_bounds: tuple[int, int] = (4, -2),
    allow_triples: bool = False,
) -> list[TableRow]:
    """d of the radial invariant and of every generator of total degree up
    to max_degree, expressed over the dictionary.  A row with no expression
    within the bounds is kept, with a residual combination.  No word is
    translated: d of each row's word reaches the solve on the ray, composed
    from its syllables' images and their d (_WordImages.d), which run on
    the dictionary's own setup."""
    jobs: list[tuple[str, DictionaryEntry]] = []
    if dictionary.radial is not None:
        jobs.append(("radial", dictionary.radial))
    for e in dictionary.entries:
        if 1 <= e.word.degree <= max_degree:
            jobs.append(("generator", e))
    on_ray = dictionary._on_ray
    rows: list[TableRow] = []
    for kind, e in jobs:
        d = on_ray.d(e.word.syllables)
        comb = _solve_on_ray(dictionary, d, degree_bounds, allow_triples)
        rows.append(TableRow(kind=kind, word=e.word, differential=comb))
    return rows
