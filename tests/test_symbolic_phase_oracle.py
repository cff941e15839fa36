"""Dictionary phases test independence on point values.

A candidate's value at the phase point is the value of its prefix wedged
with the value of its last syllable.  A (0,0) word or a word of value zero
is tested for a zero translation on its ray image, so generation translates
only the empty word, unless a syllable form is uncertified: then the word
is translated, with its prefixes.  This rests on evaluation
being a ring homomorphism, checked here with Hypothesis on both bundled
rings, and the result is checked against symbolic_phase_oracle.py, which
translates and evaluates every candidate: on su2_ts2, su3_tcp2, su2_ts2
with the radical square k+a1*a1, su3_tcp2 with two letters renamed so that
their alphabetical order is not their degree order, and on a letter that
has no value at the origin.  No cap on word length is needed: a kept word
has no syllable of degree 0 and fits its bidegree cell, so it has at most
n + k syllables, n = horizontal_dim and k = fiber_dim, and no candidate has
more than n + k + 1.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import generate_dictionary
from equiform.forms import evaluate_to_vector, map_form, wedge
from equiform.homogeneous import InvariantForm
from equiform.letters import Contraction
from equiform.scalars import PointError

import symbolic_phase_oracle as oracle
from form_strategies import ring_forms


def _realize(name, square=None, letters=None, renames=None):
    text = resolve_config(name)[1]
    for old, new in (renames or {}).items():
        text = re.sub(rf"\b{old}\b", new, text)
    doc = json.loads(text)
    if square is not None:
        doc["ring"]["radicals"][0]["square"] = square
    doc["letters"].update(letters or {})
    return realize_config(parse_config(json.dumps(doc)))


def _generate(kernel, rc):
    return kernel(rc.setup, list(rc.letters.values()), list(rc.contractions.values()))


def _entry_facts(e):
    return (e.word, e.phase, e.bidegree, isinstance(e.translation, InvariantForm))


VARIANTS = {
    "su2_ts2": ("su2_ts2", None),
    "su3_tcp2": ("su3_tcp2", None),
    "u=k+a1*a1": ("su2_ts2", "k+a1*a1"),
    # tbeta (degree 3) becomes alpha, before b and beta (degree 1), and eps
    # (degree 2) becomes w, last: letter names no longer follow degree
    "renamed": ("su3_tcp2", None, None, {"tbeta": "alpha", "eps": "w"}),
}


@pytest.fixture(scope="module", params=list(VARIANTS))
def generated(request):
    rc = _realize(*VARIANTS[request.param])
    return rc, _generate(generate_dictionary, rc), _generate(oracle.generate_dictionary, rc)


def test_generation_matches_the_symbolic_kernel(generated):
    rc, got, want = generated
    assert got.transcript == want.transcript
    assert [_entry_facts(e) for e in got.entries] == [
        _entry_facts(e) for e in want.entries
    ]
    assert [e.translation for e in got.entries] == [
        e.translation for e in want.entries
    ]
    assert _entry_facts(got.radial) == _entry_facts(want.radial)
    assert got.radial.translation == want.radial.translation
    assert got._generic_vectors == want._generic_vectors
    # the oracle left origin images for the origin phase only
    origin = rc.setup.point([rc.setup.field.zero] * rc.setup.fiber_dim)
    assert got._origin_vectors == [
        evaluate_to_vector(e.translation, origin) for e in got.entries
    ]
    assert got._origin_vectors[: len(want._origin_vectors)] == want._origin_vectors


ZERO_TESTED = {
    "pruned: zero translation",
    "dependent: evaluates to zero",
    "radial invariant",
    "dependent: constant on orbits",
}


def _prefixes(word: str) -> set[str]:
    syllables = word.split("*")
    return {"*".join(syllables[:i]) for i in range(1, len(syllables) + 1)}


@pytest.mark.parametrize("name", list(VARIANTS))
def test_only_words_that_need_a_symbolic_form_are_translated(name):
    # a fresh dictionary: reading an entry's translation builds it.  Every
    # syllable form is certified, so each zero test reads the word's ray
    # image and generation translates only the empty word, which the
    # alphabet starts with
    got = _generate(generate_dictionary, _realize(*VARIANTS[name]))
    assert any(verdict in ZERO_TESTED for _, _, verdict in got.transcript)
    assert {w.render() for w in got.alphabet._translations} == {"1"}


def test_an_uncertified_alphabet_still_translates():
    # a contraction built without make_contraction is not certified
    # invariant, so a ray image cannot decide the zero test of a word that
    # uses it: such words are translated, with their prefixes, and no other
    rc = _realize("su2_ts2")
    first = Contraction("first", 2, (((0, 0), 1),))
    letters = list(rc.letters.values())
    contractions = list(rc.contractions.values()) + [first]
    got = generate_dictionary(rc.setup, letters, contractions)
    want = oracle.generate_dictionary(rc.setup, letters, contractions)
    assert got.transcript == want.transcript
    uncertified = {
        word
        for _, word, verdict in got.transcript
        if verdict in ZERO_TESTED and "first(" in word
    }
    assert uncertified
    wanted = {"1"}.union(*(_prefixes(w) for w in uncertified))
    assert {w.render() for w in got.alphabet._translations} == wanted


BOUNDED = {
    **VARIANTS,
    "u=k*aa": ("su2_ts2", "k*aa"),
    "c=u^-1*e": ("su2_ts2", None, {"c": ["u^-1*e1", "u^-1*e2"]}),
    "first": ("su2_ts2",),
}


@pytest.mark.parametrize("name", list(BOUNDED))
def test_the_bidegree_bounds_every_word(name):
    rc = _realize(*BOUNDED[name])
    contractions = list(rc.contractions.values())
    if name == "first":
        contractions.append(Contraction("first", 2, (((0, 0), 1),)))
    got = generate_dictionary(rc.setup, list(rc.letters.values()), contractions)
    n, k = rc.setup.horizontal_dim, rc.setup.fiber_dim
    assert any(s.degree == 0 for s in got.alphabet.syllables())
    assert all(s.degree for e in got.entries for s in e.word.syllables)
    assert max(e.word.length for e in got.entries) <= n + k
    assert max(len(w.split("*")) for _, w, _ in got.transcript) <= n + k + 1


def test_point_error_raises_alike():
    # a/s has no value at the origin, where s = 0
    rc = _realize("su3_tcp2", letters={"c": [f"a{i}*s^-1" for i in range(1, 5)]})
    errors = []
    for kernel in (generate_dictionary, oracle.generate_dictionary):
        with pytest.raises(PointError) as info:
            _generate(kernel, rc)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "negative power of zero while evaluating s"


# -- evaluation is a ring homomorphism on forms ----------------------------------


@pytest.mark.parametrize("name", ["su2_setup", "su3_setup"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluation_commutes_with_wedge(request, name, data):
    setup = request.getfixturevalue(name)
    x = data.draw(ring_forms(setup.frame))
    y = data.draw(ring_forms(setup.frame))
    origin = setup.point([setup.field.zero] * setup.fiber_dim)
    for pt in (origin, setup.point(setup.generic_point_vector())):
        try:
            values = map_form(x, pt), map_form(y, pt)
        except PointError:
            continue  # a negative power of a radical that vanishes here
        assert map_form(wedge(x, y), pt) == wedge(*values)
