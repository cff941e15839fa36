"""Dictionary generation, completeness, expression and the differential table.

The per-cell cardinalities asserted here were frozen from independent
stabilizer-invariant dimension counts (see test_homogeneous for the raw
tables); the pinned differential rows were derived by hand from the
curvature of the canonical connection and cross-checked symbolically.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from equiform import dictionary as dictionary_module
from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import (
    Alphabet,
    EngineError,
    Word,
    _check_transitive_sphere,
    completeness_check,
    differential_table,
    express_in_generators,
    generate_dictionary,
)
from equiform.expressions import parse_form_expression
from equiform.forms import evaluate_to_vector, wedge
from equiform.homogeneous import (
    Splitting,
    exterior_derivative,
    make_algebra,
    make_representation,
    validate_setup,
)
from equiform.letters import letter_a, letter_b, dot_contraction
from equiform.numberfield import NumberField

from spot_check_oracle import spot_check_transitive_sphere

# Frozen: minimal dictionary cardinalities for the twistor fibration over
# CP^2, per bidegree (horizontal, vertical).  Row sums: 20 at the origin
# phase, 96 in total including the empty word.
TCP2_COUNTS = {
    (0, 0): 1,
    (0, 1): 2, (1, 0): 2,
    (0, 2): 2, (1, 1): 6, (2, 0): 2,
    (0, 3): 2, (1, 2): 8, (2, 1): 8, (3, 0): 2,
    (0, 4): 1, (1, 3): 6, (2, 2): 12, (3, 1): 6, (4, 0): 1,
    (1, 4): 2, (2, 3): 8, (3, 2): 8, (4, 1): 2,
    (2, 4): 2, (3, 3): 6, (4, 2): 2,
    (3, 4): 2, (4, 3): 2,
    (4, 4): 1,
}


def test_tcp2_dictionary_counts(su3_dictionary):
    d = su3_dictionary
    assert d.counts() == TCP2_COUNTS
    assert len(d.entries) == 96
    assert len(d.origin_entries()) == 20
    assert max(e.word.length for e in d.entries) == 3
    assert d.radial is not None
    assert d.radial.word.render() == "dot(a,a)"
    assert d.radial.phase == "generic"


def test_tcp2_radial_outside_partition(su3_dictionary):
    cell = su3_dictionary.per_bidegree()[(0, 0)]
    assert len(cell) == 1
    assert cell[0].word.render() == "1"


def test_tcp2_syllable_universe(su3_dictionary):
    names = {s.render() for s in su3_dictionary.alphabet.syllables()}
    assert names == {
        "dot(a,a)", "dot(a,b)", "dot(a,beta)", "dot(a,tbeta)",
        "dot(b,beta)", "dot(b,eps)", "dot(b,tbeta)", "dot(beta,tbeta)",
        "sigma(a,b)", "sigma(a,beta)", "sigma(a,tbeta)", "sigma(a,eps)",
        "sigma(b,b)", "sigma(b,beta)", "sigma(b,tbeta)", "sigma(b,eps)",
        "sigma(beta,beta)", "sigma(beta,eps)",
    }


def test_tcp2_transcript_outcomes(su3_dictionary):
    t = su3_dictionary.transcript
    assert ("generic", "dot(a,a)", "radial invariant") in t
    # a 1-form squared dies before any rank computation
    assert ("generic", "dot(a,b)*dot(a,b)", "pruned: zero translation") in t
    outcomes = {o for _, _, o in t}
    assert outcomes <= {
        "kept",
        "dependent",
        "dependent: evaluates to zero",
        "dependent: constant on orbits",
        "pruned: zero translation",
        "pruned: bidegree overflow",
        "radial invariant",
    }


def test_tcp2_completeness(su3_setup, su3_dictionary):
    report = completeness_check(su3_setup, su3_dictionary)
    assert report.passed
    assert len(report.cells) == 25
    assert report.stabilizer_dim_origin == 4
    assert report.stabilizer_dim_generic == 1
    cell = report.cell((2, 2))
    assert (cell.span_origin, cell.target_origin) == (4, 4)
    assert (cell.span_generic, cell.target_generic) == (12, 12)


def test_completeness_reuses_the_images_from_generation(
    su3_setup, su3_alphabet, su3_dictionary, monkeypatch
):
    translate = dictionary_module.Alphabet.translate
    translated, added = [], []

    def counting(self, word):
        translated.append(word)
        return translate(self, word)

    class Recording(dictionary_module.VectorSpan):
        def add(self, vec, tag=None):
            added.append(vec)
            return super().add(vec, tag)

    monkeypatch.setattr(dictionary_module.Alphabet, "translate", counting)
    monkeypatch.setattr(dictionary_module, "VectorSpan", Recording)
    letters, contractions = su3_alphabet
    fresh = generate_dictionary(
        su3_setup, list(letters.values()), list(contractions.values())
    )
    assert completeness_check(su3_setup, fresh).passed
    added.clear()
    report = completeness_check(su3_setup, su3_dictionary)
    # generation tests independence on point values and leaves every image
    # at both points: nothing is translated, there or here
    assert translated == []
    # and every entry's cells received that entry's own symbolic images
    images = _symbolic_images(su3_setup, su3_dictionary)
    assert added == images
    # a dictionary built without the images composes all of them from its
    # syllables' values, alike, and translates nothing either
    translated.clear()
    added.clear()
    assert completeness_check(su3_setup, replace(su3_dictionary)) == report
    assert translated == []
    assert added == images


def _symbolic_images(setup, dictionary):
    """Each entry's translation evaluated at the origin and at the generic
    point of setup, in completeness_check's order."""
    origin = setup.point([setup.field.zero] * setup.fiber_dim)
    point = setup.point(setup.generic_point_vector())
    return [
        evaluate_to_vector(e.translation, pt)
        for e in dictionary.entries
        for pt in (origin, point)
    ]


def test_completeness_of_a_dictionary_from_another_realization(monkeypatch):
    text = resolve_config("su3_tcp2")[1]
    first, second = (realize_config(parse_config(text)) for _ in range(2))
    foreign = second.dictionary()
    added = []

    class Recording(dictionary_module.VectorSpan):
        def add(self, vec, tag=None):
            added.append(vec)
            return super().add(vec, tag)

    monkeypatch.setattr(dictionary_module, "VectorSpan", Recording)
    got = completeness_check(first.setup, foreign)
    # the images are composed at first's points, and equal the foreign
    # translations evaluated there
    assert added == _symbolic_images(first.setup, foreign)
    assert got.passed
    assert got == completeness_check(second.setup, foreign)
    assert got == completeness_check(first.setup, first.dictionary())


def test_su2_dictionary_contents(su2_dictionary):
    d = su2_dictionary
    origin = [e.word.render() for e in d.origin_entries()]
    assert origin == [
        "1",
        "det(b,b)",
        "det(b,beta)",
        "det(beta,beta)",
        "dot(b,beta)",
        "det(b,b)*det(beta,beta)",
    ]
    assert len(d.entries) == 16
    assert d.radial.word.render() == "dot(a,a)"
    assert d.counts() == {
        (0, 0): 1,
        (0, 1): 2, (1, 0): 2,
        (0, 2): 1, (1, 1): 4, (2, 0): 1,
        (1, 2): 2, (2, 1): 2,
        (2, 2): 1,
    }
    assert len(d.alphabet.syllables()) == 9


def test_su2_completeness(su2_setup, su2_dictionary):
    report = completeness_check(su2_setup, su2_dictionary)
    assert report.passed
    assert len(report.cells) == 9
    assert report.stabilizer_dim_origin == 1
    assert report.stabilizer_dim_generic == 0


def test_removing_a_generator_breaks_its_cell(su3_setup, su3_dictionary):
    pruned = replace(
        su3_dictionary,
        entries=[
            e
            for e in su3_dictionary.entries
            if e.word.render() != "sigma(a,eps)"
        ],
    )
    report = completeness_check(su3_setup, pruned)
    assert not report.passed
    failing = [c for c in report.cells if not c.passed]
    assert [c.bidegree for c in failing] == [(2, 0)]
    assert failing[0].span_generic == 1
    assert failing[0].target_generic == 2


def test_minimality_random_removals(su3_setup, su3_dictionary):
    rng = random.Random(20260818)
    positive = [e for e in su3_dictionary.entries if e.word.length > 0]
    for entry in rng.sample(positive, 5):
        pruned = replace(
            su3_dictionary,
            entries=[e for e in su3_dictionary.entries if e is not entry],
        )
        report = completeness_check(su3_setup, pruned)
        assert not report.passed
        cell = report.cell(entry.bidegree)
        assert cell.span_generic == cell.target_generic - 1


def test_generation_is_deterministic(su3_setup, su3_alphabet, su3_dictionary):
    letters, contractions = su3_alphabet
    again = generate_dictionary(
        su3_setup, list(letters.values()), list(contractions.values())
    )
    first = [(e.word.render(), e.phase, e.bidegree) for e in su3_dictionary.entries]
    second = [(e.word.render(), e.phase, e.bidegree) for e in again.entries]
    assert first == second
    assert su3_dictionary.transcript == again.transcript
    assert su3_dictionary.radial.word == again.radial.word


def test_word_order_soundness(su3_dictionary):
    # reordering the factors of a word changes its translation by exactly
    # the graded sign of the permutation
    alphabet = su3_dictionary.alphabet
    sylls = alphabet.syllables()
    rng = random.Random(8128)
    for _ in range(100):
        k = rng.randint(2, 4)
        chosen = [rng.choice(sylls) for _ in range(k)]
        scrambled = alphabet.translate(Word(tuple(chosen)))
        sign = 1
        order = list(chosen)
        for i in range(len(order)):
            for j in range(len(order) - 1 - i):
                if order[j + 1].key() < order[j].key():
                    if (order[j].degree * order[j + 1].degree) % 2:
                        sign = -sign
                    order[j], order[j + 1] = order[j + 1], order[j]
        sorted_form = alphabet.translate(Word(tuple(order)))
        assert scrambled == sign * sorted_form


def test_empty_alphabet_gives_constants_only(su3_setup):
    d = generate_dictionary(su3_setup, [], [])
    assert [e.word.render() for e in d.entries] == ["1"]
    assert d.radial is None
    report = completeness_check(su3_setup, d)
    assert not report.passed
    assert report.cell((0, 0)).passed
    assert not report.cell((1, 1)).passed


def _so2_setup(rho):
    """su(2) over the gauge index 3, acting on the fiber by rho."""
    field = NumberField(())
    algebra = make_algebra(field, 3, [(1, 2, 3, -1), (2, 1, 3, 1), (3, 1, 2, -1)])
    splitting = Splitting(horizontal=(1, 2), gauge=(3,))
    return validate_setup(algebra, splitting, make_representation(field, {3: rho}))


def _so2_on_two_of_four():
    # so(2) rotating only the first two of four fiber coordinates: the
    # sphere S^3 splits into several orbit types
    rho = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    return _so2_setup(rho)


def hopf_document() -> dict:
    """su2_ts2 with so(2) acting on R^4 by J + J, the Hopf action: its
    stabilizer is trivial at every nonzero point, but its orbits in S^3 are
    circles, so it is not transitive on the sphere."""
    doc = json.loads(resolve_config("su2_ts2")[1])
    doc["ring"] = {"radicals": [{"name": "s", "square": "aa"}]}
    j_plus_j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    doc["representation"] = {"3": [[str(c) for c in row] for row in j_plus_j]}
    doc["letters"]["beta"] = ["e1", "e2", "0", "0"]
    doc["contractions"] = {"dot": "builtin"}
    doc["tasks"] = [{"kind": "express", "name": "hopf", "expression": "a1*a3+a2*a4"}]
    return doc


HOPF_REFUSAL = (
    "transitive-sphere hypothesis violated: the orbit of e1 has dimension 1, "
    "not 3"
)


def test_transitive_sphere_violation():
    setup = _so2_on_two_of_four()
    a = letter_a(setup)
    b = letter_b(setup)
    dot = dot_contraction(setup)
    with pytest.raises(EngineError, match="transitive-sphere"):
        generate_dictionary(setup, [a, b], [dot])


def test_hopf_action_is_refused():
    rc = realize_config(parse_config(json.dumps(hopf_document())))
    with pytest.raises(EngineError, match=f"^{HOPF_REFUSAL}$"):
        rc.dictionary()
    # the spot check let it through: the stabilizer is trivial at every
    # spot point, as it is at the generic point
    assert spot_check_transitive_sphere(rc.setup) == 0


def test_one_dimensional_fiber_is_refused():
    with pytest.raises(EngineError, match="one-dimensional fiber"):
        _check_transitive_sphere(_so2_setup([[0]]))


def _verdict(check, setup):
    try:
        return check(setup)
    except EngineError:
        return "refused"


@pytest.mark.parametrize("name", ["su2_ts2", "su3_tcp2", "so2_on_two_of_four"])
def test_rank_test_agrees_with_spot_check_oracle(name):
    if name == "so2_on_two_of_four":
        setup = _so2_on_two_of_four()
    else:
        setup = realize_config(parse_config(resolve_config(name)[1])).setup
    verdict = _verdict(_check_transitive_sphere, setup)
    assert verdict == _verdict(spot_check_transitive_sphere, setup)
    assert verdict == {"su2_ts2": 0, "su3_tcp2": 1}.get(name, "refused")


# -- expressing over the dictionary ------------------------------------------


def _entry(d, rendered):
    return next(e for e in d.entries if e.word.render() == rendered)


def _terms_by_factors(comb):
    return {
        tuple(w.render() for w in t.factors): t.coefficient for t in comb.terms
    }


def test_express_radial_differential(su3_setup, su3_dictionary):
    daa = exterior_derivative(su3_setup, su3_dictionary.radial.translation)
    comb = express_in_generators(su3_setup, su3_dictionary, daa)
    assert not comb.residual
    assert comb.render() == "2*dot(a,b)"


def test_express_sigma_ab_differential(su3_setup, su3_dictionary):
    ring = su3_setup.ring
    target = exterior_derivative(
        su3_setup, _entry(su3_dictionary, "sigma(a,b)").translation
    )
    comb = express_in_generators(su3_setup, su3_dictionary, target)
    assert not comb.residual
    aa = ring.zero
    for i in range(4):
        v = ring.var(f"a{i + 1}")
        aa = aa + v * v
    assert _terms_by_factors(comb) == {
        ("sigma(b,b)",): ring.one,
        ("sigma(beta,beta)",): -aa,
        ("sigma(a,eps)",): ring.constant(-2),
    }
    # the identity holds symbolically, not just at the sample points
    assert comb.as_form(su3_dictionary) == target


def test_express_closed_generator(su3_setup, su3_dictionary):
    target = exterior_derivative(
        su3_setup, _entry(su3_dictionary, "dot(b,beta)").translation
    )
    comb = express_in_generators(su3_setup, su3_dictionary, target)
    assert not comb.residual
    assert comb.terms == ()
    assert comb.render() == "0"


def test_express_recovers_a_generator(su3_setup, su3_dictionary):
    entry = _entry(su3_dictionary, "sigma(b,b)")
    comb = express_in_generators(su3_setup, su3_dictionary, entry.translation)
    assert comb.render() == "sigma(b,b)"


def test_express_radial_square_over_empty_word(su3_setup, su3_dictionary):
    ring = su3_setup.ring
    s = ring.var("s")
    target = su3_setup.frame.scalar_form(s * s)
    comb = express_in_generators(su3_setup, su3_dictionary, target)
    assert not comb.residual
    assert len(comb.terms) == 1
    assert tuple(w.render() for w in comb.terms[0].factors) == ("1",)
    aa = ring.zero
    for i in range(4):
        v = ring.var(f"a{i + 1}")
        aa = aa + v * v
    assert comb.terms[0].coefficient == aa


def test_express_respects_laurent_bounds(su3_setup, su3_dictionary):
    target = exterior_derivative(
        su3_setup, _entry(su3_dictionary, "sigma(a,b)").translation
    )
    comb = express_in_generators(
        su3_setup, su3_dictionary, target, degree_bounds=(0, 0)
    )
    assert comb.residual
    assert comb.failed_cells == ((2, 0),)


def test_express_rejects_non_invariant_target(su3_setup, su3_dictionary):
    with pytest.raises(EngineError, match="invariant"):
        express_in_generators(
            su3_setup, su3_dictionary, su3_setup.frame.generator("e2")
        )


def test_express_with_triples(su3_setup, su3_dictionary, su3_context):
    target = parse_form_expression("d(sigma(a,b))*dot(a,b)", su3_context)
    comb = express_in_generators(
        su3_setup, su3_dictionary, target, allow_triples=True
    )
    assert not comb.residual
    assert comb.as_form(su3_dictionary) == target


# -- the differential table ----------------------------------------------------


def test_tcp2_differential_table(su3_setup, su3_dictionary, su3_table):
    rows = su3_table
    assert len(rows) == 35
    assert rows[0].kind == "radial"
    assert rows[0].word.render() == "dot(a,a)"
    assert rows[0].differential.render() == "2*dot(a,b)"
    by_word = {r.word.render(): r for r in rows}
    assert by_word["dot(b,beta)"].differential.terms == ()
    pinned = _terms_by_factors(by_word["sigma(a,b)*sigma(beta,beta)"].differential)
    ring = su3_setup.ring
    aa = ring.zero
    for i in range(4):
        v = ring.var(f"a{i + 1}")
        aa = aa + v * v
    assert pinned == {
        ("sigma(b,b)*sigma(beta,beta)",): ring.one,
        ("dot(beta,tbeta)",): 3 * aa,
    }
    # cross-check every row against the exterior derivative, symbolically
    for row in rows:
        if row.kind == "radial":
            source = su3_dictionary.radial.translation
        else:
            source = _entry(su3_dictionary, row.word.render()).translation
        lhs = exterior_derivative(su3_setup, source)
        assert lhs == row.differential.as_form(su3_dictionary)


def test_su2_differential_table(su2_setup, su2_dictionary):
    rows = differential_table(su2_setup, su2_dictionary, 2)
    assert len(rows) == 11
    assert rows[0].kind == "radial"
    assert rows[0].differential.render() == "2*dot(a,b)"
    for row in rows:
        if row.kind == "radial":
            source = su2_dictionary.radial.translation
        else:
            source = _entry(su2_dictionary, row.word.render()).translation
        lhs = exterior_derivative(su2_setup, source)
        assert lhs == row.differential.as_form(su2_dictionary)
