"""d of a table row on the ray, by the Leibniz rule, against the pipeline it
replaced (translate_d_restrict_oracle.py).

differential_table composes the ray image of d of a word from its
syllables' ray images and their d: ray(d(p s)) = ray(dp) ray(s) +
(-1)^|p| ray(p) ray(ds).  That forms partial products, such as
d(prefix) ^ last, which full-frame d of the translated word never forms.
Row by row, the ray image and every refusal (type and message) must equal
the oracle's, and so must the whole table: on both bundled configs, on the
su2_ts2 rings with other radicals, on a letter with a negative radical
power, and with the depth-floor letters of test_contract_syllable_oracle.py
in place of the letter a.
"""

import json
from dataclasses import replace

import pytest

import equiform.dictionary as dictionary_module
from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import differential_table, generate_dictionary

import translate_d_restrict_oracle as oracle
from test_contract_syllable_oracle import _floor_letter
from test_graded_blocks import RADICAL_VARIANTS
from test_ray_restriction import VARIANTS


def _outcome(compute, *args, **kwargs):
    try:
        return compute(*args, **kwargs)
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__, str(e)


def _assert_rows_agree(setup, dictionary, max_degree, bounds=((4, -2),)):
    """Every row's ray image or refusal, then the table at each window;
    returns the table outcomes."""
    on_ray = replace(dictionary)._on_ray
    for _, e in oracle.jobs(dictionary, max_degree):
        got = _outcome(on_ray.d, e.word.syllables)
        assert got == _outcome(oracle.row_image, setup, e), e.word.render()
    tables = []
    for degree_bounds in bounds:
        for triples in (False, True):
            got, want = (
                _outcome(
                    table, setup, replace(dictionary), max_degree, degree_bounds, triples
                )
                for table in (differential_table, oracle.differential_table)
            )
            assert got == want, (degree_bounds, triples)
            tables.append(got)
    return tables


def _realize(name, radicals=None, letters=None):
    doc = json.loads(resolve_config(name)[1])
    if radicals is not None:
        doc["ring"]["radicals"] = radicals
    doc["letters"].update(letters or {})
    return realize_config(parse_config(json.dumps(doc)))


@pytest.mark.parametrize("name, max_degree", [("su3_tcp2", 3), ("su2_ts2", 2)])
def test_bundled_rows_match(name, max_degree):
    rc = _realize(name)
    (table, *_) = _assert_rows_agree(rc.setup, rc.dictionary(), max_degree)
    assert len(table) == {"su3_tcp2": 35, "su2_ts2": 11}[name]


def _variant_radicals(name):
    if name in RADICAL_VARIANTS:
        return RADICAL_VARIANTS[name][0]
    radicals = json.loads(resolve_config("su2_ts2")[1])["ring"]["radicals"]
    squares = VARIANTS[name]
    if squares:
        radicals[0]["square"] = squares[0]
        radicals.extend({"name": n, "square": sq} for n, sq in squares[1:])
    return radicals


@pytest.mark.parametrize("name", list(VARIANTS) + list(RADICAL_VARIANTS))
def test_variant_ring_rows_match(name):
    rc = _realize("su2_ts2", radicals=_variant_radicals(name))
    tables = _assert_rows_agree(
        rc.setup, rc.dictionary(), 3, bounds=((4, -2), (16, -4), (0, 0))
    )
    assert not isinstance(tables[0], tuple) and len(tables[0]) > 11


def test_negative_radical_power_letter_rows_match():
    rc = _realize("su2_ts2", letters={"beta": ["u^-1*e1", "u^-1*e2"]})
    dictionary = rc.dictionary()
    syllables = {s for e in dictionary.entries for s in e.word.syllables}
    assert any("beta" in s.letters for s in syllables)
    _assert_rows_agree(rc.setup, dictionary, 3, bounds=((4, -2), (16, -4)))


@pytest.mark.parametrize("name", ["su3_tcp2", "su2_ts2"])
def test_depth_floor_letter_rows_match(name):
    rc = _realize(name)
    setup = rc.setup
    others = [let for n, let in sorted(rc.letters.items()) if n != "a"]
    contractions = list(rc.contractions.values())
    refused, tables = set(), []
    for power in range(-setup.ring.depth, 1):
        for zero in (None, 0):
            letters = [_floor_letter(setup, power, zero)] + others
            dictionary = _outcome(generate_dictionary, setup, letters, contractions, 4)
            if isinstance(dictionary, tuple):
                refused.add(dictionary[0])
                continue
            table = _assert_rows_agree(setup, dictionary, 3)[0]
            if isinstance(table, tuple):
                refused.add(table[0])
            else:
                tables.append(table)
    # rows, and refusals at generation and in the table (a letter with a
    # zero component is not equivariant, and is refused by d)
    assert tables and {"RingError", "SetupError"} <= refused


def test_the_table_translates_no_word_and_takes_d_of_syllables_only(monkeypatch):
    rc = _realize("su3_tcp2")
    letters, contractions = list(rc.letters.values()), list(rc.contractions.values())
    dictionary = generate_dictionary(rc.setup, letters, contractions, 4)
    alphabet = dictionary.alphabet
    translated, derived, mapped = [], [], []
    translate = dictionary_module.Alphabet.translate
    exterior_derivative = dictionary_module.exterior_derivative
    map_form = dictionary_module.map_form

    def counting_translate(self, word):
        translated.append(word)
        return translate(self, word)

    def counting_d(setup, x):
        dx = exterior_derivative(setup, x)
        derived.append((x, dx))
        return dx

    def counting_map(x, phi):
        mapped.append(x)
        return map_form(x, phi)

    monkeypatch.setattr(dictionary_module.Alphabet, "translate", counting_translate)
    monkeypatch.setattr(dictionary_module, "exterior_derivative", counting_d)
    monkeypatch.setattr(dictionary_module, "map_form", counting_map)
    rows = differential_table(rc.setup, dictionary, 3)
    assert len(rows) == 35
    assert translated == [] and set(alphabet._translations) == {
        dictionary_module.Word(())
    }
    used = {s for row in rows for s in row.word.syllables}
    assert len(derived) == len(used) < len(rows)
    forms = [alphabet.syllable_form(s) for s in used]
    assert all(any(x is f for f in forms) for x, _ in derived)
    # only syllable forms (of rows and of the spans' products) and their d
    # are restricted, never a row's target
    syllable_forms = alphabet._syllable_forms.values()
    restricted = {id(f) for f in syllable_forms} | {id(dx) for _, dx in derived}
    assert mapped and all(id(x) in restricted for x in mapped)
