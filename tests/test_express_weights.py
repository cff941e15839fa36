"""The dilation-weight filter of express_in_generators, against the oracle.

Fiber dilation grades every column of an expression cell, so the filtered
kernel solves only the target's weight blocks.  These tests pin the fact
the filter rests on (one weight per generator, kept by d), that its results
equal the unfiltered kernel in unfiltered_express_oracle.py term for term,
that it switches off when a generator has no weight, and that the full
invariance check runs only on a target left residual.
"""

from dataclasses import replace

import pytest

import equiform.dictionary as dictionary_module
import equiform.linalg as linalg
from equiform.dictionary import (
    DictionaryEntry,
    EngineError,
    Syllable,
    Word,
    _dilation_weigher,
    _single_weight,
    differential_table,
    express_in_generators,
)
from equiform.expressions import parse_form_expression
from equiform.forms import bidegree_split
from equiform.homogeneous import exterior_derivative

import unfiltered_express_oracle as oracle


def _sources(dictionary, max_degree):
    """The radial translation and every translation of degree 1..max_degree,
    in differential_table's row order."""
    out = [dictionary.radial.translation]
    out.extend(
        e.translation
        for e in dictionary.entries
        if 1 <= e.word.degree <= max_degree
    )
    return out


def _assert_matches_oracle(setup, dictionary, target, **kwargs):
    got = express_in_generators(setup, dictionary, target, **kwargs)
    want = oracle.express_in_generators(setup, dictionary, target, **kwargs)
    assert got.terms == want.terms
    assert got.residual == want.residual
    assert got.failed_cells == want.failed_cells
    return got


# -- the fact the filter rests on ------------------------------------------------


@pytest.mark.parametrize("config", ["su3", "su2"])
def test_d_keeps_the_single_weight_of_every_translation(config, request):
    setup = request.getfixturevalue(f"{config}_setup")
    dictionary = request.getfixturevalue(f"{config}_dictionary")
    weigh = _dilation_weigher(setup)
    forms = [dictionary.radial.translation]
    forms.extend(e.translation for e in dictionary.entries)
    for x in forms:
        w = _single_weight(weigh, x)
        assert w is not None
        dx = exterior_derivative(setup, x)
        if not dx.is_zero:
            assert _single_weight(weigh, dx) == w
    assert dictionary._entry_weights() == [
        _single_weight(weigh, e.translation) for e in dictionary.entries
    ]


def test_weights_in_half_units(su3_setup, su2_setup):
    ring = su3_setup.ring
    weigh = _dilation_weigher(su3_setup)
    frame = su3_setup.frame
    s = frame.scalar_form(ring.var("s"))
    assert _single_weight(weigh, s) == 2
    assert _single_weight(weigh, frame.scalar_form(ring.var("s") ** -3)) == -6
    assert _single_weight(weigh, frame.generator("b1")) == 2
    assert _single_weight(weigh, frame.generator("e2")) == 0
    a1b2 = frame.scalar_form(ring.var("a1")) * frame.generator("b2")
    assert _single_weight(weigh, a1b2) == 4
    # u^2 = k + aa is not homogeneous in the fiber, so u has no weight
    ring2 = su2_setup.ring
    weigh2 = _dilation_weigher(su2_setup)
    u = su2_setup.frame.scalar_form(ring2.var("u"))
    assert _single_weight(weigh2, u) is None
    assert _single_weight(weigh2, su2_setup.frame.scalar_form(ring2.var("k"))) == 0


# -- equal to the unfiltered kernel ---------------------------------------------


def test_su2_table_rows_match_oracle(su2_setup, su2_dictionary):
    for x in _sources(su2_dictionary, 2):
        d = exterior_derivative(su2_setup, x)
        _assert_matches_oracle(su2_setup, su2_dictionary, d)


def test_su3_table_rows_of_degree_two_match_oracle(
    su3_setup, su3_dictionary, su3_table
):
    rows = [r for r in su3_table if r.word.degree <= 2]
    sources = _sources(su3_dictionary, 2)
    assert len(rows) == len(sources) == 15
    for row, x in zip(rows, sources):
        d = exterior_derivative(su3_setup, x)
        want = oracle.express_in_generators(su3_setup, su3_dictionary, d)
        assert row.differential.terms == want.terms
        assert not row.differential.residual and not want.residual


def test_narrow_window_residual_matches_oracle(su3_setup, su3_dictionary):
    sab = next(e for e in su3_dictionary.entries if e.word.render() == "sigma(a,b)")
    target = exterior_derivative(su3_setup, sab.translation)
    got = _assert_matches_oracle(
        su3_setup, su3_dictionary, target, degree_bounds=(0, 0)
    )
    assert got.residual and got.failed_cells == ((2, 0),)


def test_triples_match_oracle(su3_setup, su3_dictionary, su3_context):
    target = parse_form_expression("d(sigma(a,b))*dot(a,b)", su3_context)
    got = _assert_matches_oracle(
        su3_setup, su3_dictionary, target, allow_triples=True
    )
    assert not got.residual


def test_wide_window_matches_oracle(su2_setup, su2_dictionary):
    for x in _sources(su2_dictionary, 2):
        d = exterior_derivative(su2_setup, x)
        _assert_matches_oracle(
            su2_setup, su2_dictionary, d, degree_bounds=(16, -4)
        )


# -- the fallback ----------------------------------------------------------------


def _count_span_columns(monkeypatch):
    calls = [0]
    add = linalg.VectorSpan.add

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(linalg.VectorSpan, "add", counted)
    return calls


def test_a_weightless_entry_turns_the_filter_off(
    su2_setup, su2_dictionary, monkeypatch
):
    u = su2_setup.ring.var("u")
    base = next(e for e in su2_dictionary.entries if e.word.render() == "dot(b,beta)")
    # a syllable u() whose form is the radical u, known to the alphabet for
    # this test only, so that the entry u()*dot(b,beta) translates to u*dot
    alphabet = su2_dictionary.alphabet
    syllable = Syllable("u", (), (0, 0))
    monkeypatch.setitem(
        alphabet._syllable_forms, syllable, su2_setup.frame.scalar_form(u)
    )
    monkeypatch.setattr(alphabet, "_translations", dict(alphabet._translations))
    word = Word((syllable,) + base.word.syllables)
    synthetic = DictionaryEntry(word, "generic", base.bidegree, alphabet)
    assert synthetic.translation == u * base.translation
    widened = replace(su2_dictionary, entries=su2_dictionary.entries + [synthetic])
    assert None in widened._entry_weights()
    targets = [u * base.translation]
    targets.extend(exterior_derivative(su2_setup, x) for x in _sources(widened, 2))
    columns = _count_span_columns(monkeypatch)
    # one unfiltered span per cell, kept: the first row to reach a cell
    # builds the oracle's columns for it, and later rows build none
    seen: set = set()
    for target in targets:
        new_cells = 0
        for cell, part in bidegree_split(target).items():
            if cell not in seen:
                seen.add(cell)
                columns[0] = 0
                oracle.express_in_generators(su2_setup, widened, part)
                new_cells += columns[0]
        columns[0] = 0
        got = express_in_generators(su2_setup, widened, target)
        built = columns[0]
        want = oracle.express_in_generators(su2_setup, widened, target)
        assert (got.terms, got.residual, got.failed_cells) == (
            want.terms,
            want.residual,
            want.failed_cells,
        )
        assert built == new_cells
    assert len(seen) < len(targets)
    assert express_in_generators(su2_setup, widened, targets[0]).render() == (
        "u()*dot(b,beta)"
    )


def test_graded_dictionaries_build_fewer_columns(
    su2_setup, su2_dictionary, monkeypatch
):
    fresh = replace(su2_dictionary)
    columns = _count_span_columns(monkeypatch)
    for x in _sources(fresh, 2):
        d = exterior_derivative(su2_setup, x)
        express_in_generators(su2_setup, fresh, d)
    filtered = columns[0]
    columns[0] = 0
    for x in _sources(su2_dictionary, 2):
        d = exterior_derivative(su2_setup, x)
        oracle.express_in_generators(su2_setup, su2_dictionary, d)
    assert filtered < columns[0]


# -- one invariance check ------------------------------------------------------


def _count_invariance_checks(monkeypatch):
    calls = [0]
    check = dictionary_module.is_invariant

    def counted(*args, **kwargs):
        calls[0] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(dictionary_module, "is_invariant", counted)
    return calls


def test_expressed_rows_skip_the_invariance_check(
    su2_setup, su2_dictionary, su3_setup, su3_dictionary, monkeypatch
):
    calls = _count_invariance_checks(monkeypatch)
    rows = differential_table(su2_setup, su2_dictionary, 2)
    assert len(rows) == 11 and not any(r.differential.residual for r in rows)
    rows = differential_table(su3_setup, su3_dictionary, 2)
    assert len(rows) == 15 and not any(r.differential.residual for r in rows)
    assert calls[0] == 0


def test_residual_target_is_checked_once(su3_setup, su3_dictionary, monkeypatch):
    calls = _count_invariance_checks(monkeypatch)
    with pytest.raises(EngineError, match="invariant"):
        express_in_generators(
            su3_setup, su3_dictionary, su3_setup.frame.generator("e2")
        )
    assert calls[0] == 1


def test_gauge_target_is_rejected_before_the_solve(
    su3_setup, su3_dictionary, monkeypatch
):
    calls = _count_invariance_checks(monkeypatch)
    with pytest.raises(EngineError, match="invariant"):
        express_in_generators(
            su3_setup, su3_dictionary, su3_setup.frame.generator("e1")
        )
    assert calls[0] == 0


# -- radial powers, once per window -----------------------------------------


def test_radial_powers_are_built_once_per_window(
    su3_setup, su3_dictionary, monkeypatch
):
    calls = []
    build = dictionary_module._radial_powers

    def counted(setup, lo, hi):
        calls.append((lo, hi))
        return build(setup, lo, hi)

    monkeypatch.setattr(dictionary_module, "_radial_powers", counted)
    fresh = replace(su3_dictionary)
    rows = differential_table(su3_setup, fresh, 2)
    assert len(rows) == 15 and calls == [(-2, 4)]
    assert differential_table(su3_setup, fresh, 2) == rows
    assert calls == [(-2, 4)]
    # a window the ring cannot represent raises on every call, uncached
    target = exterior_derivative(su3_setup, fresh.entries[1].translation)
    for _ in range(2):
        with pytest.raises(EngineError, match="below the depth bound -4"):
            express_in_generators(su3_setup, fresh, target, degree_bounds=(4, -6))
    assert calls == [(-2, 4), (-6, 4), (-6, 4)]
    assert list(fresh._windows) == [(-2, 4)]
