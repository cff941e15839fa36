"""contract_syllable against the Form-summing kernel it replaced.

The two must give the same form, coefficient for coefficient, the same
InvariantForm marking and the same refusal below the depth floor: on every
syllable of both bundled alphabets, on the arity-4 det of su3_tcp2, on
letters and contractions built without their checks, and on letters whose
components sit at the floor of the first radical.
"""

from itertools import combinations_with_replacement

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.homogeneous import InvariantForm
from equiform.letters import (
    Contraction,
    Letter,
    LetterError,
    contract_syllable,
    det_contraction,
)
from equiform.scalars import RingError

import contract_syllable_oracle as oracle


@pytest.fixture(scope="module", params=["su3_tcp2", "su2_ts2"])
def realized(request):
    _, text = resolve_config(request.param)
    return realize_config(parse_config(text))


def _outcome(kernel, m, letters):
    try:
        form = kernel(m, letters)
    except (LetterError, RingError) as e:
        return type(e).__name__, str(e)
    return form.terms, isinstance(form, InvariantForm)


def _assert_agree(m, letters):
    want = _outcome(oracle.contract_syllable, m, letters)
    assert _outcome(contract_syllable, m, letters) == want, (m, letters)
    return want


def _tuples(letters, arity):
    return combinations_with_replacement(letters, arity)


def test_every_bundled_syllable_matches(realized):
    letters = [realized.letters[n] for n in sorted(realized.letters)]
    outcomes = []
    for m in realized.contractions.values():
        for lets in _tuples(letters, m.arity):
            outcomes.append(_assert_agree(m, lets))
    # zero syllables and nonzero ones, all certified
    assert any(not terms for terms, _ in outcomes)
    assert all(marked for terms, marked in outcomes if terms)


def test_arity_four_det_on_su3_matches():
    _, text = resolve_config("su3_tcp2")
    rc = realize_config(parse_config(text))
    det = det_contraction(rc.setup)
    assert det.arity == 4 and len(det.entries) == 24
    letters = [rc.letters[n] for n in sorted(rc.letters)]
    outcomes = [_assert_agree(det, lets) for lets in _tuples(letters, 4)]
    assert any(terms for terms, _ in outcomes)


def test_unchecked_inputs_give_plain_forms(realized):
    letters = [realized.letters[n] for n in sorted(realized.letters)]
    plain_letters = [Letter(x.name, x.bidegree, x.components) for x in letters]
    for m in realized.contractions.values():
        plain = Contraction(m.name, m.arity, m.entries)
        for lets in _tuples(letters, m.arity):
            terms, marked = _assert_agree(plain, lets)
            assert not marked
        for lets in _tuples(plain_letters, m.arity):
            terms, marked = _assert_agree(m, lets)
            assert not marked


def _floor_letter(setup, power, zero=None):
    """u^power a for the first radical u, its component `zero` set to 0."""
    ring = setup.ring
    u = ring.var(ring.radical_names[0])
    comps = [
        setup.frame.scalar_form(u**power * ring.var(f"a{i + 1}"))
        for i in range(setup.fiber_dim)
    ]
    if zero is not None:
        comps[zero] = setup.frame.zero
    return Letter(f"a~{power}~{zero}", (0, 0), tuple(comps))


def test_depth_floor_refusals_match(realized):
    setup = realized.setup
    depth = setup.ring.depth
    floor, above = _floor_letter(setup, -depth), _floor_letter(setup, 2 - depth)
    arity3 = Contraction("t3", 3, (((0, 0, 1), 1),))
    cases = [
        (realized.contractions["dot"], (floor, floor)),
        (realized.contractions["dot"], (above, above)),
        (realized.contractions["dot"], (floor, realized.letters["b"])),
        # a zero third component comes after the refused wedge of the
        # first two; a zero second one ends the product before it
        (arity3, (floor, floor, _floor_letter(setup, 0, zero=1))),
        (arity3, (floor, _floor_letter(setup, 0, zero=0), floor)),
        (arity3, (floor, _floor_letter(setup, 0), floor)),
    ]
    got = [_assert_agree(m, lets) for m, lets in cases]
    assert got[0][0] == "RingError" and got[1][0] != "RingError"
    assert got[3][0] == "RingError" and got[4] == ({}, False)
    assert got[5][0] == "RingError"


def test_arity_mismatch_is_refused_alike(realized):
    m = realized.contractions["dot"]
    a = realized.letters["a"]
    assert _assert_agree(m, (a,))[0] == "LetterError"
