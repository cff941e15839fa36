"""contract_syllable against the Form-summing kernel it replaced.

The two must give the same form, coefficient for coefficient, the same
InvariantForm marking and the same refusal below the depth floor: on every
syllable of both bundled alphabets, on the arity-4 det of su3_tcp2, and on
letters whose components sit at the floor of the first radical.
contract_syllable takes only what make_letter and make_contraction built,
so a letter or contraction built directly is refused.  The kernels are
still compared on some objects those checks refuse, such as a letter with
a zero component; each is built as a Checked* by hand, a forged
certificate, and marked so where it is built.
"""

from itertools import combinations_with_replacement

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.homogeneous import InvariantForm
from equiform.letters import (
    CheckedContraction,
    CheckedLetter,
    Contraction,
    Letter,
    LetterError,
    contract_syllable,
    det_contraction,
    make_letter,
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


def test_unchecked_inputs_are_refused(realized):
    letters = [realized.letters[n] for n in sorted(realized.letters)]
    for m in realized.contractions.values():
        plain = Contraction(m.name, m.arity, m.entries)
        lets = (letters[0],) * m.arity
        with pytest.raises(LetterError) as info:
            contract_syllable(plain, lets)
        assert str(info.value) == (
            f"contraction {m.name} was not built by make_contraction"
        )
        for x in letters:
            plain_letter = Letter(x.name, x.bidegree, x.components)
            with pytest.raises(LetterError) as info:
                contract_syllable(m, (x,) * (m.arity - 1) + (plain_letter,))
            assert str(info.value) == f"letter {x.name} was not built by make_letter"


def _floor_components(setup, power, zero=None):
    """The components of u^power a for the first radical u, component
    `zero` set to 0."""
    ring = setup.ring
    u = ring.var(ring.radical_names[0])
    comps = [
        setup.frame.scalar_form(u**power * ring.var(f"a{i + 1}"))
        for i in range(setup.fiber_dim)
    ]
    if zero is not None:
        comps[zero] = setup.frame.zero
    return tuple(comps)


def _floor_letter(setup, power):
    """u^power a, as make_letter builds it."""
    return make_letter(setup, f"a~{power}", _floor_components(setup, power))


def _forged_floor_letter(setup, power, zero=None):
    """u^power a with component `zero` set to 0, under a forged certificate:
    make_letter refuses it (tested below), but the kernels must still agree
    on it."""
    comps = _floor_components(setup, power, zero)
    return CheckedLetter(f"a~{power}~{zero}", (0, 0), comps)


def test_depth_floor_refusals_match(realized):
    setup = realized.setup
    depth = setup.ring.depth
    floor = _forged_floor_letter(setup, -depth)
    above = _floor_letter(setup, 2 - depth)
    # a forged certificate: make_contraction refuses t3, which is not
    # invariant, but it reaches the zero-component branches of the kernels
    arity3 = CheckedContraction("t3", 3, (((0, 0, 1), 1),))
    cases = [
        (realized.contractions["dot"], (floor, floor)),
        (realized.contractions["dot"], (above, above)),
        (realized.contractions["dot"], (floor, realized.letters["b"])),
        # a zero third component comes after the refused wedge of the
        # first two; a zero second one ends the product before it
        (arity3, (floor, floor, _forged_floor_letter(setup, 0, zero=1))),
        (arity3, (floor, _forged_floor_letter(setup, 0, zero=0), floor)),
        (arity3, (floor, _floor_letter(setup, 0), floor)),
    ]
    got = [_assert_agree(m, lets) for m, lets in cases]
    assert got[0][0] == "RingError" and got[1][0] != "RingError"
    assert got[3][0] == "RingError" and got[4] == ({}, True)
    assert got[5][0] == "RingError"
    # the forged letters are ones make_letter refuses
    with pytest.raises(RingError, match="below depth bound"):
        _floor_letter(setup, -depth)
    with pytest.raises(LetterError, match="is not equivariant"):
        make_letter(setup, "z", _floor_components(setup, 0, zero=1))


def test_arity_mismatch_is_refused_alike(realized):
    m = realized.contractions["dot"]
    a = realized.letters["a"]
    assert _assert_agree(m, (a,))[0] == "LetterError"
