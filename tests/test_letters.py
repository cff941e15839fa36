"""Letters, contractions, syllables and the covariant derivative."""

import ast
from pathlib import Path

import pytest

import equiform
from equiform.forms import bidegree_split, map_form, wedge
from equiform.homogeneous import exterior_derivative, is_invariant
from equiform.letters import (
    Letter,
    LetterError,
    contract_syllable,
    covariant_derivative_DX,
    det_contraction,
    dot_contraction,
    letter_a,
    letter_b,
    letter_from_T_valued_map,
    make_contraction,
    make_letter,
)


def test_letter_a_and_b(su3_setup):
    a = letter_a(su3_setup)
    b = letter_b(su3_setup)
    assert a.bidegree == (0, 0)
    assert b.bidegree == (0, 1)
    ring = su3_setup.ring
    frame = su3_setup.frame
    for i in range(4):
        assert a.components[i] == frame.scalar_form(ring.var(f"a{i + 1}"))
        assert b.components[i] == frame.generator(f"b{i + 1}")


def test_beta_letters_are_valid(su3_alphabet):
    letters, _ = su3_alphabet
    assert letters["beta"].bidegree == (1, 0)
    assert letters["tbeta"].bidegree == (3, 0)


def test_constant_map_equivariance_violation(su3_setup):
    g = su3_setup.frame.generator
    with pytest.raises(LetterError) as err:
        letter_from_T_valued_map(
            su3_setup, "broken", (g("e2"), g("e2"), g("e2"), g("e2"))
        )
    assert "not equivariant along e" in str(err.value)


def test_non_horizontal_component_rejected(su3_setup):
    g = su3_setup.frame.generator
    with pytest.raises(LetterError) as err:
        letter_from_T_valued_map(
            su3_setup, "broken", (g("b1"), g("b2"), g("b3"), g("b4"))
        )
    assert "purely horizontal" in str(err.value)


def test_eps_letter_components(su3_setup, su3_alphabet):
    letters, _ = su3_alphabet
    eps = letters["eps"]
    assert eps.bidegree == (2, 0)
    ring = su3_setup.ring
    frame = su3_setup.frame
    beta = letters["beta"]
    kappa = frame.zero
    for j in range(4):
        kappa = kappa + ring.var(f"a{j + 1}") * beta.components[j]
    for i in range(4):
        assert eps.components[i] == wedge(kappa, beta.components[i])
    # linear in a: vanishes at the origin
    pt = su3_setup.point([0, 0, 0, 0])
    for c in eps.components:
        assert map_form(c, pt).is_zero


def test_non_invariant_contraction_rejected(su3_setup):
    one = su3_setup.field.one
    with pytest.raises(LetterError) as err:
        make_contraction(su3_setup, "broken", {(0, 0): one})
    assert "not invariant along e" in str(err.value)


def test_contract_dot_a_b(su3_setup, su3_alphabet):
    letters, contractions = su3_alphabet
    x = contract_syllable(contractions["dot"], (letters["a"], letters["b"]))
    ring = su3_setup.ring
    frame = su3_setup.frame
    expected = frame.zero
    for i in range(1, 5):
        expected = expected + ring.var(f"a{i}") * frame.generator(f"b{i}")
    assert x == expected
    assert is_invariant(su3_setup, x)


def test_contract_sigma_b_b(su3_setup, su3_alphabet):
    letters, contractions = su3_alphabet
    x = contract_syllable(contractions["sigma"], (letters["b"], letters["b"]))
    frame = su3_setup.frame
    g = frame.generator
    expected = 2 * (wedge(g("b1"), g("b4")) - wedge(g("b2"), g("b3")))
    assert x == expected
    assert is_invariant(su3_setup, x)


def test_contract_dot_beta_beta_is_zero(su3_alphabet):
    letters, contractions = su3_alphabet
    x = contract_syllable(contractions["dot"], (letters["beta"], letters["beta"]))
    assert x.is_zero


def test_arity_mismatch(su3_alphabet):
    letters, contractions = su3_alphabet
    with pytest.raises(LetterError) as err:
        contract_syllable(contractions["dot"], (letters["a"],))
    assert "arity" in str(err.value)


def test_sigma_a_eps_identity(su3_setup, su3_alphabet):
    """sigma(a, eps) equals dot(a, beta) wedge sigma(a, beta) exactly."""
    letters, contractions = su3_alphabet
    lhs = contract_syllable(contractions["sigma"], (letters["a"], letters["eps"]))
    dot_ab = contract_syllable(contractions["dot"], (letters["a"], letters["beta"]))
    sig_ab = contract_syllable(contractions["sigma"], (letters["a"], letters["beta"]))
    assert lhs == wedge(dot_ab, sig_ab)


def test_su2_det_syllables(su2_setup, su2_alphabet):
    letters, contractions = su2_alphabet
    frame = su2_setup.frame
    g = frame.generator
    det_bb = contract_syllable(contractions["det"], (letters["b"], letters["b"]))
    assert det_bb == 2 * wedge(g("b1"), g("b2"))
    det_BB = contract_syllable(
        contractions["det"], (letters["beta"], letters["beta"])
    )
    assert det_BB == 2 * wedge(g("e1"), g("e2"))
    for x in (det_bb, det_BB):
        assert is_invariant(su2_setup, x)


# -- covariant derivative -------------------------------------------------------


def test_DX_of_a_is_b(su3_setup, su3_alphabet):
    letters, _ = su3_alphabet
    da = covariant_derivative_DX(su3_setup, letters["a"])
    assert da.components == letters["b"].components
    assert da.bidegree == (0, 1)


def test_DX_of_constant_horizontal_letters_vanishes(su3_setup, su3_alphabet):
    letters, _ = su3_alphabet
    for name in ("beta", "tbeta"):
        d = covariant_derivative_DX(su3_setup, letters[name])
        assert d.is_zero, f"DX({name}) should vanish"


def test_DX_of_b_is_curvature_contraction(su3_setup, su3_alphabet):
    """DX(b)_i = sum_A (rho_A a)_i * horizontal part of d e^A."""
    letters, _ = su3_alphabet
    db = covariant_derivative_DX(su3_setup, letters["b"])
    assert db.bidegree == (2, 0)
    frame = su3_setup.frame
    g = frame.generator
    s3 = su3_setup.field.sqrt_radicand(3)
    omega = {
        1: -wedge(g("e2"), g("e3")) - wedge(g("e4"), g("e5")),
        6: wedge(g("e2"), g("e4")) - wedge(g("e3"), g("e5")),
        7: -wedge(g("e2"), g("e5")) - wedge(g("e3"), g("e4")),
        8: s3 * (-wedge(g("e2"), g("e5")) + wedge(g("e3"), g("e4"))),
    }
    avars = [su3_setup.ring.var(f"a{i}") for i in range(1, 5)]
    for i in range(4):
        expected = frame.zero
        for a in su3_setup.splitting.gauge:
            coeff = su3_setup.rho_apply(a, avars)[i]
            if not coeff.is_zero:
                expected = expected + coeff * omega[a]
        assert db.components[i] == expected, f"component {i + 1}"


def test_DX_of_eps(su3_setup, su3_alphabet):
    """DX(eps)_i = dot(b, beta) wedge beta_i, of bidegree (2,1)."""
    letters, contractions = su3_alphabet
    deps = covariant_derivative_DX(su3_setup, letters["eps"])
    assert deps.bidegree == (2, 1)
    dot_bB = contract_syllable(contractions["dot"], (letters["b"], letters["beta"]))
    for i in range(4):
        assert deps.components[i] == wedge(dot_bB, letters["beta"].components[i])


def test_leibniz_bridge_all_pairs(su3_setup, su3_alphabet):
    """d of a syllable splits through DX with the degree sign."""
    letters, contractions = su3_alphabet
    pool = ["a", "b", "beta", "eps"]
    dx = {n: covariant_derivative_DX(su3_setup, letters[n]) for n in pool}
    for cname, m in contractions.items():
        for n1 in pool:
            for n2 in pool:
                l1, l2 = letters[n1], letters[n2]
                syll = contract_syllable(m, (l1, l2))
                lhs = exterior_derivative(su3_setup, syll)
                rhs = contract_syllable(m, (dx[n1], l2))
                second = contract_syllable(m, (l1, dx[n2]))
                if sum(l1.bidegree) % 2:
                    rhs = rhs - second
                else:
                    rhs = rhs + second
                assert lhs == rhs, f"{cname}({n1},{n2})"


def test_su2_leibniz_bridge(su2_setup, su2_alphabet):
    letters, contractions = su2_alphabet
    pool = ["a", "b", "beta"]
    dx = {n: covariant_derivative_DX(su2_setup, letters[n]) for n in pool}
    for cname, m in contractions.items():
        for n1 in pool:
            for n2 in pool:
                l1, l2 = letters[n1], letters[n2]
                syll = contract_syllable(m, (l1, l2))
                lhs = exterior_derivative(su2_setup, syll)
                rhs = contract_syllable(m, (dx[n1], l2))
                second = contract_syllable(m, (l1, dx[n2]))
                if sum(l1.bidegree) % 2:
                    rhs = rhs - second
                else:
                    rhs = rhs + second
                assert lhs == rhs, f"{cname}({n1},{n2})"


def test_DX_rejects_non_equivariant_letter(su3_setup):
    """A constant fiber vector is not equivariant, so DX of it is not basic.
    Its components have zero derivative, so only a check on the input can
    refuse it: make_letter refuses to build it, and DX refuses it built by
    hand."""
    frame = su3_setup.frame
    components = (frame.one, frame.zero, frame.zero, frame.zero)
    with pytest.raises(LetterError) as err:
        make_letter(su3_setup, "v1", components)
    assert str(err.value) == "letter v1 is not equivariant along e1"
    constant = Letter(name="v1", bidegree=(0, 0), components=components)
    with pytest.raises(LetterError) as err:
        covariant_derivative_DX(su3_setup, constant)
    assert str(err.value) == "letter v1 was not built by make_letter"


_BUILT = {"Letter", "Contraction", "CheckedLetter", "CheckedContraction"}


def _constructor_calls(tree, where=None):
    """(enclosing function, class name) for each call of a _BUILT class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _constructor_calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func  # a Name, or an Attribute such as letters.Letter
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in _BUILT:
                yield where, name
        yield from _constructor_calls(node, where)


def test_only_the_makers_build_letters_and_contractions():
    """contract_syllable trusts a Checked* as proof of its checks, so the
    package builds letters and contractions in make_letter and
    make_contraction only."""
    calls = []
    for path in sorted(Path(equiform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls.extend((path.name, *call) for call in _constructor_calls(tree))
    assert sorted(calls) == [
        ("letters.py", "make_contraction", "CheckedContraction"),
        ("letters.py", "make_letter", "CheckedLetter"),
    ]
