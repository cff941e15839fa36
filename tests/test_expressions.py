"""The little ansatz language: lexing, precedence, name resolution, errors."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.expressions import (
    ExpressionError,
    build_context,
    parse_form_expression,
)
from equiform.forms import wedge
from equiform.letters import contract_syllable


def parse(ctx, text):
    return parse_form_expression(text, ctx)


# -- atoms ------------------------------------------------------------------


def test_number_atom_is_exact(su3_context):
    f = parse(su3_context, "3/4")
    assert f == su3_context.setup.frame.scalar_form(Fraction(3, 4))
    assert parse(su3_context, "0.25") == su3_context.setup.frame.scalar_form(
        Fraction(1, 4)
    )


def test_scalar_name_atoms(su2_context):
    ring = su2_context.setup.ring
    frame = su2_context.setup.frame
    assert parse(su2_context, "k") == frame.scalar_form(ring.var("k"))
    assert parse(su2_context, "a1") == frame.scalar_form(ring.var("a1"))
    assert parse(su2_context, "u") == frame.scalar_form(ring.var("u"))


def test_aa_shorthand(su3_context):
    frame = su3_context.setup.frame
    expected = frame.scalar_form(su3_context.setup.ring.radial_square)
    assert parse(su3_context, "aa") == expected
    assert parse(su3_context, "dot(a,a)") == expected


def test_frame_generator_atom(su3_context):
    g = su3_context.setup.frame.generator
    assert parse(su3_context, "e2") == g("e2")
    assert parse(su3_context, "e3*e4*e5") == wedge(wedge(g("e3"), g("e4")), g("e5"))


def test_contraction_call(su3_context):
    dot = su3_context.contractions["dot"]
    a = su3_context.letters["a"]
    b = su3_context.letters["b"]
    assert parse(su3_context, "dot(a, b)") == contract_syllable(dot, [a, b])
    sigma = su3_context.contractions["sigma"]
    beta = su3_context.letters["beta"]
    assert parse(su3_context, "sigma(a,beta)") == contract_syllable(
        sigma, [a, beta]
    )


def test_contraction_calls_are_made_once_per_context(
    su3_setup, su3_alphabet, monkeypatch
):
    import equiform.expressions as expressions

    calls = []

    def counting(m, letters):
        calls.append((m.name, *(x.name for x in letters)))
        return contract_syllable(m, letters)

    monkeypatch.setattr(expressions, "contract_syllable", counting)
    letters, contractions = (list(m.values()) for m in su3_alphabet)
    ctx = build_context(su3_setup, letters, contractions)
    first = parse(ctx, "sigma(a,b)")
    total = parse(ctx, "dot(a,b)*sigma(a,b) + 2*sigma(a,b)*dot(a,b)")
    assert parse(ctx, "sigma(a, b)") is first
    assert calls == [("sigma", "a", "b"), ("dot", "a", "b")]
    assert not total.is_zero
    # a fresh context starts with no calls kept, and agrees
    monkeypatch.setattr(expressions, "contract_syllable", contract_syllable)
    fresh = build_context(su3_setup, letters, contractions)
    assert parse(fresh, "dot(a,b)*sigma(a,b) + 2*sigma(a,b)*dot(a,b)") == total


# -- operators --------------------------------------------------------------


def test_star_is_wedge_and_anticommutes(su3_context):
    ab = parse(su3_context, "dot(a,b)")
    abeta = parse(su3_context, "dot(a,beta)")
    assert parse(su3_context, "dot(a,b)*dot(a,beta)") == wedge(ab, abeta)
    assert parse(su3_context, "dot(a,beta)*dot(a,b)") == -wedge(ab, abeta)


def test_sum_difference_and_leading_sign(su3_context):
    ab = parse(su3_context, "dot(a,b)")
    sab = parse(su3_context, "sigma(a,b)")
    assert parse(su3_context, "dot(a,b)+sigma(a,b)") == ab + sab
    assert parse(su3_context, "dot(a,b)-sigma(a,b)") == ab - sab
    assert parse(su3_context, "-dot(a,b)") == -ab
    assert parse(su3_context, "dot(a,b) − dot(a,b)").is_zero


def test_scalar_coefficients_scale(su3_context):
    ab = parse(su3_context, "dot(a,b)")
    assert parse(su3_context, "2*dot(a,b)") == ab + ab
    assert parse(su3_context, "1/2*dot(a,b)") + parse(
        su3_context, "1/2*dot(a,b)"
    ) == ab


def test_parentheses_group(su3_context):
    lhs = parse(su3_context, "aa*(dot(a,b)+sigma(a,b))")
    rhs = parse(su3_context, "aa*dot(a,b)+aa*sigma(a,b)")
    assert lhs == rhs


def test_integer_powers(su3_context):
    assert parse(su3_context, "2^3") == su3_context.setup.frame.scalar_form(8)
    sq = parse(su3_context, "sigma(a,b)^2")
    s1 = parse(su3_context, "sigma(a,b)")
    assert sq == wedge(s1, s1)
    assert parse(su3_context, "dot(a,b)^0") == su3_context.setup.frame.one


def test_half_powers_resolve_to_radicals(su3_context, su2_context):
    ring3 = su3_context.setup.ring
    frame3 = su3_context.setup.frame
    s = ring3.var("s")
    assert parse(su3_context, "aa^(1/2)") == frame3.scalar_form(s)
    assert parse(su3_context, "aa^(-1/2)") == frame3.scalar_form(s**-1)
    assert parse(su3_context, "aa^(3/2)") == frame3.scalar_form(s**3)

    ring2 = su2_context.setup.ring
    frame2 = su2_context.setup.frame
    assert parse(su2_context, "(k+aa)^(1/2)") == frame2.scalar_form(
        ring2.var("u")
    )
    assert parse(su2_context, "(k + aa)^(-1/2)") == frame2.scalar_form(
        ring2.var("u") ** -1
    )


def test_sqrt_constants_are_in_scope(su3_context):
    # sqrt3 names the field constant, so its square collapses to 3
    assert parse(su3_context, "sqrt3*sqrt3*dot(a,b)") == parse(
        su3_context, "3*dot(a,b)"
    )
    assert parse(su3_context, "sqrt3^2") == su3_context.setup.frame.scalar_form(3)


def test_exterior_derivative_call(su2_context):
    assert parse(su2_context, "d(dot(a,a))") == parse(su2_context, "2*dot(a,b)")
    assert parse(su2_context, "d(dot(a,beta))") == parse(su2_context, "dot(b,beta)")
    assert parse(su2_context, "d(d(dot(a,beta)))").is_zero


# -- rejections -------------------------------------------------------------


@pytest.mark.parametrize(
    "text, needle",
    [
        ("zz", "unknown name 'zz'"),
        ("foo(a,b)", "unknown name 'foo'"),
        ("1+dot(a,b)", "degree mismatch"),
        ("dot(a,b)+sigma(b,b)*sigma(b,b)", "degree mismatch"),
        ("(1+aa)^(1/2)", "without a declared radical"),
        ("aa^(1/3)", "without a declared radical"),
        ("dot(a,b)^(1/2)", "without a declared radical"),
        ("a", "inside a contraction"),
        ("a*dot(a,b)", "inside a contraction"),
        ("dot", "must be applied to letters"),
        ("dot(a)", "takes 2 letters"),
        ("dot(a,b,a)", "takes 2 letters"),
        ("dot(a,2)", "must be a letter name"),
        ("dot(aa,b)", "unknown letter 'aa'"),
        ("d(dot(a,b),dot(a,b))", "single argument"),
        ("aa^-1", "cannot take the power -1"),
        ("sigma(a,b)^-1", "negative exponent -1 on a nonscalar"),
        ("dot(a,b", "expected ')'"),
        ("*2", "expected a value"),
        ("2 3", "unexpected trailing input"),
        ("dot(a,b) @", "unexpected character '@'"),
        ("aa^", "expected a numeric exponent"),
        ("sqrt5*dot(a,b)", "sqrt5 is not declared in ring.sqrt_constants"),
        ("2^33", "exceeds the bound 32"),
        ("aa^(-65/2)", "exceeds the bound 32"),
    ],
)
def test_rejections(su3_context, text, needle):
    with pytest.raises(ExpressionError) as err:
        parse(su3_context, text)
    assert needle in str(err.value)
    assert "position" in str(err.value) or "@" in text


def test_exponent_bound(su2_context):
    # the bound is checked before any product is formed, so a large power
    # is refused at once instead of expanding (k+aa)^400
    assert parse(su2_context, "2^32") == su2_context.frame.scalar_form(2**32)
    with pytest.raises(ExpressionError, match="exceeds the bound 32.*position 7"):
        parse(su2_context, "(k+aa)^400*det(b,b)")


def test_product_term_bound():
    # on the bundled su3_tcp2 context B+C+aa has 6 coefficient terms; its
    # 10th power has 3003, so the 11th step of either power is refused
    rc = realize_config(parse_config(resolve_config("su3_tcp2")[1]))
    for text in (
        "(B+C+aa)^16*dot(b,beta)",
        "(B+C+aa)^16*(B+C+aa)^16*dot(b,beta)",
    ):
        start = time.process_time()
        with pytest.raises(
            ExpressionError,
            match="product of 3003 and 6 coefficient terms exceeds the bound "
            "16384 at position 9",
        ):
            parse(rc.context, text)
        assert time.process_time() - start < 1.0
    assert not parse(rc.context, "(B+C+aa)^8*dot(b,beta)").is_zero


def test_error_positions_point_at_the_offender(su3_context):
    with pytest.raises(ExpressionError) as err:
        parse(su3_context, "dot(a,b) + zz")
    assert "position 12" in str(err.value)


def test_context_rejects_name_clashes(su3_setup, su3_alphabet):
    letters, contractions = su3_alphabet
    clash = letters["a"]
    with pytest.raises(ExpressionError):
        build_context(su3_setup, [clash, clash], list(contractions.values()))


# -- config-style letter components ----------------------------------------


def test_bilinear_letter_components_match_expressions(su3_context):
    eps = su3_context.letters["eps"]
    expected_first = parse(su3_context, "a2*e3*e2 + a3*e4*e2 + a4*e5*e2")
    assert eps.components[0] == expected_first


def test_tbeta_components_match_expressions(su3_context):
    tbeta = su3_context.letters["tbeta"]
    assert tbeta.components[1] == parse(su3_context, "-e2*e4*e5")
    assert tbeta.components[3] == parse(su3_context, "-e2*e3*e4")


# -- randomized structure checks -------------------------------------------

_WORDS = st.sampled_from(
    [
        "dot(a,b)",
        "sigma(a,b)",
        "dot(a,beta)",
        "sigma(a,beta)",
        "dot(b,beta)",
        "sigma(b,b)",
        "sigma(beta,beta)",
        "aa",
        "3/2",
    ]
)


@settings(max_examples=40, deadline=None)
@given(x=_WORDS, y=_WORDS)
def test_product_agrees_with_wedge(su3_context, x, y):
    assert parse(su3_context, f"{x}*{y}") == wedge(
        parse(su3_context, x), parse(su3_context, y)
    )


@settings(max_examples=25, deadline=None)
@given(x=_WORDS)
def test_parenthesisation_is_neutral(su3_context, x):
    assert parse(su3_context, f"({x})") == parse(su3_context, x)
    assert parse(su3_context, f"-(-({x}))") == parse(su3_context, x)
