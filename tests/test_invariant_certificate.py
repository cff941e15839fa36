"""Certified-invariant forms against the full d pass as the oracle.

An InvariantForm takes d on the basic frame only, with no invariance check.
frame_derivative keeps every gauge term, so on a certified form it must be
basic and equal to that basic d.  The bundled translations and task forms
are checked one by one, letters and contractions built without their
checks are refused wherever a syllable is formed, and Hypothesis
expressions from the README grammar check the parser's certificate rules,
on su2_ts2 and on a variant whose radical square k+a1*a1 is not
invariant.
"""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from equiform import expressions
from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import generate_dictionary
from equiform.expressions import (
    ExpressionError,
    build_context,
    parse_form_expression,
)
from equiform.forms import Form
from equiform.homogeneous import (
    InvariantForm,
    SetupError,
    exterior_derivative,
    frame_derivative,
    is_basic,
)
from equiform.letters import (
    Contraction,
    Letter,
    LetterError,
    contract_syllable,
    covariant_derivative_DX,
)
from equiform.scalars import RingError


def _realize(name, square=None):
    doc = json.loads(resolve_config(name)[1])
    if square is not None:
        doc["ring"]["radicals"][0]["square"] = square
    return realize_config(parse_config(json.dumps(doc)))


def _task_texts(rc):
    texts = []
    for task in rc.document.tasks:
        texts.extend(task.forms)
        texts.extend(t for t in (task.lhs, task.rhs, task.expression) if t)
    return texts


def _assert_basic_d_is_full_pass(setup, x):
    full = frame_derivative(setup, x)
    assert is_basic(setup, x) and is_basic(setup, full), str(x)
    assert exterior_derivative(setup, x) == full, str(x)


@pytest.fixture(scope="module", params=["su3_tcp2", "su2_ts2"])
def bundled(request):
    return _realize(request.param)


def test_translations_are_certified(bundled):
    setup = bundled.setup
    dictionary = bundled.dictionary()
    entries = list(dictionary.entries) + [dictionary.radial]
    assert len(entries) > 10
    for e in entries:
        assert isinstance(e.translation, InvariantForm), e.word.render()
        _assert_basic_d_is_full_pass(setup, e.translation)


def test_task_forms_are_certified(bundled):
    texts = _task_texts(bundled)
    assert texts
    for text in texts:
        x = parse_form_expression(text, bundled.context)
        assert isinstance(x, InvariantForm), text
        _assert_basic_d_is_full_pass(bundled.setup, x)


def test_radial_square_d_is_certified(bundled):
    setup = bundled.setup
    aa = InvariantForm.of(setup.frame.scalar_form(setup.ring.radial_square))
    _assert_basic_d_is_full_pass(setup, aa)


def test_certified_form_with_a_gauge_letter_is_refused(bundled):
    setup = bundled.setup
    gauge = setup.frame.names[-1]
    x = InvariantForm.of(setup.frame.generator(gauge))
    with pytest.raises(SetupError, match="input not invariant and basic"):
        exterior_derivative(setup, x)


def _assert_refused(message, compute, *args):
    with pytest.raises(LetterError) as info:
        compute(*args)
    assert str(info.value) == message


def _assert_syllables_refused(bundled, letters, contractions, message):
    """contract_syllable, generation and the parser all refuse the alphabet
    with the one message."""
    setup = bundled.setup
    m = contractions[-1]
    lets = [letters[-1]] * m.arity
    _assert_refused(message, contract_syllable, m, lets)
    _assert_refused(message, generate_dictionary, setup, letters, contractions)
    ctx = build_context(setup, letters, contractions)
    call = f"{m.name}({','.join(x.name for x in lets)})"
    _assert_refused(message, parse_form_expression, call, ctx)


def test_hand_built_letter_is_not_certified(bundled):
    """A Letter built without make_letter skipped the equivariance check,
    so it carries no certificate: no syllable, and no DX, is formed from
    it."""
    setup = bundled.setup
    frame = setup.frame
    v = Letter("v", (0, 0), (frame.one,) + (frame.zero,) * (setup.fiber_dim - 1))
    message = "letter v was not built by make_letter"
    letters = [bundled.letters["b"], v]
    _assert_syllables_refused(bundled, letters, [bundled.contractions["dot"]], message)
    _assert_refused(message, covariant_derivative_DX, setup, v)
    # the refusal does not depend on the letter being equivariant
    b = bundled.letters["b"]
    plain_b = Letter("b", b.bidegree, b.components)
    _assert_refused(
        "letter b was not built by make_letter", covariant_derivative_DX, setup, plain_b
    )


def test_hand_built_contraction_is_not_certified(bundled):
    """A Contraction built without make_contraction skipped the invariance
    check, so it carries no certificate: no syllable is formed from it."""
    one = bundled.setup.field.one
    m = Contraction("first", 2, (((0, 0), one),))
    letters = [bundled.letters["a"], bundled.letters["b"]]
    contractions = [bundled.contractions["dot"], m]
    message = "contraction first was not built by make_contraction"
    _assert_syllables_refused(bundled, letters, contractions, message)


# -- generated expressions ----------------------------------------------------

# su2_ts2 atoms by form degree: contractions of letters, aa, the parameter
# k, the radical u, numbers, a fiber coordinate and two frame generators
_ATOMS = {
    0: [
        "2", "1/3", "k", "aa", "u", "a1", "dot(a,a)",
        "(k+aa)^(1/2)", "(k+a1*a1)^(-1/2)",
    ],
    1: ["e1", "b1", "dot(a,b)", "dot(a,beta)", "det(a,b)", "det(a,beta)"],
    2: ["dot(b,beta)", "det(b,b)", "det(b,beta)", "det(beta,beta)"],
}


def _expression(degree, depth):
    """README-grammar strings whose value is a form of the given degree."""
    options = [st.sampled_from(_ATOMS[degree])] if degree in _ATOMS else []
    if depth == 0:
        return options[0]
    sub = depth - 1
    same = _expression(degree, sub)
    options.append(
        st.builds(
            lambda x, op, y: f"{x}{op}({y})", same, st.sampled_from("+-"), same
        )
    )
    options.append(
        st.builds(lambda f, x: f"({f})*({x})", _expression(0, sub), same)
    )
    if degree == 0:
        options.append(
            st.builds(
                lambda x, e: f"({x})^{e}", same, st.sampled_from(["0", "2", "(-1)"])
            )
        )
    else:
        options.append(st.builds(lambda x: f"d({x})", _expression(degree - 1, sub)))
        options.append(
            st.builds(
                lambda x, y: f"({x})*({y})",
                _expression(1, sub),
                _expression(degree - 1, sub),
            )
        )
    return st.one_of(options)


_EXPRESSIONS = st.integers(0, 2).flatmap(lambda n: _expression(n, 2))


def _full_pass_d(setup, x):
    """d with the certificate dropped: the full pass and its check."""
    return exterior_derivative(setup, Form(x.frame, x.terms))


def _outcome(text, ctx):
    try:
        return parse_form_expression(text, ctx)
    except (SetupError, RingError) as e:
        return (type(e), str(e))


@pytest.fixture(
    scope="module", params=[("k+aa", True), ("k+a1*a1", False)], ids=str
)
def su2_variant(request):
    square, radical_invariant = request.param
    return _realize("su2_ts2", square), radical_invariant


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(text=_EXPRESSIONS)
@example(text="u*dot(b,beta)")
@example(text="a1*dot(b,beta)")
@example(text="(k+a1*a1)^(1/2)*dot(b,beta)")
@example(text="e1")
@example(text="d(u)")
def test_certificate_agrees_with_full_pass(su2_variant, text):
    rc, _ = su2_variant
    setup, ctx = rc.setup, rc.context
    try:
        x = _outcome(text, ctx)
    except ExpressionError:
        reject()
    # nested d(...) gives the same forms and errors as the full pass
    with mock.patch.object(expressions, "exterior_derivative", _full_pass_d):
        assert _outcome(text, ctx) == x
    if isinstance(x, tuple):
        return
    try:
        full = frame_derivative(setup, x)
    except RingError:
        # a radical power below the depth bound: either pass refuses it
        with pytest.raises(RingError):
            exterior_derivative(setup, x)
        return
    invariant = is_basic(setup, x) and is_basic(setup, full)
    if isinstance(x, InvariantForm):
        assert invariant
        assert exterior_derivative(setup, x) == full
    elif invariant:
        assert exterior_derivative(setup, x) == full
    else:
        with pytest.raises(SetupError, match="input not invariant and basic"):
            exterior_derivative(setup, x)


def test_radical_is_certified_exactly_when_its_square_is_invariant(su2_variant):
    rc, radical_invariant = su2_variant
    assert rc.setup.radical_is_invariant("u") == radical_invariant
    for text in ("u", "u*dot(b,beta)", "(k+a1*a1)^(1/2)", "u^-1*det(b,b)"):
        try:
            x = parse_form_expression(text, rc.context)
        except ExpressionError:
            continue  # (k+a1*a1)^(1/2) names no radical of the k+aa ring
        assert isinstance(x, InvariantForm) == radical_invariant, text


def test_fiber_coordinates_and_generators_are_never_certified(su2_variant):
    ctx = su2_variant[0].context
    for text in ("a1", "a2*dot(b,beta)", "e1", "b2", "k*e3", "dot(a,b)+b1"):
        assert not isinstance(parse_form_expression(text, ctx), InvariantForm), text
    for text in ("k", "2*aa", "1/2", "-dot(a,b)", "d(aa)", "k^(-1)"):
        assert isinstance(parse_form_expression(text, ctx), InvariantForm), text
