"""Invariance and equivariance read off d, against the gauge-variation oracle.

d keeps its gauge terms, and a basic form is invariant exactly when its d
stays basic.  These tests compare that verdict with the per-index gauge
variation of gauge_variation_oracle.py on both bundled configs: every
dictionary translation, d of each, every task form, and seeded random basic
forms, most of them not invariant.  Letters, whose equivariance is read
off the gauge half of d alone, are compared the same way and with the full
pass of full_pass_equivariance_oracle.py, message for message, depth
refusals included.  They also pin d^2 = 0 with gauge terms kept, that
one d makes one pass, and that setup takes every partial from a gradient
pass.
"""

import random

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.expressions import parse_form_expression
from equiform.homogeneous import exterior_derivative, frame_derivative, is_invariant
from equiform.letters import Letter, LetterError, _check_equivariant, make_letter
from equiform.scalars import RingError, differentiate, gradient

import full_pass_equivariance_oracle as full_pass
import gauge_variation_oracle as oracle


@pytest.fixture(scope="module", params=["su3_tcp2", "su2_ts2"])
def realized(request):
    _, text = resolve_config(request.param)
    return realize_config(parse_config(text))


def _task_forms(rc):
    """Every form text of a verify or express task, and the argument of a
    top-level d(...)."""
    texts = []
    for task in rc.document.tasks:
        texts.extend(task.forms)
        texts.extend(t for t in (task.lhs, task.rhs, task.expression) if t)
    out = []
    for text in texts:
        if text.startswith("d(") and text.endswith(")"):
            out.append(parse_form_expression(text[2:-1], rc.context))
        out.append(parse_form_expression(text, rc.context))
    return out


def _random_basic_forms(setup, translations, seed, count):
    """Seeded basic forms: random words with coefficients in a, and
    translations perturbed by such words, by a coordinate, or not at all
    (a sum with constant coefficients, which stays invariant)."""
    rng = random.Random(seed)
    frame = setup.frame
    basic = [g for g in range(frame.size) if not frame.gauge_mask >> g & 1]
    coords = [setup.ring.var(f"a{i + 1}") for i in range(setup.fiber_dim)]

    def word():
        mask = 0
        for g in rng.sample(basic, rng.randint(0, 3)):
            mask |= 1 << g
        coeff = rng.randint(1, 3) * rng.choice(coords) + rng.randint(-1, 1)
        return frame.form({mask: coeff})

    out = []
    for n in range(count):
        x, y = rng.choice(translations), rng.choice(translations)
        choice = n % 4
        if choice == 0:
            out.append(word() + word())
        elif choice == 1:
            out.append(x + word())
        elif choice == 2:
            out.append(rng.choice(coords) * x)
        else:
            out.append(rng.randint(1, 3) * x - rng.randint(1, 3) * y)
    return out


def test_invariance_verdict_matches_oracle(realized):
    setup = realized.setup
    dictionary = realized.dictionary()
    translations = [e.translation for e in dictionary.entries]
    if dictionary.radial is not None:
        translations.append(dictionary.radial.translation)
    forms = translations + [exterior_derivative(setup, x) for x in translations]
    forms += _task_forms(realized)
    forms += _random_basic_forms(setup, translations, seed=6, count=40)
    forms = list(dict.fromkeys(forms))
    verdicts = [oracle.is_invariant(setup, x) for x in forms]
    assert any(verdicts) and not all(verdicts)
    for x, want in zip(forms, verdicts):
        assert is_invariant(setup, x) == want, str(x)


def _twisted_letters(setup, letters, seed):
    """Seeded letters whose components are permuted, rescaled or shifted
    by a coordinate, most of them not equivariant."""
    rng = random.Random(seed)
    coords = [setup.ring.var(f"a{i + 1}") for i in range(setup.fiber_dim)]
    out = []
    for letter in letters:
        comps = list(letter.components)
        twists = [
            comps[1:] + comps[:1],
            [comps[0] * rng.randint(2, 3)] + comps[1:],
            [c * rng.choice(coords) for c in comps],
            [setup.frame.one] + [setup.frame.zero] * (len(comps) - 1),
        ]
        out.extend(
            Letter(f"{letter.name}~{t}", letter.bidegree, tuple(c))
            for t, c in enumerate(twists)
        )
    return out


def _floor_letters(setup):
    """The coordinate letter over the depth floor of the first radical u:
    u^-depth a, whose partials fall below the floor and are refused, and
    u^(2-depth) a, whose partials reach the floor exactly."""
    ring = setup.ring
    u = ring.var(ring.radical_names[0])
    out = []
    for label, power in (("floor", -ring.depth), ("above", 2 - ring.depth)):
        comps = tuple(
            setup.frame.scalar_form(u**power * ring.var(f"a{i + 1}"))
            for i in range(setup.fiber_dim)
        )
        out.append(Letter(f"a~{label}", (0, 0), comps))
    return out


def _equivariance_message(check, setup, letter):
    try:
        check(setup, letter.name, letter.components)
    except (LetterError, RingError) as e:
        return type(e).__name__, str(e)
    return None


def test_equivariance_verdict_matches_oracle(realized):
    """The gauge-half check gives the verdict, and the message, of the
    per-index gauge variation and of the full d pass with the Form twist."""
    setup = realized.setup
    letters = list(realized.letters.values())
    letters += _twisted_letters(setup, letters, seed=6)
    letters += _floor_letters(setup)
    messages = [
        _equivariance_message(oracle._check_equivariant, setup, x) for x in letters
    ]
    assert any(m is None for m in messages) and any(messages)
    assert messages[-2][0] == "RingError" and messages[-1] is None
    for x, want in zip(letters, messages):
        for check in (full_pass.check_equivariant, _check_equivariant):
            assert _equivariance_message(check, setup, x) == want, x.name


@pytest.mark.parametrize("setup_name", ["su3_setup", "su2_setup"])
def test_d_squared_vanishes_with_gauge_terms(request, setup_name):
    setup = request.getfixturevalue(setup_name)
    frame = setup.frame
    sources = [frame.generator(name) for name in frame.names]
    ring = setup.ring
    scalars = [f"a{i + 1}" for i in range(setup.fiber_dim)] + [ring.radical_names[0]]
    sources += [frame.scalar_form(ring.var(name)) for name in scalars]
    images = [frame_derivative(setup, x) for x in sources]
    assert any(mask & frame.gauge_mask for y in images for mask in y.terms)
    for x, y in zip(sources, images):
        assert frame_derivative(setup, y).is_zero, str(x)


def test_d_differentiates_each_coefficient_once(su3_setup, monkeypatch):
    """On an invariant form, d takes the partials of each coefficient in one
    gradient pass: one derivation pass and no separate invariance check.
    Away from the depth floor no partial is taken on its own."""
    frame = su3_setup.frame
    ring = su3_setup.ring
    a = [ring.var(f"a{i}") for i in range(1, 5)]
    b = [frame.generator(f"b{i}") for i in range(1, 5)]
    sigma = a[0] * b[3] - a[3] * b[0] - a[1] * b[2] + a[2] * b[1]
    dot = sum((a[i] * b[i] for i in range(1, 4)), a[0] * b[0])
    x = sigma * dot
    assert len(x.terms) > 1
    su3_setup.derivative_images()
    passes, partials = _count_calls(monkeypatch)
    exterior_derivative(su3_setup, x)
    assert passes == list(x.terms.values())
    assert partials == []


def _count_calls(monkeypatch):
    """Record the scalar of every gradient pass the setup makes and the
    variable of every partial taken on its own by scalars.differentiate."""
    passes, partials = [], []

    def counting_gradient(c):
        passes.append(c)
        return gradient(c)

    def counting_differentiate(c, var):
        partials.append(var)
        return differentiate(c, var)

    monkeypatch.setattr("equiform.homogeneous.gradient", counting_gradient)
    monkeypatch.setattr("equiform.scalars.differentiate", counting_differentiate)
    return passes, partials


def test_setup_takes_no_partial_on_its_own(monkeypatch):
    """Realizing su3_tcp2 (its setup, the equivariance check of every letter
    and the invariance of its radicals) takes every partial from a gradient
    pass."""
    _, text = resolve_config("su3_tcp2")
    passes, partials = _count_calls(monkeypatch)
    realize_config(parse_config(text))
    assert passes and partials == []


def test_letters_skip_the_full_pass(realized, monkeypatch):
    """make_letter checks equivariance on the gauge half of d alone."""

    def refuse(setup, x):
        raise AssertionError("make_letter took the full pass")

    monkeypatch.setattr("equiform.homogeneous.frame_derivative", refuse)
    monkeypatch.setattr("equiform.letters.frame_derivative", refuse, raising=False)
    for x in realized.letters.values():
        make_letter(realized.setup, x.name, x.components)
