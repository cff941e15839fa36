"""Invariance and equivariance read off d, against the gauge-variation oracle.

d keeps its gauge terms, and a basic form is invariant exactly when its d
stays basic.  These tests compare that verdict with the per-index gauge
variation of gauge_variation_oracle.py on both bundled configs: every
dictionary translation, d of each, every task form, and seeded random basic
forms, most of them not invariant.  Letters are compared the same way.
They also pin d^2 = 0 with gauge terms kept, and that one d makes one pass.
"""

import random

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.expressions import parse_form_expression
from equiform.homogeneous import exterior_derivative, frame_derivative, is_invariant
from equiform.letters import Letter, LetterError, _check_equivariant
from equiform.scalars import Scalar

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


def _equivariance_message(check, setup, letter):
    try:
        check(setup, letter.name, letter.components)
    except LetterError as e:
        return str(e)
    return None


def test_equivariance_verdict_matches_oracle(realized):
    setup = realized.setup
    letters = list(realized.letters.values())
    letters += _twisted_letters(setup, letters, seed=6)
    messages = [
        _equivariance_message(oracle._check_equivariant, setup, x) for x in letters
    ]
    assert any(m is None for m in messages) and any(messages)
    for x, want in zip(letters, messages):
        assert _equivariance_message(_check_equivariant, setup, x) == want, x.name


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
    """On an invariant form, d takes the fiber_dim partials of each
    coefficient once: one derivation pass and no separate invariance check."""
    frame = su3_setup.frame
    ring = su3_setup.ring
    a = [ring.var(f"a{i}") for i in range(1, 5)]
    b = [frame.generator(f"b{i}") for i in range(1, 5)]
    sigma = a[0] * b[3] - a[3] * b[0] - a[1] * b[2] + a[2] * b[1]
    dot = sum((a[i] * b[i] for i in range(1, 4)), a[0] * b[0])
    x = sigma * dot
    assert len(x.terms) > 1
    su3_setup.derivative_images()
    calls = []
    original = Scalar.differentiate

    def counting(self, var):
        calls.append(var)
        return original(self, var)

    monkeypatch.setattr(Scalar, "differentiate", counting)
    exterior_derivative(su3_setup, x)
    assert len(calls) == su3_setup.fiber_dim * len(x.terms)
