"""Differential test: d and DX on the basic frame against the raw-frame oracle.

Both bundled configs are realized as the command line realizes them.  d is
compared on every dictionary translation (the radial invariant included)
and on every form that a verify or express task takes d of; DX is compared
on every letter and on DX of each, also with the full-pass oracle.
"""

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.expressions import parse_form_expression
from equiform.homogeneous import exterior_derivative
from equiform.letters import covariant_derivative_DX

import full_pass_equivariance_oracle as full_pass
from raw_frame_oracle import RawFrame


@pytest.fixture(scope="module", params=["su3_tcp2", "su2_ts2"])
def realized(request):
    _, text = resolve_config(request.param)
    return realize_config(parse_config(text))


def _task_forms(rc):
    """The forms the verify and express tasks differentiate: verify_closed
    forms, equation sides, and the argument of a top-level d(...)."""
    texts = []
    for task in rc.document.tasks:
        texts.extend(task.forms)
        texts.extend(t for t in (task.lhs, task.rhs, task.expression) if t)
    out = []
    for text in texts:
        if text.startswith("d(") and text.endswith(")"):
            text = text[2:-1]
        out.append((text, parse_form_expression(text, rc.context)))
    return out


def test_d_matches_oracle_on_dictionary(realized):
    setup = realized.setup
    oracle = RawFrame(setup)
    dictionary = realized.dictionary()
    entries = list(dictionary.entries)
    if dictionary.radial is not None:
        entries.append(dictionary.radial)
    assert entries
    for e in entries:
        assert exterior_derivative(setup, e.translation) == (
            oracle.exterior_derivative(e.translation)
        ), e.word.render()


def test_d_matches_oracle_on_task_forms(realized):
    setup = realized.setup
    oracle = RawFrame(setup)
    forms = _task_forms(realized)
    assert forms
    for text, form in forms:
        assert exterior_derivative(setup, form) == (
            oracle.exterior_derivative(form)
        ), text


def test_DX_matches_oracle_on_letters(realized):
    """DX, the basic part of d X, against the raw frame and against the full
    d pass with the representation twist, on every letter and on DX of
    each."""
    setup = realized.setup
    oracle = RawFrame(setup)
    letters = list(realized.letters.values())
    letters += [covariant_derivative_DX(setup, x) for x in letters]
    for letter in letters:
        dx = list(covariant_derivative_DX(setup, letter).components)
        assert dx == oracle.covariant_derivative_DX(letter), letter.name
        assert dx == full_pass.covariant_derivative_DX(setup, letter), letter.name
