"""The fused wedge and exterior derivative, which sum each output word
unreduced and normalize it once, against the per-product kernels kept in
per_product_oracle.py: equal results, and a RingError with the same message
exactly when the oracle raises one.

Random forms come from form_strategies.ring_forms, with radical exponents
from -2 to 2, over both bundled setups and over su3_tcp2 with the depth
bound 3, where products of those exponents and their derivatives cross the
floor, so that both the unreduced path and the per-product fallback run.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiform.forms import merge_sign, wedge
from equiform.homogeneous import _derivation, frame_derivative, validate_setup
from equiform.scalars import RingError

import per_product_oracle as oracle
from conftest import su3_raw, su3_ring_spec
from form_strategies import ring_forms


@pytest.fixture(scope="module")
def su3_depth3_setup():
    _, algebra, splitting, representation = su3_raw()
    spec = replace(su3_ring_spec(), radical_depth=3)
    return validate_setup(algebra, splitting, representation, spec)


SETUPS = ["su2_setup", "su3_setup", "su3_depth3_setup"]


def _outcome(fn, *args):
    """fn(*args), or the message of the RingError it raises."""
    try:
        return fn(*args)
    except RingError as e:
        return f"RingError: {e}"


def _basic_derivative(setup, x):
    return _derivation(x, setup.basic_images(), setup._vertical)


@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_merge_sign_matches_the_bit_loop(mx, my):
    my &= ~mx
    assert merge_sign(mx, my) == oracle.merge_sign(mx, my)


@pytest.mark.parametrize("name", SETUPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wedge_matches_the_per_product_kernel(request, name, data):
    setup = request.getfixturevalue(name)
    x = data.draw(ring_forms(setup.frame))
    y = data.draw(ring_forms(setup.frame))
    assert _outcome(wedge, x, y) == _outcome(oracle.wedge, x, y)


@pytest.mark.parametrize("name", SETUPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_d_matches_the_per_product_kernel(request, name, data):
    setup = request.getfixturevalue(name)
    x = data.draw(ring_forms(setup.frame))
    assert _outcome(frame_derivative, setup, x) == _outcome(
        oracle.frame_derivative, setup, x
    )
    assert _outcome(_basic_derivative, setup, x) == _outcome(
        oracle.basic_derivative, setup, x
    )


def test_products_at_the_depth_floor(su3_setup):
    # depth 4: s^-2 ^ s^-2 reaches the floor, s^-3 ^ s^-2 and d(s^-4)
    # cross it, and the refusal names the exponent of the first product
    # that does, as it did product by product
    frame, ring = su3_setup.frame, su3_setup.ring
    s = ring.var("s")
    e2, e3, b1 = (frame.generator(n) for n in ("e2", "e3", "b1"))
    x, y = s**-2 * e2, s**-2 * e3
    assert wedge(x, y) == oracle.wedge(x, y) == s**-4 * wedge(e2, e3)
    x = s**-3 * e2 + s * b1
    want = "RingError: radical exponent -5 below depth bound -4 for s"
    assert _outcome(wedge, x, y) == _outcome(oracle.wedge, x, y) == want
    x = s**-4 * e2
    want = "RingError: radical exponent -6 below depth bound -4 for s"
    assert _outcome(_basic_derivative, su3_setup, x) == want
    assert _outcome(oracle.basic_derivative, su3_setup, x) == want
    assert _outcome(frame_derivative, su3_setup, x) == want
