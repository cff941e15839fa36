"""Sphere reduction and verdict plumbing.

The pullback test is algebraic: a residual passes on the sphere iff
wedging with d(aa) and reducing modulo aa = 1 gives zero.  The cases here
pin both directions on forms whose restriction is known by hand.
"""

import pytest

from equiform.expressions import parse_form_expression
from equiform.forms import wedge
from equiform.homogeneous import exterior_derivative
from equiform.verify import (
    VerifyError,
    sphere_reduce,
    vanishes_on_sphere,
    verify_closed,
    verify_equation,
)


def parse(ctx, text):
    return parse_form_expression(text, ctx)


def test_sphere_reduce_normalizes_radius(su3_context):
    setup = su3_context.setup
    frame = setup.frame
    assert sphere_reduce(setup, frame.scalar_form(setup.ring.radial_square)) == frame.one
    assert sphere_reduce(setup, frame.scalar_form(setup.ring.var("s"))) == frame.one
    assert sphere_reduce(
        setup, frame.scalar_form(setup.ring.var("s") ** -1)
    ) == frame.one


def test_sphere_reduce_kills_the_sphere_ideal(su3_context):
    setup = su3_context.setup
    eta = parse(su3_context, "(1-aa)*sigma(b,b)")
    assert sphere_reduce(setup, eta).is_zero
    survivor = parse(su3_context, "sigma(b,b)")
    assert sphere_reduce(setup, survivor) == survivor


def test_sphere_reduce_rejects_foreign_radicals(su2_context):
    setup = su2_context.setup
    eta = parse(su2_context, "(k+aa)^(1/2)*det(b,b)")
    with pytest.raises(VerifyError) as err:
        sphere_reduce(setup, eta)
    assert "radical u" in str(err.value)


def test_vanishing_on_sphere_matches_hand_pullbacks(su3_context):
    setup = su3_context.setup
    # dot(a,b) is half of d(aa), so it pulls back to zero
    assert vanishes_on_sphere(setup, parse(su3_context, "dot(a,b)"))
    # a horizontal area form restricts to a nonzero form on every fiber point
    assert not vanishes_on_sphere(setup, parse(su3_context, "sigma(beta,beta)"))
    assert vanishes_on_sphere(setup, parse(su3_context, "(1-aa)*sigma(beta,beta)"))
    d_aa = exterior_derivative(
        setup, setup.frame.scalar_form(setup.ring.radial_square)
    )
    assert vanishes_on_sphere(
        setup, wedge(d_aa, parse(su3_context, "sigma(a,beta)"))
    )


def test_sphere_pieces_are_built_once_per_setup(monkeypatch):
    import equiform.verify as verify
    from conftest import su3_raw, su3_ring_spec
    from equiform.homogeneous import validate_setup

    _, algebra, splitting, representation = su3_raw()
    setup = validate_setup(algebra, splitting, representation, su3_ring_spec())
    calls = []

    def counting(setup, x):
        calls.append(x)
        return exterior_derivative(setup, x)

    monkeypatch.setattr(verify, "exterior_derivative", counting)
    frame, ring = setup.frame, setup.ring
    b = [frame.generator(f"b{i}") for i in range(1, 5)]
    half_d_aa = frame.zero
    for i in range(4):
        half_d_aa = half_d_aa + ring.var(f"a{i + 1}") * b[i]
    # d(aa)/2 pulls back to zero on the sphere; b1^b2 does not
    assert vanishes_on_sphere(setup, half_d_aa)
    assert not vanishes_on_sphere(setup, wedge(b[0], b[1]))
    assert not sphere_reduce(setup, frame.scalar_form(ring.var("s"))).is_zero
    assert len(calls) == 1  # d(aa), on first use


def test_verify_closed_global(su2_context):
    setup = su2_context.setup
    good = verify_closed(setup, parse(su2_context, "-dot(b,beta)"), name="omega2")
    assert good.holds and good.check == "closed" and not good.on_sphere
    assert good.residual.is_zero

    tau = parse(su2_context, "dot(a,beta)")
    bad = verify_closed(setup, tau, name="tau")
    assert not bad.holds
    assert bad.residual == parse(su2_context, "dot(b,beta)")
    assert "FAILS" in bad.describe()
    assert "tau" in bad.describe()


def test_verify_equation_exact_and_on_sphere(su2_context, su3_context):
    setup2 = su2_context.setup
    v = verify_equation(
        setup2,
        parse(su2_context, "d(dot(a,a))"),
        parse(su2_context, "2*dot(a,b)"),
        name="radial derivative",
    )
    assert v.holds and v.check == "equation"

    setup3 = su3_context.setup
    ab = parse(su3_context, "dot(a,b)")
    zero = parse(su3_context, "0")
    assert not verify_equation(setup3, ab, zero, name="ab").holds
    sphere = verify_equation(setup3, ab, zero, name="ab", on_sphere=True)
    assert sphere.holds and sphere.on_sphere
    assert "on the unit sphere" in sphere.describe()
