"""The equivariance check and DX as they were while both took the full d
pass, kept as an oracle.

The check took d of every component with its gauge terms, added the
representation twist rho(theta) X by Form arithmetic, and refused the letter
for the first gauge index e^A, in the splitting's order, whose words
survived in any component.  DX was the same sums, basic once the check had
passed.  The package now computes only the gauge half of d for the check
and only the basic half for DX.

d here is the full pass of per_product_oracle.py, which takes each partial
derivative through Scalar.differentiate and normalizes every product on its
own, so this oracle shares neither gradient, nor the split generator
images, nor the word maps with the package.  A partial below the depth
floor is refused by differentiate, as the package refuses it.
"""

from typing import Sequence

from equiform.forms import Form
from equiform.homogeneous import HomogeneousSetup
from equiform.letters import Letter, LetterError

import per_product_oracle


def _full_pass(setup: HomogeneousSetup, name: str, comps: Sequence[Form]) -> list[Form]:
    """DX = dX + rho(theta) X with its gauge terms, refused unless they
    vanish."""
    out = [per_product_oracle.frame_derivative(setup, c) for c in comps]
    for a in setup.splitting.gauge:
        rho_a = setup.rho(a)
        e_a = setup.frame.generator(f"e{a}")
        for i in range(setup.fiber_dim):
            for j in range(setup.fiber_dim):
                if rho_a[i][j]:
                    out[i] = out[i] + rho_a[i][j] * per_product_oracle.wedge(
                        e_a, comps[j]
                    )
    for a in setup.splitting.gauge:
        bit = 1 << setup.frame.index[f"e{a}"]
        if any(mask & bit for total in out for mask in total.terms):
            raise LetterError(f"letter {name} is not equivariant along e{a}")
    return out


def check_equivariant(
    setup: HomogeneousSetup, name: str, comps: Sequence[Form]
) -> None:
    _full_pass(setup, name, comps)


def covariant_derivative_DX(setup: HomogeneousSetup, letter: Letter) -> list[Form]:
    """The components of DX."""
    return _full_pass(setup, letter.name, letter.components)
