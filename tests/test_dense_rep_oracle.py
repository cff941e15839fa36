"""The setup checks read off d against the dense matrix checks they replace.

validate_setup reads Jacobi and the homomorphism property of rho off the
setup's derivative images: rho is a homomorphism on [e_a, e_b] exactly when
no d b_i has an e^a ^ e^b term.  dense_rep_oracle.py keeps the dense
[rho_a, rho_b] = -sum_g c^g_ab rho_g check.  Both must raise the same
SetupError issue list, or both accept, on seeded perturbations of the
bundled setups: single-entry edits, skew-preserving edits, transposed
matrices and structure constants with a flipped sign, one to three at once.
su2_ts2 has a single gauge index, so only su3_tcp2 reaches the
homomorphism check itself.
"""

import random
from fractions import Fraction

import pytest

from equiform.cli import resolve_config
from equiform.config import parse_config
from equiform.homogeneous import (
    SetupError,
    Splitting,
    make_algebra,
    make_representation,
    validate_setup,
)
from equiform.numberfield import NumberField

from dense_rep_oracle import dense_validate_setup

PERTURBATIONS = 300
VALUES = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]


def _edit_entry(rng, field, constants, matrices):
    a = rng.choice(sorted(matrices))
    k = len(matrices[a])
    i, j = rng.randrange(k), rng.randrange(k)
    matrices[a][i][j] = field.rational(rng.choice(VALUES))


def _edit_skew(rng, field, constants, matrices):
    a = rng.choice(sorted(matrices))
    k = len(matrices[a])
    i, j = rng.sample(range(k), 2)
    x = field.rational(rng.choice(VALUES))
    matrices[a][i][j], matrices[a][j][i] = x, -x


def _transpose(rng, field, constants, matrices):
    a = rng.choice(sorted(matrices))
    matrices[a] = [list(col) for col in zip(*matrices[a])]


def _flip_constant(rng, field, constants, matrices):
    n = rng.randrange(len(constants))
    i, j, k, c = constants[n]
    constants[n] = (i, j, k, -c)


EDITS = [_edit_entry, _edit_skew, _transpose, _flip_constant]


def _issues(check, document, constants, matrices):
    field = NumberField(document.ring.field_radicands)
    try:
        check(
            make_algebra(field, document.dimension, constants),
            Splitting(horizontal=document.horizontal, gauge=document.gauge),
            make_representation(field, matrices),
            document.ring,
        )
    except SetupError as e:
        return e.issues
    return []


@pytest.mark.parametrize("config, seed", [("su3_tcp2", 9), ("su2_ts2", 11)])
def test_issue_lists_match_dense_oracle(config, seed):
    document = parse_config(resolve_config(config)[1])
    field = NumberField(document.ring.field_radicands)
    rng = random.Random(seed)
    rejected = homomorphism = 0
    for _ in range(PERTURBATIONS):
        constants = list(document.constants)
        matrices = {a: [list(row) for row in m] for a, m in document.representation}
        for _ in range(rng.randint(1, 3)):
            rng.choice(EDITS)(rng, field, constants, matrices)
        issues = _issues(validate_setup, document, constants, matrices)
        assert issues == _issues(dense_validate_setup, document, constants, matrices)
        rejected += bool(issues)
        homomorphism += any("not a homomorphism" in s for s in issues)
    # both verdicts are exercised, and the homomorphism issue wherever the
    # gauge part has a bracket to check
    assert 0 < rejected < PERTURBATIONS
    assert (homomorphism > 0) == (len(document.gauge) > 1)
