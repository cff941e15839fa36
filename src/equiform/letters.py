"""Letters and contractions: the alphabet for invariant-form words.

A letter is a V-valued form on the bundle, given by its k component forms
in the basic frame.  The components must be basic and jointly equivariant,
so that contracting r letters with an invariant r-tensor on V produces an
invariant form.  DX = dX + rho(theta) X is basic exactly when X is
equivariant: the check reads the gauge part of d X plus rho(theta) X, and
DX is the basic part of d X.  The canonical letters are the fiber
coordinates (a) and the covariant vertical frame (b); constant horizontal
letters and letters induced by equivariant bilinear maps cover the rest.
Only make_letter and make_contraction, which run the checks, build the
CheckedLetter and CheckedContraction that contract_syllable and
covariant_derivative_DX accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Sequence

from equiform.forms import Form, bidegree_split, finish_form, merge_sign, wedge
from equiform.homogeneous import (
    HomogeneousSetup,
    InvariantForm,
    basic_derivative,
    gauge_derivative,
    is_basic,
)
from equiform.numberfield import Coefficient, canonical, coefficient
from equiform.scalars import accumulate_product, multiply_into


class LetterError(ValueError):
    pass


@dataclass(frozen=True)
class Letter:
    """A named V-valued invariant form, one component per fiber index."""

    name: str
    bidegree: tuple[int, int]
    components: tuple[Form, ...]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self) -> str:
        return f"Letter({self.name}, bidegree={self.bidegree})"


class CheckedLetter(Letter):
    """A Letter that passed make_letter's checks; only make_letter builds
    one."""


@dataclass(frozen=True)
class Contraction:
    """An invariant r-linear functional on V, stored sparsely: its nonzero
    entries, canonical coefficients keyed by 0-based index tuples."""

    name: str
    arity: int
    entries: tuple[tuple[tuple[int, ...], Coefficient], ...]

    def __repr__(self) -> str:
        return f"Contraction({self.name}, arity={self.arity})"


class CheckedContraction(Contraction):
    """A Contraction that passed make_contraction's checks; only
    make_contraction builds one."""


def _component_bidegree(components: Sequence[Form]) -> tuple[int, int]:
    found: set[tuple[int, int]] = set()
    for c in components:
        if c.is_zero:
            continue
        parts = bidegree_split(c)
        found.update(parts.keys())
    if len(found) > 1:
        raise LetterError(
            f"letter components are not bidegree homogeneous: {sorted(found)}"
        )
    return found.pop() if found else (0, 0)


def make_letter(
    setup: HomogeneousSetup, name: str, components: Sequence[Form]
) -> Letter:
    """Validate basicness, homogeneity and joint equivariance, then wrap."""
    comps = tuple(components)
    if len(comps) != setup.fiber_dim:
        raise LetterError(
            f"letter {name} needs {setup.fiber_dim} components, got {len(comps)}"
        )
    for i, c in enumerate(comps):
        if c.frame is not setup.frame:
            raise LetterError(f"component {i + 1} of {name} uses a foreign frame")
        if not is_basic(setup, c):
            raise LetterError(f"component {i + 1} of {name} is not basic")
    bidegree = _component_bidegree(comps)
    _check_equivariant(setup, name, comps)
    return CheckedLetter(name=name, bidegree=bidegree, components=comps)


def _check_equivariant(
    setup: HomogeneousSetup, name: str, comps: Sequence[Form]
) -> None:
    """Refuse a non-equivariant letter.

    On basic components the gauge part of DX is sum_A e^A ^ (the variation
    of X along e_A plus rho_A X), which vanishes exactly when X is
    equivariant.  The twist rho_A[i][j] e^A ^ X_j and the gauge part of
    d X_i fill one map per word of component i, normalized once."""
    ring, index = setup.ring, setup.frame.index
    (unit,) = ring.one.coeffs  # the monomial of the constants
    gauge_parts = []
    for i, x in enumerate(comps):
        words: dict[int, dict] = {}
        for a in setup.splitting.gauge:
            bit = 1 << index[f"e{a}"]
            for r, y in zip(setup.rho(a)[i], comps):
                if r:
                    rc = {unit: r}
                    for m, s in y.terms.items():
                        acc = words.setdefault(m | bit, {})
                        accumulate_product(ring, acc, s.coeffs, rc, merge_sign(bit, m))
        gauge_parts.append(gauge_derivative(setup, x, words))
    for a in setup.splitting.gauge:
        bit = 1 << index[f"e{a}"]
        if any(mask & bit for total in gauge_parts for mask in total.terms):
            raise LetterError(f"letter {name} is not equivariant along e{a}")


def letter_a(setup: HomogeneousSetup) -> Letter:
    comps = tuple(
        setup.frame.scalar_form(setup.ring.var(f"a{i + 1}"))
        for i in range(setup.fiber_dim)
    )
    return make_letter(setup, "a", comps)


def letter_b(setup: HomogeneousSetup) -> Letter:
    comps = tuple(
        setup.frame.generator(f"b{i + 1}") for i in range(setup.fiber_dim)
    )
    return make_letter(setup, "b", comps)


def _check_constant_horizontal(name: str, setup: HomogeneousSetup, form: Form):
    hor = setup.frame.horizontal_mask
    for mask, c in form.terms.items():
        if mask & ~hor:
            raise LetterError(
                f"letter {name}: components must be purely horizontal"
            )
        if not c.is_constant:
            raise LetterError(
                f"letter {name}: components must have constant coefficients"
            )


def letter_from_T_valued_map(
    setup: HomogeneousSetup, name: str, components: Sequence[Form]
) -> Letter:
    """A letter whose components are constant horizontal forms."""
    for c in components:
        _check_constant_horizontal(name, setup, c)
    return make_letter(setup, name, components)


def letter_from_bilinear_map(
    setup: HomogeneousSetup, name: str, psi: Sequence[Sequence[Form]]
) -> Letter:
    """The letter with components sum_j a_j psi[j][i], for an equivariant
    map psi from V x V to horizontal forms given entrywise."""
    k = setup.fiber_dim
    if len(psi) != k or any(len(row) != k for row in psi):
        raise LetterError(f"letter {name}: psi must be a {k} by {k} form array")
    for row in psi:
        for f in row:
            _check_constant_horizontal(name, setup, f)
    comps = []
    for i in range(k):
        acc = setup.frame.zero
        for j in range(k):
            acc = acc + setup.ring.var(f"a{j + 1}") * psi[j][i]
        comps.append(acc)
    return make_letter(setup, name, comps)


def _digits(idx: tuple[int, ...]) -> str:
    """An index tuple as the config writes it: 1-based digits."""
    return "".join(str(i + 1) for i in idx)


def make_contraction(
    setup: HomogeneousSetup,
    name: str,
    entries: Mapping[tuple[int, ...], object],
    symmetry: str = "none",
) -> Contraction:
    """Validate the declared symmetry and the invariance of the coefficient
    tensor, then wrap it."""
    k = setup.fiber_dim
    clean: dict[tuple[int, ...], Coefficient] = {}
    arity = None
    for idx, c in entries.items():
        idx = tuple(idx)
        if arity is None:
            arity = len(idx)
        elif len(idx) != arity:
            raise LetterError(f"contraction {name}: mixed index arity")
        if any(not 0 <= i < k for i in idx):
            raise LetterError(f"contraction {name}: index {idx} out of range")
        ce = coefficient(setup.field, c)
        if ce:
            clean[idx] = ce
    if arity is None or not clean:
        raise LetterError(f"contraction {name} is identically zero")
    if symmetry not in ("none", "symmetric", "antisymmetric"):
        raise LetterError(f"contraction {name}: unknown symmetry {symmetry!r}")
    # adjacent swaps generate every permutation of the slots
    for idx, c in clean.items() if symmetry != "none" else ():
        want = c if symmetry == "symmetric" else -c
        for p in range(arity - 1):
            swap = idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2 :]
            got = clean.get(swap, 0)
            if got != want:
                raise LetterError(
                    f"contraction {name} is declared {symmetry}, but entry "
                    f"{_digits(idx)} is {c} and the swapped entry "
                    f"{_digits(swap)} is {got}"
                )
    # infinitesimal invariance: sum over slots of the rho-twisted tensor
    for a in setup.splitting.gauge:
        rho_a = setup.rho(a)
        resid: dict[tuple[int, ...], Coefficient] = {}
        for idx, c in clean.items():
            for slot in range(arity):
                # entry contributes c * rho[idx[slot]][t] to index with t in slot
                for t in range(k):
                    r = rho_a[idx[slot]][t]
                    if not r:
                        continue
                    tgt = idx[:slot] + (t,) + idx[slot + 1 :]
                    s = canonical(resid.get(tgt, 0) + c * r)
                    if s:
                        resid[tgt] = s
                    else:
                        resid.pop(tgt, None)
        if resid:
            raise LetterError(f"contraction {name} is not invariant along e{a}")
    ordered = tuple(sorted(clean.items(), key=lambda kv: kv[0]))
    return CheckedContraction(name=name, arity=arity, entries=ordered)


def dot_contraction(setup: HomogeneousSetup) -> Contraction:
    """The euclidean pairing on V."""
    entries = {(i, i): 1 for i in range(setup.fiber_dim)}
    return make_contraction(setup, "dot", entries, symmetry="symmetric")


def det_contraction(setup: HomogeneousSetup) -> Contraction:
    """The volume form on V as a fully antisymmetric arity-k tensor."""
    k = setup.fiber_dim
    entries: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(k)):
        inv = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if perm[i] > perm[j]
        )
        entries[perm] = -1 if inv % 2 else 1
    return make_contraction(setup, "det", entries, symmetry="antisymmetric")


def _require_checked(letters: Sequence[Letter], m: Contraction | None = None):
    """Refuse a letter or contraction built by hand: the checks of
    make_letter and make_contraction are what make a syllable invariant."""
    if m is not None and not isinstance(m, CheckedContraction):
        raise LetterError(f"contraction {m.name} was not built by make_contraction")
    for x in letters:
        if not isinstance(x, CheckedLetter):
            raise LetterError(f"letter {x.name} was not built by make_letter")


def contract_syllable(m: Contraction, letters: Sequence[Letter]) -> InvariantForm:
    """Wedge the letter components against the coefficient tensor.

    Each entry's product of components, its last factor scaled by the
    entry's coefficient, is added unreduced into one map per basis word,
    and each word is normalized once.  Only a contraction built by
    make_contraction and letters built by make_letter are accepted: the
    tensor passed the invariance check and every letter the equivariance
    check, so the result is invariant and comes as an InvariantForm.
    """
    _require_checked(letters, m)
    if len(letters) != m.arity:
        raise LetterError(
            f"contraction {m.name} has arity {m.arity}, got {len(letters)} letters"
        )
    frame = letters[0].components[0].frame
    words: dict[int, dict] = {}
    for idx, c in m.entries:
        *head, last = (letters[slot].components[i] for slot, i in enumerate(idx))
        # wedged slot by slot up to the first zero component, so that a
        # product below the depth floor is refused where it always was
        prefix = frame.one
        for j, comp in enumerate(head):
            if not comp:
                break
            prefix = wedge(prefix, comp) if j else comp
        else:
            for mx, cx in prefix.terms.items():
                for my, cy in last.terms.items():
                    if not mx & my:
                        acc = words.setdefault(mx | my, {})
                        multiply_into(acc, cx, cy, merge_sign(mx, my), c)
    return InvariantForm.of(finish_form(frame, words))


def covariant_derivative_DX(setup: HomogeneousSetup, letter: Letter) -> Letter:
    """Componentwise exterior derivative plus the representation twist.

    Only a letter built by make_letter is accepted.  It is equivariant, so
    DX is basic, and since rho(theta) X is purely gauge, DX is the basic
    part of d X.
    """
    _require_checked([letter])
    out = [basic_derivative(setup, c) for c in letter.components]
    return make_letter(setup, f"DX({letter.name})", out)
