"""Homogeneous-space setup: validation, basic frame, exterior derivative.

The input data is a Lie algebra with structure constants in Maurer-Cartan
form (d e^i = sum_{j<k} c^i_jk e^j e^k, equivalently [e_j, e_k] =
-sum_i c^i_jk e_i), a reductive splitting of the index set into a horizontal
part T and a gauge subalgebra, and a skew representation of the gauge part
on the fiber V.

All forms live on one frame per setup: horizontal e^i, covariant vertical
b_i and gauge e^A, in that order.  Basic forms use only the first two kinds.
d is one antiderivation on the whole frame, gauge terms kept: e^i goes to
its structure 2-form, b_i to d(rho(theta) a)_i, and a coefficient f to
sum_i (df/da_i) da_i with da_i = b_i - sum_A (rho_A a)_i e^A.  For a basic
form the gauge part of d is sum_A e^A ^ (its variation along e_A), so
invariance is read off d itself: a basic form is invariant exactly when its
d stays basic, and that d is the covariant derivative on tensorial forms.

validate_setup reads Jacobi (d d e^i = 0) and whether rho is a homomorphism
off the same images: the e^a ^ e^b term of d b_i is
(([rho_a, rho_b] + sum_g c^g_ab rho_g) a)_i, and [e_a, e_b] = -sum_g c^g_ab e_g,
so that term vanishes exactly when rho respects the bracket [e_a, e_b].

A basic x has no gauge letters, so a word of d x has a gauge letter exactly
when the image it came from has one: the basic part of d x is the walker
over hh-projected images with f to sum_i (df/da_i) b_i, and the gauge part,
sum_A e^A ^ L_A x, the walker over the rest with f to the gauge half of df.
An InvariantForm carries a proof of invariance, so its d is the basic part;
a letter's equivariance is read off the gauge part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Sequence

from equiform.forms import Form, Frame, FrameSpec, bits, finish_form, merge_sign
from equiform.linalg import VectorSpan, nullspace_basis, vec_iadd_scaled
from equiform.numberfield import (
    Coefficient,
    FieldElement,
    NumberField,
    canonical,
    coefficient,
)
from equiform.scalars import (
    Point,
    PointError,
    Ring,
    RingSpec,
    Scalar,
    accumulate_product,
    gradient,
    multiply_into,
)

# scales t of the generic point t*e1, tried in order; 1 + t^2 is a rational
# square for every t after the first
GENERIC_SCALES = (1, Fraction(3, 4), Fraction(4, 3), Fraction(5, 12), Fraction(12, 5))


class InvariantForm(Form):
    """A Form known to be invariant.

    Constructing one is a promise: only code holding a proof of invariance
    does so (contractions of checked letters, their wedges, d, the radial
    square, and the expression parser on certified atoms).  Form arithmetic
    builds plain Forms, so a sum or product drops the mark and its d takes
    the full, checked pass.
    """

    __slots__ = ()

    @classmethod
    def of(cls, x: Form) -> "InvariantForm":
        return cls(x.frame, x.terms)


class SetupError(ValueError):
    """Raised when the homogeneous data violates a structural axiom."""

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants c^i_jk (j < k) of d e^i: nonzero canonical
    coefficients over field, the field they were built over.  A rational
    constant carries no field of its own."""

    dimension: int
    constants: tuple[tuple[int, int, int, Coefficient], ...]
    field: NumberField

    def table(self) -> dict[int, dict[tuple[int, int], Coefficient]]:
        out: dict[int, dict[tuple[int, int], Coefficient]] = {}
        for i, j, k, c in self.constants:
            out.setdefault(i, {})[(j, k)] = c
        return out


@dataclass(frozen=True)
class Splitting:
    """1-based algebra indices of the horizontal part T and the gauge part."""

    horizontal: tuple[int, ...]
    gauge: tuple[int, ...]


@dataclass(frozen=True)
class Representation:
    """Fiber matrices rho(E_A) for each gauge index A, column convention:
    entry [i][j] is the v_i coefficient of rho(E_A) v_j, a canonical
    coefficient."""

    matrices: tuple[tuple[int, tuple[tuple[Coefficient, ...], ...]], ...]

    def matrix(self, a: int):
        for idx, m in self.matrices:
            if idx == a:
                return m
        raise KeyError(f"no representation matrix for gauge index {a}")

    @property
    def fiber_dimension(self) -> int:
        return len(self.matrices[0][1])


def make_algebra(
    field: NumberField, dimension: int, triples: Iterable[tuple]
) -> LieAlgebraData:
    """Convenience constructor from (i, j, k, coefficient) with j < k."""
    consts = []
    seen = set()
    for i, j, k, c in triples:
        if not (1 <= i <= dimension and 1 <= j < k <= dimension):
            raise SetupError([f"structure constant index ({i},{j},{k}) out of range"])
        if (i, j, k) in seen:
            raise SetupError([f"duplicate structure constant for ({i},{j},{k})"])
        seen.add((i, j, k))
        try:
            ce = coefficient(field, c)
        except ValueError:
            raise SetupError(["structure constant from a different field"]) from None
        if ce:
            consts.append((i, j, k, ce))
    return LieAlgebraData(dimension=dimension, constants=tuple(consts), field=field)


def make_representation(
    field: NumberField, entries: Mapping[int, Sequence[Sequence]]
) -> Representation:
    mats = []
    for a in sorted(entries):
        rows = tuple(tuple(coefficient(field, c) for c in row) for row in entries[a])
        mats.append((a, rows))
    return Representation(matrices=tuple(mats))


def _is_skew(m) -> bool:
    return not any(m[i][j] + m[j][i] for i in range(len(m)) for j in range(i + 1))


@dataclass(frozen=True)
class InvariantDimensionTables:
    """Stabilizer dimensions and [p][q] invariant-dimension grids."""

    stabilizer_dim_origin: int
    stabilizer_dim_generic: int
    origin: tuple[tuple[int, ...], ...]
    generic: tuple[tuple[int, ...], ...]


class HomogeneousSetup:
    """Validated bundle data with its ring, frame and derived structures.

    Create via validate_setup; immutable once it returns.
    """

    def __init__(
        self,
        algebra: LieAlgebraData,
        splitting: Splitting,
        representation: Representation,
        ring: Ring,
        frame: Frame,
    ):
        self.algebra = algebra
        self.splitting = splitting
        self.representation = representation
        self.ring = ring
        self.frame = frame
        self.field = ring.field
        self.fiber_dim = representation.fiber_dimension
        self.horizontal_dim = len(splitting.horizontal)
        self.warnings: list[str] = []
        self._ctable = algebra.table()
        # gauge index -> full n x n ad matrix, ad(E_a)[i][k] = -c^i_ak
        n = algebra.dimension
        self.ad_matrices = {
            a: tuple(
                tuple(-self.c_signed(i, a, k) for k in range(1, n + 1))
                for i in range(1, n + 1)
            )
            for a in splitting.gauge
        }
        # frame positions
        self._pos_e = {}  # algebra index -> frame position
        for i in splitting.horizontal + splitting.gauge:
            self._pos_e[i] = frame.index[f"e{i}"]
        self._pos_b = [frame.index[f"b{i}"] for i in range(1, self.fiber_dim + 1)]
        self._avars = [ring.var(f"a{i}") for i in range(1, self.fiber_dim + 1)]
        self._vertical = tuple(
            frame.generator(f"b{i}") for i in range(1, self.fiber_dim + 1)
        )
        self._structure_2form: dict[int, Form] = {}
        self._d_images: dict[int, Form] | None = None
        self._coordinates: tuple[Form, ...] = ()  # da_i by fiber index
        self._negated_connection: tuple[Form, ...] = ()  # da_i - b_i
        self._invariant_radicals: dict[str, bool] = {}
        self._dim_tables: InvariantDimensionTables | None = None
        self._generic_vector: list[Coefficient] | None = None
        self._sphere = None  # the unit-sphere pieces of verify, on first use

    # -- coefficients and matrices ---------------------------------------

    def c_signed(self, i: int, j: int, k: int) -> Coefficient:
        """c^i_jk extended antisymmetrically in (j, k)."""
        if j == k:
            return 0
        if j < k:
            return self._ctable.get(i, {}).get((j, k), 0)
        return -self._ctable.get(i, {}).get((k, j), 0)

    def rho(self, a: int):
        return self.representation.matrix(a)

    def rho_apply(self, a: int, vec: Sequence) -> list:
        """rho(E_a) applied to a fiber vector of Scalars or coefficients."""
        m = self.rho(a)
        scalars = isinstance(vec[0], Scalar)
        out = []
        for i in range(self.fiber_dim):
            acc = self.ring.zero if scalars else 0
            for j in range(self.fiber_dim):
                c = m[i][j]
                if c:
                    acc = acc + c * vec[j]
            out.append(acc if scalars else canonical(acc))
        return out

    def ad_on_horizontal(self, a: int):
        """ad(E_a) restricted to T, entries over horizontal index order."""
        hor = self.splitting.horizontal
        full = self.ad_matrices[a]
        return tuple(
            tuple(full[i - 1][k - 1] for k in hor) for i in hor
        )

    # -- structure forms ---------------------------------------------------

    def structure_derivative(self, algebra_index: int) -> Form:
        """d e^i as a 2-form over the frame."""
        if algebra_index not in self._structure_2form:
            terms: dict[int, Scalar] = {}
            for (j, k), c in self._ctable.get(algebra_index, {}).items():
                mask = (1 << self._pos_e[j]) | (1 << self._pos_e[k])
                sign = 1 if self._pos_e[j] < self._pos_e[k] else -1
                s = self.ring.constant(c if sign > 0 else -c)
                prev = terms.get(mask)
                s = s if prev is None else prev + s
                if s.is_zero:
                    terms.pop(mask, None)
                else:
                    terms[mask] = s
            self._structure_2form[algebra_index] = Form(self.frame, terms)
        return self._structure_2form[algebra_index]

    def derivative_images(self) -> tuple[dict[int, Form], tuple[Form, ...]]:
        """d of every frame generator, by frame position, and the connection
        terms (rho(theta) a)_i = sum_A (rho_A a)_i e^A = b_i - da_i.

        d e^i is the full structure 2-form, and d b_i = d(rho(theta) a)_i
        because d da_i = 0.
        """
        if self._d_images is None:
            frame = self.frame
            images = {
                pos: self.structure_derivative(i) for i, pos in self._pos_e.items()
            }
            twists = [
                (1 << self._pos_e[a], self.rho_apply(a, self._avars))
                for a in self.splitting.gauge
            ]
            connection = [
                Form(frame, {bit: v[i] for bit, v in twists if v[i]})
                for i in range(self.fiber_dim)
            ]
            self._d_images = (images, tuple(connection))
            self._coordinates = tuple(
                b - acc for b, acc in zip(self._vertical, connection)
            )
            self._negated_connection = tuple(-acc for acc in connection)
            for pos, acc in zip(self._pos_b, connection):
                images[pos] = _derivation(acc, images, self._coordinates)
        return self._d_images

    def basic_images(self) -> dict[int, Form]:
        """derivative_images() projected to hh: every word with a gauge
        letter dropped, and the images left empty omitted."""
        return self._image_halves[0]

    def gauge_images(self) -> dict[int, Form]:
        """The complement of basic_images(): the words with a gauge letter."""
        return self._image_halves[1]

    @cached_property
    def _image_halves(self) -> tuple[dict[int, Form], ...]:
        halves: tuple[dict, dict] = ({}, {})
        for pos, img in self.derivative_images()[0].items():
            for m, s in img.terms.items():
                halves[bool(m & self.frame.gauge_mask)].setdefault(pos, {})[m] = s
        return tuple({p: Form(self.frame, t) for p, t in h.items()} for h in halves)

    def radical_is_invariant(self, name: str) -> bool:
        """Whether the declared radical `name` is invariant, that is whether
        its square is: one full d pass on first use, cached."""
        if name not in self._invariant_radicals:
            u = self.frame.scalar_form(self.ring.var(name))
            self._invariant_radicals[name] = is_invariant(self, u)
        return self._invariant_radicals[name]

    def generic_point_vector(self) -> list[Coefficient]:
        """t*e1 for the first t in GENERIC_SCALES at which every radical
        has a value, or e1 when there is none, so that evaluation there
        reports the radical without a value.  Under the transitive-sphere
        hypothesis every t > 0 gives a point with the generic stabilizer."""
        if self._generic_vector is None:
            for t in GENERIC_SCALES:
                v = [t] + [0] * (self.fiber_dim - 1)
                pt = self.point(v)
                try:
                    for name in self.ring.radical_names:
                        pt(self.ring.var(name))
                except PointError:
                    continue
                break
            else:
                v[0] = 1
            self._generic_vector = v
        return list(self._generic_vector)

    @cached_property
    def _generic_stabilizer(self) -> list[list[Coefficient]]:
        """A basis of the stabilizer of generic_point_vector(), which the
        transitive-sphere proof and the generic table both read."""
        return stabilizer_of_vector(self, self.generic_point_vector())

    def invariant_dimension_tables(self) -> InvariantDimensionTables:
        """Invariant dimensions at the origin and at generic_point_vector().

        validate_setup refuses a rho that is not skew, so the Hodge star on
        Lambda V commutes with every stabilizer and cell (p,q) equals cell
        (p,k-q); when every ad(e_a)|T is skew too, cell (n-p,q) equals (p,q).
        One cell is ranked per class and copied to the rest."""
        if self._dim_tables is None:
            stab0 = stabilizer_of_vector(self, [0] * self.fiber_dim)
            stabv = self._generic_stabilizer
            n, k = self.horizontal_dim, self.fiber_dim
            t_skew = all(
                _is_skew(self.ad_on_horizontal(a)) for a in self.splitting.gauge
            )
            cls = {
                (p, q): (min(p, n - p) if t_skew else p, min(q, k - q))
                for p in range(n + 1)
                for q in range(k + 1)
            }
            grids = []
            for stab in (stab0, stabv):
                action = StabilizerAction(self, stab)
                dims = {
                    c: invariant_dimension(self, c, action)
                    for c in dict.fromkeys(cls.values())
                }
                grids.append(
                    tuple(
                        tuple(dims[cls[p, q]] for q in range(k + 1))
                        for p in range(n + 1)
                    )
                )
            self._dim_tables = InvariantDimensionTables(len(stab0), len(stabv), *grids)
        return self._dim_tables

    def point(self, fiber_values: Sequence, params: Mapping[str, object] | None = None):
        values = {
            f"a{i + 1}": v for i, v in enumerate(fiber_values)
        }
        if params:
            values.update(params)
        for p in self.ring.params:
            values.setdefault(p, 1)
        return Point(self.ring, values)

    def __repr__(self) -> str:
        return (
            f"HomogeneousSetup(n={self.algebra.dimension}, "
            f"T={self.splitting.horizontal}, gauge={self.splitting.gauge}, "
            f"fiber={self.fiber_dim})"
        )


def validate_setup(
    algebra: LieAlgebraData,
    splitting: Splitting,
    representation: Representation,
    ring_spec: RingSpec | None = None,
) -> HomogeneousSetup:
    """Check every structural axiom and assemble the setup.

    The ring spec, when given, must either leave the fiber empty (it is
    filled with a1..ak) or declare exactly the fiber the representation acts
    on.  Raises SetupError listing all violated axioms.
    """
    issues: list[str] = []
    n = algebra.dimension
    # splitting partitions 1..n
    declared = sorted(splitting.horizontal + splitting.gauge)
    if declared != list(range(1, n + 1)):
        issues.append(
            f"splitting must partition 1..{n}, got T={splitting.horizontal} "
            f"and gauge={splitting.gauge}"
        )
        raise SetupError(issues)
    k = representation.fiber_dimension
    rep_indices = tuple(idx for idx, _ in representation.matrices)
    if sorted(rep_indices) != sorted(splitting.gauge):
        issues.append(
            f"representation matrices must cover the gauge indices "
            f"{splitting.gauge}, got {rep_indices}"
        )
        raise SetupError(issues)
    for a in splitting.gauge:
        m = representation.matrix(a)
        if len(m) != k or any(len(row) != k for row in m):
            raise SetupError([f"representation matrix for e{a} is not {k}x{k}"])

    # coefficient ring
    fiber = tuple(f"a{i}" for i in range(1, k + 1))
    if ring_spec is None:
        # reuse the field the constants were built over
        ring_spec = RingSpec(field_radicands=algebra.field.radicands, fiber=fiber)
    elif not ring_spec.fiber:
        ring_spec = RingSpec(
            field_radicands=ring_spec.field_radicands,
            fiber=fiber,
            params=ring_spec.params,
            radicals=ring_spec.radicals,
            radical_depth=ring_spec.radical_depth,
        )
    elif tuple(ring_spec.fiber) != fiber:
        issues.append(
            f"ring fiber variables must be {fiber} to match the representation"
        )
        raise SetupError(issues)
    ring = Ring(ring_spec)
    field = ring.field

    if algebra.constants and algebra.field != field:
        issues.append("structure constants must live in the declared field")
        raise SetupError(issues)

    # frame: horizontal, vertical, gauge
    gens = [(f"e{i}", "horizontal") for i in splitting.horizontal]
    gens += [(f"b{i}", "vertical") for i in range(1, k + 1)]
    gens += [(f"e{i}", "gauge") for i in splitting.gauge]
    frame = Frame(ring, FrameSpec(generators=tuple(gens)))
    setup = HomogeneousSetup(algebra, splitting, representation, ring, frame)

    # Jacobi: d(d e^i) = 0 with d e^i from the constants
    images, _ = setup.derivative_images()
    for i in range(1, n + 1):
        if not _derivation(images[setup._pos_e[i]], images).is_zero:
            issues.append(f"Jacobi identity fails: d(d e^{i}) != 0")

    # gauge part closed under bracket; reductivity
    for a in splitting.gauge:
        for b in splitting.gauge:
            if a >= b:
                continue
            for t in splitting.horizontal:
                if setup.c_signed(t, a, b):
                    issues.append(
                        f"gauge indices are not a subalgebra: "
                        f"[e{a}, e{b}] has a horizontal component e{t}"
                    )
    for a in splitting.gauge:
        for t in splitting.horizontal:
            for g in splitting.gauge:
                if setup.c_signed(g, a, t):
                    issues.append(
                        f"splitting is not reductive: [e{a}, e{t}] has a "
                        f"gauge component e{g}"
                    )

    # representation checks
    for a in splitting.gauge:
        if not _is_skew(representation.matrix(a)):
            issues.append(f"representation not orthogonal: rho(e{a}) is not skew")
    # rho is a homomorphism on [e_a, e_b] iff no d b_i has an e^a ^ e^b term
    for a in splitting.gauge:
        for b in splitting.gauge:
            if a >= b:
                continue
            mask = (1 << setup._pos_e[a]) | (1 << setup._pos_e[b])
            if any(mask in images[pos].terms for pos in setup._pos_b):
                issues.append(
                    f"representation not a homomorphism on [e{a}, e{b}]"
                )

    # the T-restriction of ad should be skew for an orthonormal horizontal basis
    for a in splitting.gauge:
        sub = setup.ad_on_horizontal(a)
        if not _is_skew(sub):
            setup.warnings.append(
                f"ad(e{a})|T is not skew; the declared horizontal basis is "
                f"not orthonormal for an invariant metric"
            )

    if issues:
        raise SetupError(issues)
    return setup


# -- derivations on the frame ----------------------------------------------


def _derivation(
    x: Form, gen_images: dict[int, Form], da: Sequence[Form] = (), words=None
) -> Form:
    """Apply a derivation of degree 0 or 1 on the frame: gen_images maps
    frame positions to generator images, and a coefficient f goes to
    sum_i (df/da_i) da[i], from one gradient pass, or to zero when da is
    empty.  da is the image of the da_i under d, or its basic or gauge half.

    One walker serves both degrees.  Removing generator g from a word costs
    the sign (-1)^(set bits below g) either way: an odd derivation takes it
    from the graded Leibniz rule and puts its even image in front freely,
    an even one moves its 1-form image in front past those generators.

    Every product lands unreduced in one coefficient map per output word,
    in words when given, and each map is normalized once at the end.
    """
    ring = x.ring
    words = {} if words is None else words
    for mask, c in x.terms.items():
        for dc, image in zip(gradient(c), da) if da else ():
            if not dc:
                continue
            # the coefficients of da_i are polynomials in a: no product
            # with them goes below the depth floor
            for m, s in image.terms.items():
                if not m & mask:
                    acc = words.setdefault(m | mask, {})
                    accumulate_product(ring, acc, dc, s.coeffs, merge_sign(m, mask))
        for g in bits(mask):
            img = gen_images.get(g)
            if img is not None:
                word = mask ^ (1 << g)
                sign = -1 if (mask & ((1 << g) - 1)).bit_count() & 1 else 1
                for m, s in img.terms.items():
                    if not m & word:
                        acc = words.setdefault(m | word, {})
                        multiply_into(acc, s, c, sign * merge_sign(m, word))
    return finish_form(x.frame, words)


def frame_derivative(setup: HomogeneousSetup, x: Form) -> Form:
    """d on the whole frame, gauge terms kept: one derivation pass.

    For basic x the gauge part is sum_A e^A ^ L_A x, L_A the Lie derivative
    along the fundamental field dual to e^A (Cartan: L_A = i_A d on basic
    forms), so x is invariant exactly when d x is basic.
    """
    if x.frame != setup.frame:
        raise SetupError(["form does not belong to this setup's frame"])
    return _derivation(x, setup.derivative_images()[0], setup._coordinates)


def basic_derivative(setup: HomogeneousSetup, x: Form) -> Form:
    """The basic part of d x, for basic x."""
    return _derivation(x, setup.basic_images(), setup._vertical)


def gauge_derivative(setup: HomogeneousSetup, x: Form, words=None) -> Form:
    """The gauge part of d x, for basic x, added to the word maps words.
    Every partial is taken, so each depth refusal of the full pass stands."""
    return _derivation(x, setup.gauge_images(), setup._negated_connection, words)


def exterior_derivative(setup: HomogeneousSetup, x: Form) -> InvariantForm:
    """d on invariant basic forms.

    An InvariantForm x is invariant by proof and has no gauge letters, so
    d x is its basic part: the walker over the hh-projected images with the
    vertical half of the coefficient rule, the gauge part sum_A e^A ^ L_A x
    being zero.  Any other x takes the full pass.  Either way x is refused
    unless it and its derivative are basic, that is unless it is invariant
    and basic, and d x is invariant.
    """
    if isinstance(x, InvariantForm) and x.frame == setup.frame:
        dx = basic_derivative(setup, x)
    else:
        dx = frame_derivative(setup, x)
    if not (is_basic(setup, x) and is_basic(setup, dx)):
        raise SetupError(
            ["input not invariant and basic, so its derivative is not basic"]
        )
    return InvariantForm.of(dx)


def is_basic(setup: HomogeneousSetup, x: Form) -> bool:
    return not any(mask & setup.frame.gauge_mask for mask in x.terms)


def is_invariant(setup: HomogeneousSetup, x: Form) -> bool:
    return is_basic(setup, x) and is_basic(setup, frame_derivative(setup, x))


# -- stabilizers and invariant dimensions ---------------------------------


def stabilizer_of_vector(
    setup: HomogeneousSetup, vec: Sequence[Coefficient]
) -> list[list[Coefficient]]:
    columns = [setup.rho_apply(a, vec) for a in setup.splitting.gauge]
    return nullspace_basis(list(zip(*columns)))


class StabilizerAction:
    """One stabilizer's derivations on the cells Lambda^p T x Lambda^q V.

    A basis vector lambda gives its combinations of ad|T and rho as a pair,
    a sparse vector keyed by (side, i, j), side 0 for T and 1 for V.  Only
    Lie generators among the pairs act (see _lie_generators)."""

    def __init__(self, setup: HomogeneousSetup, stab_basis: Sequence[Sequence]):
        self.dims = (setup.horizontal_dim, setup.fiber_dim)
        gens = [
            {
                (s, i, j): x
                for s, m in enumerate((setup.ad_on_horizontal(a), setup.rho(a)))
                for i, row in enumerate(m)
                for j, x in enumerate(row)
                if x
            }
            for a in setup.splitting.gauge
        ]
        pairs: list[dict] = [{} for _ in stab_basis]
        for lam, pair in zip(stab_basis, pairs):
            for c, gen in zip(lam, gens):
                vec_iadd_scaled(pair, gen, c)
        self.generators = _lie_generators(pairs)
        self._wedge: dict = {}

    def wedge(self, g: int, side: int, degree: int) -> list[dict[int, Coefficient]]:
        """Generator g's derivation on Lambda^degree T (side 0) or V (side
        1), built on first use: one row per target word, keyed by source."""
        if (key := (g, side, degree)) not in self._wedge:
            basis = [m for m in range(1 << self.dims[side]) if m.bit_count() == degree]
            index = {mask: n for n, mask in enumerate(basis)}
            rows: list[dict] = [{} for _ in basis]
            for (s, i, j), x in self.generators[g].items():
                for src, mask in enumerate(basis if s == side else ()):
                    rest = mask ^ (1 << j)  # e_j goes to x e_i
                    if mask >> j & 1 and not rest >> i & 1:
                        flips = (rest & ((1 << i) - 1)) ^ (rest & ((1 << j) - 1))
                        row = rows[index[rest | (1 << i)]]
                        c = -x if flips.bit_count() & 1 else x
                        row[src] = row.get(src, 0) + c
            self._wedge[key] = [_nonzero(row) for row in rows]
        return self._wedge[key]

    def rows(self, p: int, q: int):
        """Nonzero equation rows on cell (p, q), per generator the Kronecker
        sum of its derivations on Lambda^p T and on Lambda^q V, ordered by
        first column, which keeps the elimination sparse."""
        for g in range(len(self.generators)):
            on_t, on_v = self.wedge(g, 0, p), self.wedge(g, 1, q)
            block = []
            for tt, t_row in enumerate(on_t):
                for tv, v_row in enumerate(on_v):
                    row = {st * len(on_v) + tv: c for st, c in t_row.items()}
                    for sv, c in v_row.items():
                        k = tt * len(on_v) + sv
                        c = canonical(row.pop(k) + c) if k in row else c
                        if c:
                            row[k] = c
                    if row:
                        block.append(row)
            yield from sorted(block, key=min)


def _nonzero(vec: dict) -> dict:
    return {k: c for k, c in ((k, canonical(c)) for k, c in vec.items()) if c}


def _lie_generators(pairs: list[dict]) -> list[dict]:
    """Pairs whose commutators generate an algebra holding every pair.

    A pair sum_d sqrt(d) P_d, one rational part P_d per radical mask d, is
    replaced by its parts when each lies in the span of the pairs, which
    leaves the span alone; on su3_tcp2 every pair is then rational.  A pair
    in the algebra the kept ones generate is dropped: the derivation induced
    on a cell is a Lie homomorphism, so what kills the kept pairs kills it."""
    parts: list[dict] = [{} for _ in pairs]
    for pair, by_mask in zip(pairs, parts):
        for key, x in pair.items():
            for mask, c in (x.terms if type(x) is FieldElement else {0: x}).items():
                by_mask.setdefault(mask, {})[key] = c
    if any(len(by_mask) > 1 for by_mask in parts):
        span = VectorSpan()
        for pair in pairs:
            span.add(pair)
        parts = [
            ps if all(map(span.contains, ps.values())) else {0: pair}
            for pair, ps in zip(pairs, parts)
        ]
    kept, closure, algebra = [], [], VectorSpan()
    for x in (x for by_mask in parts for x in by_mask.values()):
        if not algebra.contains(x):
            kept.append(x)
            new = [x]
            while new:
                y = new.pop()
                if algebra.add(y):
                    new += [_bracket(y, z) for z in closure]
                    closure.append(y)
    return kept


def _bracket(x: dict, y: dict) -> dict:
    """The commutator xy - yx of two pairs, side by side."""
    out: dict = {}
    for (s, i, k), a in x.items():
        for (r, l, j), b in y.items():
            if s == r and k == l:
                out[s, i, j] = out.get((s, i, j), 0) + a * b
            if s == r and j == i:
                out[s, l, k] = out.get((s, l, k), 0) - a * b
    return _nonzero(out)


def invariant_dimension(
    setup: HomogeneousSetup,
    bidegree: tuple[int, int],
    stab: Sequence[Sequence[Coefficient]] | StabilizerAction,
) -> int:
    """Dimension of the stabilizer-invariant subspace of Lambda^p T x Lambda^q V.

    stab is a basis of coefficient vectors over the gauge basis, or its
    StabilizerAction.  Equations stop once they have full rank: the
    dimension is then 0."""
    p, q = bidegree
    if not (0 <= p <= setup.horizontal_dim and 0 <= q <= setup.fiber_dim):
        return 0
    if not isinstance(stab, StabilizerAction):
        stab = StabilizerAction(setup, stab)
    full = comb(setup.horizontal_dim, p) * comb(setup.fiber_dim, q)
    span = VectorSpan()
    for row in stab.rows(p, q):
        if span.rank == full:
            return 0
        span.add(row)
    return full - span.rank
