"""The raw-frame exterior derivative, kept as an independent oracle.

The package computes d on basic forms as one antiderivation over the basic
frame.  This module computes it the long way round, over an extended frame
that appends the plain fiber differentials da_1..da_k to the setup's
generators: every b_i is rewritten as da_i + sum_A (rho_A a)_i e^A, the form
is differentiated there (structure constants on e, nothing on da,
coefficient derivatives along da), and the da_i are substituted back through
b_i minus the twist.  A result that keeps gauge terms signals a non-invariant
input.  Forms move between the setup's frame and the extended frame by
generator name.
"""

from equiform.forms import Form, Frame, FrameSpec, bits, wedge
from equiform.homogeneous import HomogeneousSetup, SetupError
from equiform.letters import Letter, LetterError


class RawFrame:
    """The setup's frame extended by da_1..da_k, over the same ring."""

    def __init__(self, setup: HomogeneousSetup):
        self.setup = setup
        k = setup.fiber_dim
        gens = setup.frame.spec.generators + tuple(
            (f"da{i}", "vertical") for i in range(1, k + 1)
        )
        self.frame = Frame(setup.ring, FrameSpec(generators=gens))
        self.ring = setup.ring
        self.avars = [self.ring.var(f"a{i}") for i in range(1, k + 1)]
        self.gauge_mask = self.frame.gauge_mask
        self.da = [self.frame.generator(f"da{i}") for i in range(1, k + 1)]

    def gen(self, name: str) -> Form:
        return self.frame.generator(name)

    def twist(self, a: int) -> list:
        """(rho_a a)_i for each fiber index i."""
        m = self.setup.rho(a)
        k = self.setup.fiber_dim
        out = []
        for i in range(k):
            acc = self.ring.zero
            for j in range(k):
                if m[i][j]:
                    acc = acc + m[i][j] * self.avars[j]
            out.append(acc)
        return out

    # -- moving forms across frames ------------------------------------------

    def _move(self, x: Form, target: Frame) -> Form:
        out = {}
        for mask, c in x.terms.items():
            m = 0
            for i in bits(mask):
                m |= 1 << target.index[x.frame.names[i]]
            out[m] = c
        return Form(target, out)

    def lift(self, x: Form) -> Form:
        """A form over the setup's frame, viewed over the extended frame."""
        return self._move(x, self.frame)

    def lower(self, x: Form) -> Form:
        """A form free of da, viewed over the setup's frame."""
        return self._move(x, self.setup.frame)

    # -- the vertical frame and the fundamental fields -------------------------

    def b_forms(self) -> list[Form]:
        """b_i = da_i + sum_A (rho_A a)_i e^A over the extended frame."""
        out = []
        for i in range(self.setup.fiber_dim):
            f = self.da[i]
            for a in self.setup.splitting.gauge:
                coeff = self.twist(a)[i]
                if not coeff.is_zero:
                    f = f + coeff * self.gen(f"e{a}")
            out.append(f)
        return out

    def fundamental_contraction(self, a: int, x: Form) -> Form:
        """Interior product with the fundamental vertical field of gauge
        index a: e^a gives 1, other e give 0, da_i gives -(rho_a a)_i."""
        if a not in self.setup.splitting.gauge:
            raise SetupError([f"{a} is not a gauge index"])
        values = {self.frame.index[f"e{a}"]: self.ring.one}
        for i, t in enumerate(self.twist(a)):
            values[self.frame.index[f"da{i + 1}"]] = -t
        out = self.frame.zero
        for mask, c in x.terms.items():
            for posn, g in enumerate(bits(mask)):
                val = values.get(g)
                if val is None or val.is_zero:
                    continue
                coeff = c * val
                if posn % 2:
                    coeff = -coeff
                out = out + Form(self.frame, {mask ^ (1 << g): coeff})
        return out

    # -- d over the extended frame ---------------------------------------------

    def _substitute(self, x: Form, name: str, replacement: Form) -> Form:
        bit = 1 << self.frame.index[name]
        out = self.frame.zero
        for mask, c in x.terms.items():
            if not mask & bit:
                out = out + Form(self.frame, {mask: c})
                continue
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            rest = Form(self.frame, {mask ^ bit: c if sign > 0 else -c})
            out = out + wedge(replacement, rest)
        return out

    def vertical_to_raw(self, x: Form) -> Form:
        for i, b in enumerate(self.b_forms()):
            x = self._substitute(x, f"b{i + 1}", b)
        return x

    def raw_to_vertical(self, x: Form) -> Form:
        for i in range(self.setup.fiber_dim):
            repl = self.gen(f"b{i + 1}")
            for a in self.setup.splitting.gauge:
                coeff = self.twist(a)[i]
                if not coeff.is_zero:
                    repl = repl - coeff * self.gen(f"e{a}")
            x = self._substitute(x, f"da{i + 1}", repl)
        return x

    def structure_derivative(self, i: int) -> Form:
        out = self.frame.zero
        for (j, k), c in self.setup.algebra.table().get(i, {}).items():
            out = out + self.ring.constant(c) * wedge(
                self.gen(f"e{j}"), self.gen(f"e{k}")
            )
        return out

    def raw_derivative(self, x: Form) -> Form:
        """d on forms in e and da: d e^i from the constants, d da_i = 0,
        and df = sum_i (df/da_i) da_i on coefficients."""
        images = {}
        for i in range(1, self.setup.algebra.dimension + 1):
            images[self.frame.index[f"e{i}"]] = self.structure_derivative(i)
        b_mask = 0
        for i in range(1, self.setup.fiber_dim + 1):
            b_mask |= 1 << self.frame.index[f"b{i}"]
        out = self.frame.zero
        for mask, c in x.terms.items():
            if mask & b_mask:
                raise SetupError(["raw derivative input still contains b"])
            word = Form(self.frame, {mask: self.ring.one})
            for i in range(self.setup.fiber_dim):
                dci = c.differentiate(f"a{i + 1}")
                if not dci.is_zero:
                    out = out + dci * wedge(self.da[i], word)
            for posn, g in enumerate(bits(mask)):
                img = images.get(g)
                if img is None:
                    continue
                contrib = wedge(img, Form(self.frame, {mask ^ (1 << g): c}))
                out = out - contrib if posn % 2 else out + contrib
        return out

    def exterior_derivative(self, x: Form) -> Form:
        """d of a basic form of the setup, computed over the extended frame;
        refuses gauge input and results that keep gauge terms."""
        if any(mask & self.setup.frame.gauge_mask for mask in x.terms):
            raise SetupError(["input not basic: uses gauge generators"])
        raw = self.vertical_to_raw(self.lift(x))
        result = self.raw_to_vertical(self.raw_derivative(raw))
        if any(mask & self.gauge_mask for mask in result.terms):
            raise SetupError(["result not basic"])
        return self.lower(result)

    def covariant_derivative_DX(self, letter: Letter) -> list[Form]:
        """Components of dX + rho(connection) X, computed over the extended
        frame and pushed back to the basic frame."""
        k = self.setup.fiber_dim
        raws = [self.vertical_to_raw(self.lift(c)) for c in letter.components]
        out = []
        for i in range(k):
            total = self.raw_derivative(raws[i])
            for a in self.setup.splitting.gauge:
                rho_a = self.setup.rho(a)
                for j in range(k):
                    if rho_a[i][j]:
                        total = total + rho_a[i][j] * wedge(
                            self.gen(f"e{a}"), raws[j]
                        )
            basic = self.raw_to_vertical(total)
            if any(mask & self.gauge_mask for mask in basic.terms):
                raise LetterError(
                    f"covariant derivative of {letter.name} is not basic; "
                    f"component {i + 1} kept gauge terms"
                )
            out.append(self.lower(basic))
        return out
