"""Expression language for entering invariant-form ansatze as strings.

Configs and the command line describe differential forms with strings like

    -1/2*aa^(1/2)*dot(b,beta) - 1/2*aa^(-1/2)*dot(a,b)*dot(a,beta)

and this module turns such a string into a Form over a setup's frame.

Accepted grammar::

    expr     := sign? term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" exponent)?
    atom     := number | name | call | "(" expr ")"
    call     := name "(" expr ("," expr)* ")"
    exponent := sign? number | "(" sign? number ")"

"*" is the wedge product, so order matters when both factors have odd
degree.  Numbers are exact; "1/2" and "0.5" both mean one half.  A bare
name resolves to a scalar (fiber coordinate, parameter, radical, or the
squared-radius shorthand "aa") or to a frame generator; letter names are
only legal as arguments of a contraction call such as dot(a,b).  The call
d(...) applies the exterior derivative to any subexpression; it needs a
setup, so a context without one (the config literals) rejects it.  "^"
raises to an integer power of size at most MAX_EXPONENT; a half-integer
power is accepted exactly when some declared radical squares to the base,
so aa^(1/2) names that radical.  A product, at each "*" and each step of
"^", is refused before it is formed when its operands' coefficient-term
counts multiply to more than MAX_PRODUCT_TERMS.  Parentheses and d(...)
nest at most MAX_NESTING deep.  The unicode minus sign U+2212 is treated as
"-".

The result carries a certificate of invariance, as an InvariantForm, when
every atom it is built from has one: numbers, parameters, sqrtN, aa (rho is
skew), contraction calls, d(...) results, and a radical whose square is
invariant (one full check per radical and setup, on first use).  Fiber
coordinates and frame generators have none, and neither does anything
built with them; d of such a form takes the full, checked pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from equiform.forms import Form, Frame
from equiform.homogeneous import (
    HomogeneousSetup,
    InvariantForm,
    exterior_derivative,
)
from equiform.letters import Contraction, Letter, contract_syllable
from equiform.scalars import Ring, RingError, Scalar

MAX_EXPONENT = 32
MAX_PRODUCT_TERMS = 2**14
MAX_NESTING = 64


class ExpressionError(ValueError):
    """Raised for lexical, syntactic and semantic rejections alike."""


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_SQRT_NAME = re.compile(r"sqrt[0-9]+\Z")
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:/\d+|\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^(),]|−)"
)


def tokenize(text: str) -> list[_Token]:
    """Token stream for the grammar above."""
    out: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[i]!r} at position {i + 1}"
            )
        i = m.end()
        if m.lastgroup == "ws":
            continue
        word = m.group()
        if m.lastgroup == "op":
            word = "-" if word == "−" else word
            out.append(_Token(word, word, m.start()))
        else:
            out.append(_Token(m.lastgroup, word, m.start()))
    out.append(_Token("end", "end of input", len(text)))
    return out


@dataclass(frozen=True)
class ExpressionContext:
    """Name bindings an expression is evaluated against.

    Expressions evaluate to forms over frame.  scalars maps names to ring
    elements, letters and contractions carry the alphabet, and frame_atoms
    lists generator names usable as one-forms.  setup is needed only by
    d(...), which is an error without one.  memo keeps values that depend
    on these bindings alone: contraction calls, by contraction and letter
    names, and field constants, by their text.  Forms are immutable, so a
    call returns the same InvariantForm each time.
    """

    frame: Frame
    letters: Mapping[str, Letter]
    contractions: Mapping[str, Contraction]
    scalars: Mapping[str, Scalar]
    frame_atoms: frozenset = field(default_factory=frozenset)
    setup: HomogeneousSetup | None = None
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def scalar_bindings(ring: Ring) -> dict[str, Scalar]:
    """The ring's variables, the radial square aa and the sqrtN constants."""
    scalars = {n: ring.var(n) for n in ring.fiber + ring.params + ring.radical_names}
    scalars["aa"] = ring.radial_square
    for d in ring.field.radicands:
        scalars[f"sqrt{d}"] = ring.sqrt_constant(d)
    return scalars


def build_context(
    setup: HomogeneousSetup,
    letters: Sequence[Letter] = (),
    contractions: Sequence[Contraction] = (),
) -> ExpressionContext:
    """Assemble the standard bindings and reject ambiguous names."""
    letter_map: dict[str, Letter] = {}
    for l in letters:
        if l.name in letter_map:
            raise ExpressionError(f"duplicate letter name {l.name!r}")
        letter_map[l.name] = l
    contraction_map: dict[str, Contraction] = {}
    for m in contractions:
        if m.name in contraction_map:
            raise ExpressionError(f"duplicate contraction name {m.name!r}")
        contraction_map[m.name] = m

    scalars = scalar_bindings(setup.ring)
    frame_atoms = frozenset(setup.frame.names)

    taken: dict[str, str] = {"d": "the exterior derivative"}
    for pool, what in (
        (scalars, "a scalar"),
        (frame_atoms, "a frame generator"),
        (letter_map, "a letter"),
        (contraction_map, "a contraction"),
    ):
        for name in pool:
            if name in taken:
                raise ExpressionError(
                    f"name {name!r} is both {taken[name]} and {what}"
                )
            taken[name] = what
    return ExpressionContext(
        frame=setup.frame,
        letters=letter_map,
        contractions=contraction_map,
        scalars=scalars,
        frame_atoms=frame_atoms,
        setup=setup,
    )


def _fraction(tok: _Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except ZeroDivisionError:
        raise ExpressionError(
            f"zero denominator in {tok.text!r} at position {tok.pos + 1}"
        ) from None
    except ValueError:  # more digits than Python converts
        raise ExpressionError(
            f"number of {len(tok.text)} characters is too long at position "
            f"{tok.pos + 1}"
        ) from None


def _as_scalar(x: Form) -> Scalar | None:
    if x.is_zero:
        return x.ring.zero
    if set(x.terms) == {0}:
        return x.terms[0]
    return None


def _mark(x: Form, *operands: Form) -> Form:
    """x, certified invariant when every operand it was built from is."""
    if all(isinstance(y, InvariantForm) for y in operands):
        return InvariantForm.of(x)
    return x


def _term_count(x: Form) -> int:
    return sum(len(c.coeffs) for c in x.terms.values())


def _product(left: Form, right: Form, pos: int) -> Form:
    """left * right, refused before it is formed when the operands'
    coefficient-term counts multiply to more than MAX_PRODUCT_TERMS, and
    refused when a radical exponent falls below the ring's depth bound."""
    nl, nr = _term_count(left), _term_count(right)
    if nl * nr > MAX_PRODUCT_TERMS:
        raise ExpressionError(
            f"product of {nl} and {nr} coefficient terms exceeds the bound "
            f"{MAX_PRODUCT_TERMS} at position {pos + 1}"
        )
    try:
        return left * right
    except RingError as e:
        raise ExpressionError(f"cannot multiply at position {pos + 1}: {e}") from None


def _power(ctx: ExpressionContext, base: Form, num: Fraction, pos: int) -> Form:
    frame = ctx.frame
    if abs(num) > MAX_EXPONENT:
        raise ExpressionError(
            f"exponent {num} exceeds the bound {MAX_EXPONENT} in size at "
            f"position {pos + 1}"
        )
    if num.denominator == 1:
        n = int(num)
        if n >= 0:
            out = frame.one
            for _ in range(n):
                out = _product(out, base, pos)
            return out
        s = _as_scalar(base)
        if s is None:
            raise ExpressionError(
                f"negative exponent {n} on a nonscalar form at position {pos + 1}"
            )
        try:
            return frame.scalar_form(s**n)
        except (RingError, ZeroDivisionError) as e:
            raise ExpressionError(
                f"cannot take the power {n} of {s} at position {pos + 1}: {e}"
            ) from None
    if num.denominator == 2:
        s = _as_scalar(base)
        if s is not None:
            names = frame.ring.radicals_squaring_to(s)
            if names:
                try:
                    return frame.scalar_form(frame.ring.var(names[0]) ** int(num * 2))
                except RingError as e:
                    raise ExpressionError(
                        f"cannot take the power {num} of {s} at position "
                        f"{pos + 1}: {e}"
                    ) from None
    raise ExpressionError(
        f"fractional exponent {num} without a declared radical for the base "
        f"at position {pos + 1}"
    )


class _Parser:
    def __init__(self, text: str, context: ExpressionContext):
        self.tokens = tokenize(text)
        self.k = 0
        self.ctx = context
        self.depth = 0  # exprs entered: brackets open, plus one

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        if tok.kind != "end":
            self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {tok.text!r} at position {tok.pos + 1}"
            )
        return self.take()

    # grammar productions, one method each

    def expr(self) -> Form:
        if self.depth > MAX_NESTING:
            opened = self.tokens[self.k - 1]
            raise ExpressionError(
                f"nesting deeper than {MAX_NESTING} at position {opened.pos + 1}"
            )
        self.depth += 1
        tok = self.peek()
        negate = False
        if tok.kind in ("+", "-"):
            self.take()
            negate = tok.kind == "-"
        left = self.term()
        if negate:
            left = _mark(-left, left)
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right = self.term()
            if not left.is_zero and not right.is_zero:
                dl, dr = left.degrees(), right.degrees()
                if dl != dr:
                    raise ExpressionError(
                        f"degree mismatch under {op.kind!r}: degree "
                        f"{sorted(dl)} meets degree {sorted(dr)} at position "
                        f"{op.pos + 1}"
                    )
            out = left - right if op.kind == "-" else left + right
            left = _mark(out, left, right)
        self.depth -= 1
        return left

    def term(self) -> Form:
        left = self.factor()
        while self.peek().kind == "*":
            op = self.take()
            right = self.factor()
            left = _mark(_product(left, right, op.pos), left, right)
        return left

    def factor(self) -> Form:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            return _mark(_power(self.ctx, base, self.exponent(), op.pos), base)
        return base

    def exponent(self) -> Fraction:
        if self.peek().kind == "(":
            self.take()
            val = self.signed_number()
            self.expect(")")
            return val
        return self.signed_number()

    def signed_number(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.take()
            sign = -1 if tok.kind == "-" else 1
            tok = self.peek()
        if tok.kind != "number":
            raise ExpressionError(
                f"expected a numeric exponent, found {tok.text!r} at position "
                f"{tok.pos + 1}"
            )
        self.take()
        return sign * _fraction(tok)

    def atom(self) -> Form:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return InvariantForm.of(self.ctx.frame.scalar_form(_fraction(tok)))
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.take()
            if self.peek().kind == "(":
                return self.call(tok)
            return self.name_atom(tok)
        raise ExpressionError(
            f"expected a value, found {tok.text!r} at position {tok.pos + 1}"
        )

    def call(self, tok: _Token) -> Form:
        name = tok.text
        self.expect("(")
        if name == "d":
            if self.ctx.setup is None:
                raise ExpressionError(
                    f"d(...) is not available here, at position {tok.pos + 1}"
                )
            arg = self.expr()
            if self.peek().kind == ",":
                raise ExpressionError(
                    f"d(...) takes a single argument at position {tok.pos + 1}"
                )
            self.expect(")")
            return exterior_derivative(self.ctx.setup, arg)
        m = self.ctx.contractions.get(name)
        if m is None:
            if name in self.ctx.letters:
                raise ExpressionError(
                    f"letter '{name}' is not callable at position {tok.pos + 1}"
                )
            raise ExpressionError(
                f"unknown name '{name}' at position {tok.pos + 1}"
            )
        args = [self.letter_arg(name, 1)]
        while self.peek().kind == ",":
            self.take()
            args.append(self.letter_arg(name, len(args) + 1))
        self.expect(")")
        if len(args) != m.arity:
            raise ExpressionError(
                f"contraction '{name}' takes {m.arity} letters, got "
                f"{len(args)} at position {tok.pos + 1}"
            )
        key = (name, *(letter.name for letter in args))
        memo = self.ctx.memo
        if key not in memo:
            memo[key] = contract_syllable(m, args)
        return memo[key]

    def letter_arg(self, cname: str, idx: int) -> Letter:
        tok = self.peek()
        if tok.kind == "name":
            letter = self.ctx.letters.get(tok.text)
            if letter is not None and self.peek(1).kind not in ("(", "^", "*"):
                self.take()
                return letter
            if letter is None and self.peek(1).kind in (",", ")"):
                raise ExpressionError(
                    f"unknown letter '{tok.text}' in {cname}(...) at position "
                    f"{tok.pos + 1}"
                )
        raise ExpressionError(
            f"argument {idx} of {cname}(...) must be a letter name at "
            f"position {tok.pos + 1}"
        )

    def name_atom(self, tok: _Token) -> Form:
        name = tok.text
        s = self.ctx.scalars.get(name)
        if s is not None:
            form = self.ctx.frame.scalar_form(s)
            return InvariantForm.of(form) if self.invariant_scalar(s) else form
        if name in self.ctx.frame_atoms:
            return self.ctx.frame.generator(name)
        if name in self.ctx.letters:
            raise ExpressionError(
                f"letter '{name}' can only appear inside a contraction, at "
                f"position {tok.pos + 1}"
            )
        if name in self.ctx.contractions:
            raise ExpressionError(
                f"contraction '{name}' must be applied to letters, at "
                f"position {tok.pos + 1}"
            )
        if _SQRT_NAME.match(name):
            raise ExpressionError(
                f"{name} is not declared in ring.sqrt_constants, at position "
                f"{tok.pos + 1}"
            )
        raise ExpressionError(f"unknown name '{name}' at position {tok.pos + 1}")

    def invariant_scalar(self, s: Scalar) -> bool:
        """Whether s is a certified atom: free of fiber coordinates and
        radicals (numbers, sqrtN, parameters), the radial square aa, or a
        radical that the setup finds invariant."""
        ring = s.ring
        if s == ring.radial_square or not any(
            any(m[: ring.nf]) or any(m[ring.nf + ring.np :]) for m in s.coeffs
        ):
            return True
        setup = self.ctx.setup
        return setup is not None and any(
            s == ring.var(name) and setup.radical_is_invariant(name)
            for name in ring.radical_names
        )


def parse_form_expression(text: str, context: ExpressionContext) -> Form:
    """Parse and evaluate one expression; raises ExpressionError on any flaw."""
    parser = _Parser(text, context)
    out = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionError(
            f"unexpected trailing input {tok.text!r} at position {tok.pos + 1}"
        )
    return out
