"""contract_syllable as it was while it summed Forms, kept as an oracle.

Each entry's product of components was wedged slot by slot, up to the
first zero component, scaled by the entry's coefficient as a Form, and
added to the running sum, so every word was normalized once per entry.
The package now adds every product, unreduced, into one map per word and
normalizes each word once.  The body below is that kernel, unchanged.
"""

from typing import Sequence

from equiform.forms import Form, wedge
from equiform.homogeneous import InvariantForm
from equiform.letters import (
    CheckedContraction,
    CheckedLetter,
    Contraction,
    Letter,
    LetterError,
)


def contract_syllable(m: Contraction, letters: Sequence[Letter]) -> Form:
    if len(letters) != m.arity:
        raise LetterError(
            f"contraction {m.name} has arity {m.arity}, got {len(letters)} letters"
        )
    frame = letters[0].components[0].frame
    out = frame.zero
    for idx, c in m.entries:
        term = None
        for slot, i in enumerate(idx):
            comp = letters[slot].components[i]
            if comp.is_zero:
                term = None
                break
            term = comp if term is None else wedge(term, comp)
        if term is not None:
            out = out + c * term
    if isinstance(m, CheckedContraction) and all(
        isinstance(x, CheckedLetter) for x in letters
    ):
        return InvariantForm.of(out)
    return out
