"""The differential table as it was built before d of a word was composed on
the ray: each row's word is translated into a full-frame Form (the wedge of
its syllable forms), exterior_derivative takes d of that product over the
fiber polynomials, and the public express path restricts the result to the
ray a = t*e1 and solves it there.
"""

from equiform.dictionary import TableRow, express_in_generators
from equiform.forms import map_form
from equiform.homogeneous import exterior_derivative


def jobs(dictionary, max_degree):
    """The (kind, entry) of every row, in table order."""
    out = []
    if dictionary.radial is not None:
        out.append(("radial", dictionary.radial))
    for e in dictionary.entries:
        if 1 <= e.word.degree <= max_degree:
            out.append(("generator", e))
    return out


def row_target(setup, entry):
    """d of the entry's translation, on the full frame."""
    return exterior_derivative(setup, entry.alphabet.translate(entry.word))


def row_image(setup, entry):
    """The ray image of d of the entry's translation."""
    return map_form(row_target(setup, entry), setup.ring.ray_restriction)


def differential_table(
    setup, dictionary, max_degree, degree_bounds=(4, -2), allow_triples=False
):
    rows = []
    for kind, e in jobs(dictionary, max_degree):
        comb = express_in_generators(
            setup, dictionary, row_target(setup, e), degree_bounds, allow_triples
        )
        rows.append(TableRow(kind=kind, word=e.word, differential=comb))
    return rows
