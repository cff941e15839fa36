"""Graded blocks of express_in_generators, against both older kernels.

On both bundled configs every entry has one dilation weight and the ray
ring has the one fiber coordinate a1, so each cell splits by weight and
each block is solved at t = 1: a1 and every radical whose ray square is
a1^2 are dropped, the parameters and the other radicals' slots kept.  On
su3_tcp2 that merges s with a1; on su2_ts2, whose radical squares to k+aa,
it only relabels the columns s^e * product.  Two su2_ts2 rings test the
other cases: u^2 = k*aa, whose slots a block keeps, and s^2 = aa beside
it, which merges.  Each span is built once per (cell, weight, Laurent
window, triples) and kept on the Dictionary; the weightless block of a
graded system, such as u*det(b,b) on su2_ts2, gets no column and fails
without forming a product.  The results must equal,
term for term, the ray solve that kept a1 and every radical apart
(ray_express_oracle.py) and the full-fiber solve over every column
(unfiltered_express_oracle.py).
"""

import json
from dataclasses import replace

import pytest

import equiform.dictionary as dictionary_module
import equiform.linalg as linalg
from equiform.cli import resolve_config
from equiform.config import parse_config, realize_config
from equiform.dictionary import differential_table, express_in_generators
from equiform.expressions import parse_form_expression
from equiform.homogeneous import exterior_derivative

import ray_express_oracle
import unfiltered_express_oracle

ORACLES = (ray_express_oracle, unfiltered_express_oracle)


def _facts(combination):
    return combination.terms, combination.residual, combination.failed_cells


def _assert_matches_oracles(setup, dictionary, target, **kwargs):
    got = express_in_generators(setup, dictionary, target, **kwargs)
    for oracle in ORACLES:
        want = oracle.express_in_generators(setup, dictionary, target, **kwargs)
        assert _facts(got) == _facts(want), oracle.__name__
    return got


def _row_targets(setup, dictionary, max_degree):
    sources = [dictionary.radial.translation]
    sources.extend(
        e.translation for e in dictionary.entries if 1 <= e.word.degree <= max_degree
    )
    return [exterior_derivative(setup, x) for x in sources]


def _count_span_columns(monkeypatch):
    calls = [0]
    add = linalg.VectorSpan.add

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(linalg.VectorSpan, "add", counted)
    return calls


def test_su3_degree_three_rows_match_both_oracles(su3_setup, su3_dictionary, su3_table):
    targets = _row_targets(su3_setup, su3_dictionary, 3)
    assert len(targets) == len(su3_table) == 35
    fresh = replace(su3_dictionary)
    for row, target in zip(su3_table, targets):
        got = _assert_matches_oracles(su3_setup, fresh, target)
        assert _facts(got) == _facts(row.differential)
    assert fresh._spans and all(key[1] is not None for key in fresh._spans)


def test_su2_rows_match_both_oracles(su2_setup, su2_dictionary):
    fresh = replace(su2_dictionary)
    for target in _row_targets(su2_setup, fresh, 2):
        _assert_matches_oracles(su2_setup, fresh, target)
    # u^2 = k+aa is not a1^2: blocks drop a1 alone, and each tag's t = 1
    # column is built once for every power
    assert fresh._columns
    assert fresh._spans and all(key[1] is not None for key in fresh._spans)


# su2_ts2 with other radicals, each with the slots _ray_key keeps from a
# ray monomial (a1, k, u[, s], 1/u^2[, 1/s^2]) and targets that are expressed
# or left residual: u = sqrt(k)*t on the ray, which no power s^e supplies
RADICAL_VARIANTS = {
    "u=k*aa": (
        [{"name": "u", "square": "k*aa"}],
        (1, 2, 3),
        [("det(a,b)+aa*det(a,b)", False), ("u*det(a,b)", True)],
    ),
    "u=k*aa,s=aa": (
        [{"name": "u", "square": "k*aa"}, {"name": "s", "square": "aa"}],
        (1, 2, 4),
        [
            ("s*det(a,b)+aa*det(a,b)", False),
            ("s^(-1)*dot(a,b)-2*dot(a,b)", False),
            ("u*det(a,b)", True),
            ("u*det(a,b)+s*det(a,b)", True),
        ],
    ),
}


@pytest.fixture(scope="module", params=list(RADICAL_VARIANTS))
def su2_radical_variant(request):
    doc = json.loads(resolve_config("su2_ts2")[1])
    doc["ring"]["radicals"] = RADICAL_VARIANTS[request.param][0]
    return request.param, realize_config(parse_config(json.dumps(doc)))


def test_su2_radical_variant_rows_match_both_oracles(su2_radical_variant):
    name, rc = su2_radical_variant
    fresh = replace(rc.dictionary())
    ray_ring = rc.setup.ring.ray_restriction.target
    assert fresh._ray_key(tuple(range(ray_ring.width))) == RADICAL_VARIANTS[name][1]
    for target in _row_targets(rc.setup, fresh, 3):
        _assert_matches_oracles(rc.setup, fresh, target)
        _assert_matches_oracles(rc.setup, fresh, target, degree_bounds=(12, 0))
    assert fresh._columns
    assert fresh._spans and all(key[1] is not None for key in fresh._spans)
    for text, residual in RADICAL_VARIANTS[name][2]:
        target = parse_form_expression(text, rc.context)
        got = _assert_matches_oracles(rc.setup, fresh, target)
        assert got.residual == residual, text


@pytest.mark.parametrize(
    "text, residual",
    [
        # two weights in one cell: (1 + s^2) * sigma(a,b)
        ("sigma(a,b)+aa*sigma(a,b)", False),
        # three weights, one with a negative power
        ("aa^(-1/2)*sigma(a,b)-2*aa*sigma(a,b)+dot(a,b)", False),
        # two weights over a single and a product
        ("d(sigma(a,b))+aa*dot(a,b)*sigma(a,b)", False),
        # the collapse keeps a parameter: no rational combination
        ("B*sigma(a,b)+aa*sigma(a,b)", True),
        ("C*aa*dot(a,b)*sigma(a,b)", True),
    ],
)
def test_multi_weight_targets_match_both_oracles(text, residual):
    rc = realize_config(parse_config(resolve_config("su3_tcp2")[1]))
    target = parse_form_expression(text, rc.context)
    got = _assert_matches_oracles(rc.setup, rc.dictionary(), target)
    assert got.residual == residual


def test_window_and_triples_match_both_oracles(
    su3_setup, su3_dictionary, su3_context, su2_setup, su2_dictionary
):
    sab = next(e for e in su3_dictionary.entries if e.word.render() == "sigma(a,b)")
    target = exterior_derivative(su3_setup, sab.translation)
    got = _assert_matches_oracles(
        su3_setup, su3_dictionary, target, degree_bounds=(0, 0)
    )
    assert got.residual and got.failed_cells == ((2, 0),)
    target = parse_form_expression("d(sigma(a,b))*dot(a,b)", su3_context)
    got = _assert_matches_oracles(
        su3_setup, su3_dictionary, target, allow_triples=True
    )
    assert not got.residual
    for target in _row_targets(su2_setup, su2_dictionary, 2):
        _assert_matches_oracles(
            su2_setup, su2_dictionary, target, degree_bounds=(16, -4)
        )


def test_a_second_row_with_the_same_block_key_adds_no_column(
    su3_setup, su3_dictionary, su3_context, monkeypatch
):
    fresh = replace(su3_dictionary)
    columns = _count_span_columns(monkeypatch)
    first = parse_form_expression("sigma(a,b)", su3_context)
    second = parse_form_expression("-3*sigma(a,b)", su3_context)
    assert express_in_generators(su3_setup, fresh, first).render() == "sigma(a,b)"
    built = columns[0]
    assert built > 0
    keys = set(fresh._spans)
    assert express_in_generators(su3_setup, fresh, second).render() == "-3*sigma(a,b)"
    assert columns[0] == built and set(fresh._spans) == keys
    # another weight, window or triples flag is another block
    for target, kwargs in [
        ("aa*sigma(a,b)", {}),
        ("sigma(a,b)", {"degree_bounds": (2, 0)}),
        ("sigma(a,b)", {"allow_triples": True}),
    ]:
        x = parse_form_expression(target, su3_context)
        express_in_generators(su3_setup, fresh, x, **kwargs)
        assert columns[0] > built
        built = columns[0]


def test_the_table_builds_each_block_once(su3_setup, su3_dictionary, monkeypatch):
    fresh = replace(su3_dictionary)
    columns = _count_span_columns(monkeypatch)
    rows = differential_table(su3_setup, fresh, 2)
    built = columns[0]
    assert differential_table(su3_setup, fresh, 2) == rows
    assert columns[0] == built


def test_entry_weights_weigh_each_syllable_once(su3_dictionary, monkeypatch):
    weighed = []
    single_weight = dictionary_module._single_weight

    def counted(weigh, x):
        weighed.append(x)
        return single_weight(weigh, x)

    monkeypatch.setattr(dictionary_module, "_single_weight", counted)
    fresh = replace(su3_dictionary)
    weights = fresh._entry_weights()
    syllables = [s for e in fresh.entries for s in e.word.syllables]
    assert len(weighed) == len(set(syllables)) < len(syllables)
    weigh = dictionary_module._dilation_weigher(fresh.setup)
    assert weights == [single_weight(weigh, e.translation) for e in fresh.entries]


def test_a_weightless_block_of_a_graded_system_forms_no_product(
    su2_setup, su2_dictionary, su2_context, monkeypatch
):
    # u^2 = k+aa is inhomogeneous, so u*det(b,b) is one weightless block,
    # which no column of the graded su2_ts2 system can reach: it fails
    # without a product or a radial power being formed
    target = parse_form_expression("u*det(b,b)", su2_context)
    _assert_matches_oracles(su2_setup, replace(su2_dictionary), target)
    fresh = replace(su2_dictionary)
    assert fresh._ray_weigher is not None
    blocked = []
    blocks = dictionary_module.Dictionary._blocks

    def counted(self, x):
        blocked.append(x)
        return blocks(self, x)

    monkeypatch.setattr(dictionary_module.Dictionary, "_blocks", counted)
    got = express_in_generators(su2_setup, fresh, target)
    assert len(blocked) == 1 and not fresh._columns
    assert got.render() == "<no expression within bounds; failing cells (0, 2)>"
    assert got.failed_cells == ((0, 2),)
