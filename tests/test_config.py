"""Config parsing and realization.

Most cases run on a small rotation-group document kept as a plain dict so
individual tests can break one field at a time before dumping to JSON.
"""

import json

import pytest

from equiform.config import (
    ConfigError,
    constant_context,
    parse_config,
    parse_field_constant,
    realize_config,
)
from equiform.expressions import parse_form_expression
from equiform.homogeneous import SetupError, exterior_derivative


def small_doc():
    return {
        "ring": {
            "params": ["k"],
            "radicals": [{"name": "u", "square": "k+aa"}],
        },
        "lie_algebra": {
            "dimension": 3,
            "constants": [
                [1, "23", "-1"],
                [2, "13", "1"],
                [3, "12", "-1"],
            ],
        },
        "splitting": {"horizontal": [1, 2], "gauge": [3]},
        "representation": {"3": [["0", "-1"], ["1", "0"]]},
        "letters": {"a": "builtin", "b": "builtin", "beta": ["e1", "e2"]},
        "contractions": {"dot": "builtin", "det": "builtin"},
        "tasks": [{"kind": "generate"}],
    }


def parse_patched(**patches):
    doc = small_doc()
    doc.update(patches)
    return parse_config(json.dumps(doc))


class TestParse:
    def test_fields_survive(self):
        doc = parse_patched()
        assert doc.dimension == 3
        assert doc.fiber_dim == 2
        assert doc.horizontal == (1, 2)
        assert doc.gauge == (3,)
        assert [t.kind for t in doc.tasks] == ["generate"]
        assert dict(doc.letters)["beta"] == ("e1", "e2")

    def test_task_names_default_to_kind(self):
        doc = parse_patched(
            tasks=[{"kind": "generate"}, {"kind": "dim_table"}]
        )
        assert [t.name for t in doc.tasks] == ["generate", "dim_table"]

    def test_json_syntax_error_reports_line_and_column(self):
        with pytest.raises(ConfigError, match=r"line \d+ column \d+"):
            parse_config("{\n  \"ring\": {,}\n}")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            parse_patched(extra=1)

    def test_missing_section(self):
        doc = small_doc()
        del doc["tasks"]
        with pytest.raises(ConfigError, match="missing required key 'tasks'"):
            parse_config(json.dumps(doc))

    def test_unknown_ring_key(self):
        with pytest.raises(ConfigError, match="ring: unknown key"):
            parse_patched(ring={"params": [], "extra": 1})

    def test_splitting_out_of_range(self):
        with pytest.raises(ConfigError, match="splitting.gauge"):
            parse_patched(splitting={"horizontal": [2, 3], "gauge": [4]})

    def test_splitting_overlap(self):
        with pytest.raises(ConfigError, match="overlap"):
            parse_patched(splitting={"horizontal": [1, 2], "gauge": [2, 3]})

    def test_splitting_not_partitioning(self):
        with pytest.raises(ConfigError, match="partition"):
            parse_patched(splitting={"horizontal": [2], "gauge": [3]})

    def test_constants_must_increase(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "32", "-1"]
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(json.dumps(doc))

    def test_constants_duplicate(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"].append([1, "23", "1"])
        with pytest.raises(ConfigError, match="duplicate constant"):
            parse_config(json.dumps(doc))

    def test_constant_value_must_parse(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "23", "oops"]
        with pytest.raises(ConfigError, match="'oops'"):
            parse_config(json.dumps(doc))

    def test_zero_denominator_literal(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "23", "1/0"]
        with pytest.raises(ConfigError, match="zero denominator"):
            parse_config(json.dumps(doc))

    def test_sqrt_constant_needs_declaration(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "23", "sqrt5"]
        with pytest.raises(ConfigError, match="sqrt5 is not declared"):
            parse_config(json.dumps(doc))

    def test_representation_missing_gauge_matrix(self):
        with pytest.raises(ConfigError, match="missing matrix for gauge"):
            parse_patched(
                splitting={"horizontal": [1], "gauge": [2, 3]},
                representation={"3": [["0", "-1"], ["1", "0"]]},
            )

    def test_representation_key_must_be_gauge(self):
        with pytest.raises(ConfigError, match="not a gauge index"):
            parse_patched(
                representation={"2": [["0", "-1"], ["1", "0"]]}
            )

    def test_representation_rows_must_be_square(self):
        with pytest.raises(ConfigError, match="expected 2 entries"):
            parse_patched(representation={"3": [["0", "-1"], ["1"]]})

    def test_radical_square_bad_name(self):
        with pytest.raises(ConfigError, match="radical square"):
            parse_patched(
                ring={"radicals": [{"name": "u", "square": "q+aa"}]}
            )

    def test_radical_square_zero(self):
        with pytest.raises(ConfigError, match="nonzero"):
            parse_patched(
                ring={"radicals": [{"name": "u", "square": "aa-aa"}]}
            )

    @pytest.mark.parametrize(
        "square, needle",
        [
            ("4", r"ring\.radicals\[0\]\.square: .* not be constant"),
            ("k^-1+aa", "no negative powers"),
            ("(k+aa)^400", "exceeds the bound 32"),
        ],
    )
    def test_radical_square_rejected(self, square, needle):
        ring = {"params": ["k"], "radicals": [{"name": "u", "square": square}]}
        with pytest.raises(ConfigError, match=needle):
            parse_patched(ring=ring)

    @pytest.mark.parametrize(
        "ring, needle",
        [
            ({"params": ["a1"]}, r"ring\.params\[0\]: 'a1' is already a fiber"),
            (
                {"params": ["k"], "radicals": [{"name": "k", "square": "aa"}]},
                r"ring\.radicals\[0\]\.name: 'k' is already a parameter",
            ),
            ({"params": ["aa"]}, r"ring\.params\[0\]: 'aa' is already the radial"),
            ({"params": ["e1"]}, r"ring\.params\[0\]: 'e1' is already a coframe"),
            (
                {"sqrt_constants": [2], "params": ["sqrt2"]},
                r"ring\.params\[0\]: 'sqrt2' is already a field constant",
            ),
        ],
    )
    def test_ring_name_already_taken(self, ring, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_patched(ring=ring)

    def test_literals_use_the_expression_language(self):
        ctx = constant_context((3,))
        assert parse_field_constant(ctx, "sqrt3^2", "x") == 3
        assert parse_field_constant(ctx, "(1-sqrt3)*(1+sqrt3)", "x") == -2

    def test_literals_are_parsed_once_per_text(self, monkeypatch):
        import equiform.config as config

        texts = []
        parse = config.parse_form_expression

        def counting(text, ctx):
            texts.append(text)
            return parse(text, ctx)

        monkeypatch.setattr(config, "parse_form_expression", counting)
        ctx = constant_context((3,))
        texts_in = ("0", "-sqrt3", "0", "-sqrt3")
        got = [parse_field_constant(ctx, t, "x") for t in texts_in]
        assert got == [0, -ctx.scalars["sqrt3"].constant_term()] * 2
        assert texts == ["0", "-sqrt3"]
        # a failed parse is not kept: each place reports itself
        for where in ("a", "b"):
            with pytest.raises(ConfigError, match=rf"^{where}: bad exact constant"):
                parse_field_constant(ctx, "sqrt2", where)

    def test_constant_rejects_d(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "23", "d(1)"]
        with pytest.raises(ConfigError, match=r"constants\[0\]\[2\]: .*d\(\.\.\.\)"):
            parse_config(json.dumps(doc))

    def test_builtin_letters_limited(self):
        doc = small_doc()
        doc["letters"]["q"] = "builtin"
        with pytest.raises(ConfigError, match="only letters a and b"):
            parse_config(json.dumps(doc))

    def test_letter_component_count(self):
        doc = small_doc()
        doc["letters"]["beta"] = ["e1"]
        with pytest.raises(ConfigError, match="list of 2 component"):
            parse_config(json.dumps(doc))

    def test_builtin_contractions_limited(self):
        doc = small_doc()
        doc["contractions"]["wave"] = "builtin"
        with pytest.raises(ConfigError, match="dot and det"):
            parse_config(json.dumps(doc))

    def test_contraction_symmetry_vocabulary(self):
        doc = small_doc()
        doc["contractions"]["q"] = {
            "symmetry": "odd",
            "entries": [["12", "1"]],
        }
        with pytest.raises(ConfigError, match="unknown value 'odd'"):
            parse_config(json.dumps(doc))

    def test_contraction_mixed_arity(self):
        doc = small_doc()
        doc["contractions"]["q"] = {
            "entries": [["12", "1"], ["122", "1"]]
        }
        with pytest.raises(ConfigError, match="mixed arity"):
            parse_config(json.dumps(doc))

    def test_contraction_duplicate_entry(self):
        doc = small_doc()
        doc["contractions"]["q"] = {"entries": [["12", "1"], ["12", "2"]]}
        with pytest.raises(ConfigError, match="duplicate index"):
            parse_config(json.dumps(doc))

    def test_task_kind_vocabulary(self):
        with pytest.raises(ConfigError, match="tasks\\[0\\].kind"):
            parse_patched(tasks=[{"kind": "frobnicate"}])

    def test_task_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown key 'max_degree'"):
            parse_patched(tasks=[{"kind": "generate", "max_degree": 2}])

    def test_task_names_unique(self):
        with pytest.raises(ConfigError, match="two tasks named"):
            parse_patched(
                tasks=[
                    {"kind": "generate", "name": "x"},
                    {"kind": "dim_table", "name": "x"},
                ]
            )

    def test_task_name_charset(self):
        with pytest.raises(ConfigError, match="invalid task name"):
            parse_patched(tasks=[{"kind": "generate", "name": "a b"}])

    def test_verify_closed_needs_forms(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_patched(tasks=[{"kind": "verify_closed", "forms": []}])

    def test_laurent_bounds_ordered(self):
        with pytest.raises(ConfigError, match="lo 3 exceeds hi 1"):
            parse_patched(
                tasks=[
                    {
                        "kind": "express",
                        "expression": "dot(a,b)",
                        "laurent_bounds": [3, 1],
                    }
                ]
            )

    def test_on_sphere_must_be_bool(self):
        with pytest.raises(ConfigError, match="true or false"):
            parse_patched(
                tasks=[
                    {
                        "kind": "verify_closed",
                        "forms": ["dot(a,b)"],
                        "on_sphere": 1,
                    }
                ]
            )


class TestRealize:
    def test_small_setup_realizes(self):
        rc = realize_config(parse_patched())
        assert rc.setup.fiber_dim == 2
        assert sorted(rc.letters) == ["a", "b", "beta"]
        assert sorted(rc.contractions) == ["det", "dot"]
        assert rc.setup.ring.params == ("k",)

    def test_dictionary_is_cached(self):
        rc = realize_config(parse_patched())
        assert rc.dictionary() is rc.dictionary()
        # the full dictionary covers every degree; a bounded one covers its
        # own degree and below, and a request above it generates afresh
        assert rc.dictionary() is rc.dictionary(2)
        rc = realize_config(parse_patched())
        bounded = rc.dictionary(2)
        assert rc.dictionary(1) is bounded and bounded.max_degree == 2
        assert rc.dictionary(3) is not bounded and rc.dictionary(3).max_degree == 3
        assert rc.dictionary().max_degree is None

    def test_expressions_parse_in_realized_context(self):
        rc = realize_config(parse_patched())
        omega = parse_form_expression(
            "1/2*(k+aa)^(1/2)*det(beta,beta)-1/2*(k+aa)^(-1/2)*det(b,b)",
            rc.context,
        )
        assert exterior_derivative(rc.setup, omega).is_zero

    def test_letter_expression_error_names_section(self):
        doc = small_doc()
        doc["letters"]["beta"] = ["e1", "nope"]
        with pytest.raises(ConfigError, match="letters.beta"):
            realize_config(parse_config(json.dumps(doc)))

    def test_letter_past_the_depth_bound_names_section(self):
        # the equivariance check takes d of u^-4, which carries u^-6
        doc = small_doc()
        doc["letters"]["beta"] = ["u^-4*e1", "u^-4*e2"]
        with pytest.raises(ConfigError, match="letters.beta: radical exponent -6"):
            realize_config(parse_config(json.dumps(doc)))

    def test_non_equivariant_letter_rejected(self):
        doc = small_doc()
        doc["letters"]["beta"] = ["e1", "e1"]
        with pytest.raises(ConfigError, match="letters.beta"):
            realize_config(parse_config(json.dumps(doc)))

    def test_non_invariant_contraction_rejected(self):
        doc = small_doc()
        doc["contractions"]["q"] = {"entries": [["11", "1"]]}
        with pytest.raises(ConfigError, match="contractions.q"):
            realize_config(parse_config(json.dumps(doc)))

    def test_contraction_symmetry_is_checked(self):
        doc = small_doc()
        doc["contractions"]["q"] = {
            "symmetry": "antisymmetric",
            "entries": [["11", "1"], ["22", "1"]],
        }
        with pytest.raises(ConfigError, match="contractions.q: .*antisymmetric"):
            realize_config(parse_config(json.dumps(doc)))
        doc["contractions"]["q"]["symmetry"] = "symmetric"
        assert "q" in realize_config(parse_config(json.dumps(doc))).contractions

    def test_setup_error_passes_through(self):
        doc = small_doc()
        doc["lie_algebra"]["constants"].append([3, "13", "1"])
        with pytest.raises(SetupError, match="Jacobi"):
            realize_config(parse_config(json.dumps(doc)))

    def test_action_sign_flip_caught_at_letters(self):
        # a lone sign flip in the gauge action keeps the raw axioms alive
        # but the plain coframe letter stops being equivariant
        doc = small_doc()
        doc["lie_algebra"]["constants"][0] = [1, "23", "1"]
        with pytest.raises(ConfigError, match="letters.beta"):
            realize_config(parse_config(json.dumps(doc)))
