"""End-to-end command line runs against the small bundled setup.

The heavy eight-dimensional config only gets its cheap subcommands here
(validate, generate, dim_table); its differential table is covered by the
acceptance suite.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from equiform import homogeneous
from equiform.cli import (
    Overrides,
    UsageError,
    build_parser,
    main,
    resolve_config,
    run_config,
)
from equiform.config import TaskSpec, parse_config, realize_config
from equiform.expressions import MAX_NESTING
from equiform.report import SCHEMA

from test_dictionary import HOPF_REFUSAL, hopf_document


def _nested(depth, text):
    return "(" * depth + text + ")" * depth


def write_config(tmp_path, doc, name="test.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def small_doc(tasks):
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
        "tasks": tasks,
    }


class TestResolution:
    def test_bundled_names_resolve(self):
        for name in ("su2_ts2", "su2_ts2.json"):
            source, text = resolve_config(name)
            assert source == "su2_ts2"
            assert json.loads(text)["lie_algebra"]["dimension"] == 3

    def test_unknown_config_lists_bundled(self):
        with pytest.raises(UsageError, match="su2_ts2.*su3_tcp2|su3_tcp2.*su2_ts2"):
            resolve_config("missing_config")

    def test_file_path_wins_over_bundled(self, tmp_path):
        path = write_config(tmp_path, small_doc([]), name="su2_ts2.json")
        source, text = resolve_config(path)
        assert source == "su2_ts2.json"
        assert json.loads(text)["tasks"] == []


class TestExitStatus:
    def test_bundled_small_run_passes(self, capsys):
        assert main(["run", "--config", "su2_ts2"]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        assert "hyperkahler-triple" in out

    def test_failed_verification_exits_one(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            small_doc([
                {"kind": "verify_closed", "forms": ["dot(a,beta)"]},
            ]),
        )
        assert main(["run", "--config", path]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        doc = small_doc([])
        doc["extra"] = 1
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_setup_error_exits_two(self, tmp_path, capsys):
        doc = small_doc([])
        doc["lie_algebra"]["constants"].append([3, "13", "1"])
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        assert "setup rejected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ring, needle",
        [
            ({"params": ["a1"]}, "ring.params[0]"),
            ({"radicals": [{"name": "u", "square": "4"}]}, "ring.radicals[0].square"),
            (
                {"params": ["k"], "radicals": [{"name": "u", "square": "a1*k+a1"}]},
                "ring.radicals[0].square: square of radical u needs exactly one term",
            ),
        ],
    )
    def test_ring_error_exits_two(self, tmp_path, capsys, ring, needle):
        doc = small_doc([])
        doc["ring"] = ring
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [None, 5])
    @pytest.mark.parametrize(
        "place, key",
        [
            ("ring", "sqrt_constants"),
            ("ring", "params"),
            ("ring", "radicals"),
            ("task", "forms"),
        ],
    )
    def test_non_list_value_exits_two(self, tmp_path, capsys, place, key, value):
        doc = small_doc([{"kind": "verify_closed", "forms": ["dot(a,a)"]}])
        section = doc["ring"] if place == "ring" else doc["tasks"][0]
        section[key] = value
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        where = "ring" if place == "ring" else "tasks[0]"
        assert err.count("\n") == 1
        assert f"{where}.{key}: expected a list, got {value!r}" in err
        assert "Traceback" not in err

    def test_setup_issues_share_one_line(self, tmp_path, capsys):
        # rho(e1) made symmetric is not skew, and no longer a homomorphism
        # on four brackets: five issues, one diagnostic line
        doc = json.loads(resolve_config("su3_tcp2")[1])
        doc["representation"]["1"] = [
            [x.lstrip("-") for x in row] for row in doc["representation"]["1"]
        ]
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "equiform: setup rejected: representation not orthogonal: "
            "rho(e1) is not skew; representation not a homomorphism on [e1, e6]; "
        )
        assert captured.err.count("; ") == 4
        assert "Traceback" not in captured.err

    def test_hopf_action_exits_two(self, tmp_path, capsys):
        # a1*a3+a2*a4 vanishes on the ray but not elsewhere: the ray solve
        # would report it as 0, so the hypothesis behind it is refused
        path = write_config(tmp_path, hopf_document(), name="hopf.json")
        assert main(["express", "--config", path, "--task", "hopf"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"equiform: task hopf: {HOPF_REFUSAL}\n"
        assert "[pass]" not in captured.out

    def test_inexpressible_differential_exits_one(self, capsys):
        assert main([
            "d_table", "--config", "su2_ts2", "--max-degree", "2",
            "--laurent-bounds=1,1", "--format", "json",
        ]) == 1
        (task,) = json.loads(capsys.readouterr().out)["tasks"]
        assert task["status"] == "fail"
        assert "dot(a,a)" in task["details"]["failed_rows"]

    def test_bundled_report_matches_golden(self, tmp_path):
        # captured from `equiform run --config su2_ts2 --format json`
        out = tmp_path / "report.json"
        assert main([
            "run", "--config", "su2_ts2", "--format", "json", "--output", str(out),
        ]) == 0
        golden = Path(__file__).parent / "golden" / "su2_ts2.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (
                ["d_table", "--max-degree", "4", "--laurent-bounds=0,16"],
                "d_table-degree4",
            ),
            (["express", "--laurent-bounds=-4,32"], "express-wide"),
            # a value after a space may start with a dash and a digit
            (["express", "--laurent-bounds", "-4,32"], "express-wide"),
        ],
    )
    def test_su2_ray_solve_matches_golden(self, tmp_path, argv, name):
        # captured from `equiform <argv> --config su2_ts2 --format json`: the
        # t = 1 blocks of su2_ts2 beyond the degree-2 table of its run
        out = tmp_path / "report.json"
        assert main([
            *argv, "--config", "su2_ts2", "--format", "json", "--output", str(out),
        ]) == 0
        golden = Path(__file__).parent / "golden" / f"su2_ts2-{name}.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize(
        "kind",
        [
            "generate", "dim_table", "d_table", "verify_closed", "verify_equation",
            "express",
        ],
    )
    def test_su3_report_matches_golden(self, tmp_path, kind):
        # captured from `equiform <kind> --config su3_tcp2 --format json`
        out = tmp_path / "report.json"
        assert main([
            kind, "--config", "su3_tcp2", "--format", "json", "--output", str(out),
        ]) == 0
        golden = Path(__file__).parent / "golden" / f"su3_tcp2-{kind}.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_oversized_task_form_exits_two(self, tmp_path, capsys):
        # (k+aa)^32 has 561 coefficient terms, so the product is refused
        form = "(k+aa)^32*(k+aa)^32*det(b,b)"
        path = write_config(
            tmp_path, small_doc([{"kind": "verify_closed", "forms": [form]}])
        )
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "exceeds the bound 16384 at position 10" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, bounds, needle",
        [
            ("su3_tcp2", "-6,4", "-6 is below the depth bound -4 of the radial radical s"),
            ("su2_ts2", "0,2000", "2000 exceeds the exponent bound 32"),
        ],
    )
    def test_laurent_flag_outside_ring_exits_two(self, capsys, config, bounds, needle):
        assert main(["express", "--config", config, f"--laurent-bounds={bounds}"]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "radical, bounds, needle",
        [
            ("aa", [-5, 0], "-5 is below the depth bound -4 of the radial radical u"),
            ("k+aa", [0, 2000], "2000 exceeds the exponent bound 32"),
        ],
    )
    def test_laurent_config_outside_ring_exits_two(
        self, tmp_path, capsys, radical, bounds, needle
    ):
        doc = small_doc([
            {"kind": "express", "expression": "d(det(b,b))", "laurent_bounds": bounds},
        ])
        doc["ring"]["radicals"][0]["square"] = radical
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "task",
        [
            {"kind": "verify_closed", "name": "t", "forms": ["b1"]},
            {"kind": "express", "name": "t", "expression": "d(a1*b1)"},
            {"kind": "verify_equation", "name": "t", "lhs": "d(e1)", "rhs": "0"},
        ],
        ids=["verify_closed", "express", "verify_equation"],
    )
    def test_non_invariant_task_form_names_the_task(self, tmp_path, capsys, task):
        path = write_config(tmp_path, small_doc([task]))
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("equiform: task t: input not invariant and basic")
        assert "setup rejected" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("form", ["u*dot(b,beta)", "a1*dot(b,beta)"])
    def test_non_invariant_radical_is_not_certified(self, tmp_path, capsys, form):
        # u^2 = k+a1*a1 is not invariant, so neither is u: both forms take
        # the full check of d and are refused
        doc = json.loads(resolve_config("su2_ts2")[1])
        doc["ring"]["radicals"][0]["square"] = "k+a1*a1"
        doc["tasks"] = [{"kind": "verify_closed", "name": "t", "forms": [form]}]
        path = write_config(tmp_path, doc)
        assert main(["verify_closed", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == (
            "equiform: task t: input not invariant and basic, so its "
            "derivative is not basic\n"
        )

    @pytest.mark.parametrize(
        "expression", ["a1*dot(a,b)", "a1*a1*sigma(beta,beta)"]
    )
    def test_non_invariant_express_target_exits_two(
        self, tmp_path, capsys, expression
    ):
        # basic but not invariant: the restriction to the ray a = t*e1 is
        # injective on invariant forms only, so the target must be refused,
        # not expressed through its restriction
        doc = json.loads(resolve_config("su3_tcp2")[1])
        doc["tasks"] = [{"kind": "express", "name": "t", "expression": expression}]
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == "equiform: task t: target is not an invariant basic form\n"

    def test_point_error_in_generation_exits_two(self, tmp_path, capsys):
        cases = [
            # the letter a/s has no value at the origin, where s = 0
            (
                "su3_tcp2",
                [f"a{i}*s^-1" for i in range(1, 5)],
                "negative power of zero while evaluating s",
            ),
            # u^2 = k+2aa = 1+2t^2 is no rational square at any generic
            # scale t, so the point stays e1, where it is 3
            (
                "su2_ts2",
                ["u*a1", "u*a2"],
                "radical u has no exact value at this point "
                "(square evaluates to 3)",
            ),
        ]
        for config, letter, message in cases:
            doc = json.loads(resolve_config(config)[1])
            doc["letters"]["c"] = letter
            if config == "su2_ts2":
                doc["ring"]["radicals"][0]["square"] = "k+2*aa"
            path = write_config(tmp_path, doc)
            assert main(["generate", "--config", path]) == 2
            err = capsys.readouterr().err
            assert err == f"equiform: task generate: {message}\n"

    def test_radical_letter_generates_at_a_scaled_point(self, tmp_path, capsys):
        # u^2 = k+aa is 2 at e1, but 25/16 at 3/4*e1, where u has a value
        doc = json.loads(resolve_config("su2_ts2")[1])
        doc["letters"]["c"] = ["u*a1", "u*a2"]
        path = write_config(tmp_path, doc)
        out = tmp_path / "r.json"
        args = ["generate", "--config", path, "--format", "json", "--output", str(out)]
        assert main(args) == 0
        (task,) = json.loads(out.read_text(encoding="utf-8"))["tasks"]
        completeness = task["details"]["completeness"]
        assert task["status"] == "pass"
        assert completeness["span_total"] == task["details"]["total_entries"]

    @pytest.mark.parametrize(
        "form, needle",
        [
            ("(k+aa)^(-5/2)", "forms[0]: cannot take the power -5/2 of k+a2^2+a1^2"),
            ("u^-3*u^-3", "forms[0]: cannot multiply at position 5"),
            ("u^-4*det(b,b)", "radical exponent -6 below depth bound -4 for u"),
            ("1/2*u^-4", "radical exponent -6 below depth bound -4 for u"),
        ],
    )
    def test_depth_overflow_in_task_exits_two(self, tmp_path, capsys, form, needle):
        # on parsing the form or on taking its d, a power of u below u^-4
        path = write_config(
            tmp_path,
            small_doc([{"kind": "verify_closed", "name": "t", "forms": [form]}]),
        )
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("equiform: task t: ")
        assert needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-degree", "-3"), ("--max-degree", "0")],
    )
    def test_size_flag_below_one_exits_two(self, capsys, flag, value):
        assert main(["d_table", "--config", "su2_ts2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"equiform: {flag}: value {value} is below 1\n"

    @pytest.mark.parametrize(
        "square",
        ["a1*k+a1", "k+1", "k", "k*a1*a2+a1*a2"],
    )
    def test_refused_radical_square_exits_two(self, tmp_path, capsys, square):
        doc = small_doc([])
        doc["ring"]["radicals"][0]["square"] = square
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("equiform: ring.radicals[0].square: square of radical u")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert main(["validate", "--config", "su2_ts2", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"equiform: cannot write report {out}: ")
        assert len(err.splitlines()) == 1

    def test_empty_laurent_flag_exits_two(self, capsys):
        assert main([
            "d_table", "--config", "su2_ts2", "--max-degree", "1", "--laurent-bounds=",
        ]) == 2
        err = capsys.readouterr().err
        assert err == "equiform: --laurent-bounds wants two integers lo,hi; got ''\n"

    def test_missing_config_exits_two(self, capsys):
        assert main(["run", "--config", "no_such_thing"]) == 2
        assert "bundled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["d_table", "--config", "su2_ts2", "--max-degree", "abc"], "--max-degree"),
            (["run"], "required: --config"),
            (["run", "--config", "su2_ts2", "--format", "xml"], "'xml'"),
            (["frob", "--config", "su2_ts2"], "'frob'"),
            (["run", "--config", "su2_ts2", "--bogus"], "unrecognized arguments: --bogus"),
            (
                ["generate", "--config", "su2_ts2", "--max-length", "3"],
                "unrecognized arguments: --max-length 3",
            ),
            (
                ["express", "--config", "su2_ts2", "--laurent-bounds"],
                "argument --laurent-bounds: expected one argument",
            ),
            (
                ["express", "--config", "su2_ts2", "--laurent-bounds", "--format", "json"],
                "argument --laurent-bounds: expected one argument",
            ),
        ],
    )
    def test_argument_error_is_one_line(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("equiform: ") and needle in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_help_is_the_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: equiform run ")

    def test_generate_length_key_is_unknown(self, tmp_path, capsys):
        doc = small_doc([{"kind": "generate", "max_length": 3}])
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "equiform: tasks[0]: unknown key 'max_length'\n"

    @pytest.mark.parametrize(
        "case, command, pattern",
        [
            ("deep_expression", "express", r"task x: expression: nesting deeper than 64 at position 65$"),
            ("deep_constant", "validate", r"constants\[0\]\[2\]: .*: nesting deeper than 64 at position 65$"),
            ("deep_json", "validate", r"line 1 column 100000: nesting 100000 levels deep"),
            ("latin1_file", "validate", r"test\.json: byte 22 is not UTF-8$"),
            ("long_number", "express", r"task x: .*number of 5000 characters is too long at position 1$"),
            ("long_constant", "validate", r"constants\[0\]\[2\]: .*: number of 5000 characters"),
            ("long_json_integer", "validate", r"line 14 column 16: integer of 5000 digits"),
            ("long_gauge_key", "validate", r"representation\.1{5000}: 1{5000} is not a gauge index$"),
            ("repeated_gauge_index", "validate", r"representation\.03: repeated gauge index 3$"),
            ("superscript_pair", "validate", r"constants\[0\]\[1\]: expected a digit string"),
            ("superscript_key", "validate", "representation\\.\u00b3: keys must be gauge indices$"),
        ],
    )
    def test_front_door_input_exits_two(self, tmp_path, capsys, case, command, pattern):
        # each of these once ended in a traceback, and the repeated index in
        # a later matrix silently replacing the first
        doc = small_doc([])
        constants = doc["lie_algebra"]["constants"]
        express = {"kind": "express", "name": "x"}
        if case == "deep_expression":
            doc["tasks"] = [{**express, "expression": _nested(400, "d(det(b,b))")}]
        elif case == "deep_constant":
            constants[0][2] = _nested(3000, "-1")
        elif case == "long_number":
            doc["tasks"] = [{**express, "expression": "1" * 5000 + "*d(det(b,b))"}]
        elif case == "long_constant":
            constants[0][2] = "1" * 5000
        elif case == "long_gauge_key":
            doc["representation"] = {"1" * 5000: doc["representation"]["3"]}
        elif case == "repeated_gauge_index":
            doc["representation"]["03"] = [["0", "1"], ["-1", "0"]]
        elif case == "superscript_pair":
            constants[0][1] = "2\u00b3"  # str.isdigit, but not a digit to int()
        elif case == "superscript_key":
            doc["representation"] = {"\u00b3": doc["representation"]["3"]}
        path = Path(write_config(tmp_path, doc))
        if case == "deep_json":
            path.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
        elif case == "latin1_file":
            # the parameter k renamed to an e-acute, in Latin-1
            path.write_bytes(json.dumps(doc).replace('"k"', '"\xe9"', 1).encode("latin-1"))
        elif case == "long_json_integer":
            text = json.dumps(doc, indent=1).replace('"dimension": 3', '"dimension": ' + "1" * 5000)
            path.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("equiform: ") and re.search(pattern, err, re.MULTILINE)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_nesting_at_the_bound_is_accepted(self, tmp_path, capsys):
        doc = small_doc([{"kind": "express", "name": "x", "expression": "d(det(b,b))"}])
        argv = ["express", "--format", "json", "--config"]
        assert main(argv + [write_config(tmp_path, doc)]) == 0
        plain = json.loads(capsys.readouterr().out)["tasks"][0]["details"]
        # MAX_NESTING brackets deep: parentheses around d(...), and a constant
        doc["tasks"][0]["expression"] = _nested(MAX_NESTING - 1, "d(det(b,b))")
        doc["lie_algebra"]["constants"][0][2] = _nested(MAX_NESTING, "-1")
        assert main(argv + [write_config(tmp_path, doc)]) == 0
        nested = json.loads(capsys.readouterr().out)["tasks"][0]["details"]
        assert nested["expression"] == plain["expression"]
        doc["tasks"][0]["expression"] = _nested(MAX_NESTING, "d(det(b,b))")
        assert main(argv + [write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"equiform: task x: expression: nesting deeper than {MAX_NESTING} "
            f"at position {MAX_NESTING + 2}\n"
        )


class TestTaskSelection:
    def test_task_filter(self, capsys):
        assert main([
            "run", "--config", "su2_ts2", "--task", "hyperkahler-triple",
        ]) == 0
        out = capsys.readouterr().out
        assert "hyperkahler-triple" in out
        assert "express-ddet" not in out

    def test_unknown_task_name(self, capsys):
        assert main(["run", "--config", "su2_ts2", "--task", "zzz"]) == 2
        assert "no task named" in capsys.readouterr().err

    def test_kind_subcommand_filters(self, capsys):
        assert main(["verify_closed", "--config", "su2_ts2"]) == 0
        out = capsys.readouterr().out
        assert "hyperkahler-triple" in out
        assert "generate" not in out

    def test_kind_subcommand_synthesizes_default(self, tmp_path, capsys):
        path = write_config(tmp_path, small_doc([]))
        assert main(["dim_table", "--config", path]) == 0
        assert "dim_table" in capsys.readouterr().out

    def test_d_table_needs_max_degree(self, tmp_path, capsys):
        path = write_config(tmp_path, small_doc([]))
        assert main(["d_table", "--config", path]) == 2
        assert "--max-degree" in capsys.readouterr().err
        assert main(["d_table", "--config", path, "--max-degree", "1"]) == 0

    def test_express_requires_declared_task(self, tmp_path, capsys):
        path = write_config(tmp_path, small_doc([]))
        assert main(["express", "--config", path]) == 2
        assert "declares no express task" in capsys.readouterr().err

    def test_express_within_narrow_bounds_fails(self, tmp_path, capsys):
        # d(det(b,b)) needs no radial factors, so the zero-only window works,
        # but an empty window cannot even be requested
        path = write_config(
            tmp_path,
            small_doc([
                {"kind": "express", "expression": "d(det(b,b))"},
            ]),
        )
        assert main([
            "express", "--config", path, "--laurent-bounds", "0,0",
        ]) == 0
        assert main([
            "express", "--config", path, "--laurent-bounds", "2,1",
        ]) == 2
        assert "exceeds" in capsys.readouterr().err


class TestReports:
    def test_json_report_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "run", "--config", "su2_ts2", "--format", "json",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == SCHEMA
        assert doc["source"] == "su2_ts2"
        assert all(t["status"] == "pass" for t in doc["tasks"])
        kinds = [t["kind"] for t in doc["tasks"]]
        assert kinds == [
            "generate", "dim_table", "d_table", "verify_closed", "express",
        ]

    def test_json_report_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main([
                "run", "--config", "su2_ts2", "--format", "json",
                "--output", str(target),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_details(self, tmp_path):
        out = tmp_path / "r.json"
        main([
            "generate", "--config", "su2_ts2", "--format", "json",
            "--output", str(out),
        ])
        doc = json.loads(out.read_text(encoding="utf-8"))
        (task,) = doc["tasks"]
        assert task["details"]["total_entries"] == 16
        assert task["details"]["origin_entries"] == 6
        assert task["details"]["radial"] == "dot(a,a)"
        assert task["details"]["completeness"]["span_total"] == 16

    def test_dimension_table_is_computed_once(self, monkeypatch):
        calls = []
        original = homogeneous.invariant_dimension

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(homogeneous, "invariant_dimension", counting)
        rc = realize_config(parse_config(resolve_config("su3_tcp2")[1]))
        tasks = [TaskSpec(kind=k, name=k) for k in ("generate", "dim_table")]
        assert run_config(rc, "su3_tcp2", tasks, Overrides()).passed
        # the 5 x 5 cells fall into 3 x 3 Hodge duality classes; one cell
        # per class at each of the two stabilizers, each computed once
        assert len(calls) == 18

    def test_validate_reports_subject(self, capsys):
        assert main(["validate", "--config", "su3_tcp2"]) == 0
        out = capsys.readouterr().out
        assert "algebra_dimension: 8" in out
        assert "b_convention" in out


def test_readme_names_both_laurent_spellings():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    window = next(p for p in readme.split("\n\n") if "A Laurent window" in p)
    assert "`--laurent-bounds=lo,hi`" in window
    assert "`--laurent-bounds lo,hi`" in window


def test_readme_lists_the_parser_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        flag
        for p in sub.choices.values()
        for action in p._actions
        for flag in action.option_strings
    }
    assert documented == flags - {"-h", "--help"}
