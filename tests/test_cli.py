import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hilbcells
from hilbcells import (
    LEX_YX, StepLimitExceeded, Weight, charts, cli, enumerate_staircases, initial_staircase,
    is_groebner, parse_ideal, polynomials, staircases, strata, tangent, weight_initial_ideal,
    weight_order,
)
from hilbcells.cli import main
from hilbcells.staircases import COMPATIBLE_BOUND
from test_polynomials import read_back


ANCHOR_IDEAL = "x*y^2+y^3; x^2*y+x*y^2; x^3+x^2*y-x*y-y^2; y^4-y^3"
POINCARE_ABOVE = f"(-1,-{strata.POINCARE_BOUND + 2})"  # paired with --length POINCARE_BOUND + 1
NINES = "9" * 4300  # the longest integer the interpreter reads
EMPTY_WEIGHTS = (";", " ", ";;")  # --weights lists of no pair
STEPS_200, STEPS_80 = (",".join(map(str, range(n, 0, -1))) for n in (200, 80))


def nested(depth, inner, as_list=True):
    """JSON text of ``inner`` inside ``depth`` arrays, or objects keyed "0"."""
    if as_list:
        return "[" * depth + inner + "]" * depth
    return '{"0":' * depth + inner + "}" * depth


def deep_json_argvs(depth):
    """``--hilbert`` and ``--point`` documents nested ``depth`` deep."""
    hilbert = ("minimal", "--a", "1", "--b", "-1", "--hilbert")
    return (hilbert + (nested(depth, ""),),
            hilbert + (nested(depth, "1", as_list=False),),
            ("minimal", "--hilbert", '{"a":1,"b":-1,"values":{"0":%s}}' % nested(depth, "")),
            ("specialize", "--columns", "2,1", "--mode", "general",
             "--point", nested(depth, "1", as_list=False)))


DEEP_1000, DEEP_100000 = deep_json_argvs(1000), deep_json_argvs(100_000)


def child_env():
    """The environment of a child Python that imports this ``hilbcells``."""
    src = str(Path(hilbcells.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def failing_handlers(rows):
    """``rows`` of ``cli._COMMANDS`` with every handler replaced by one that fails the test."""
    def fail(args):
        raise AssertionError(f"the {args.command} handler ran")

    return {name: (text, keys, fail) if handler else (text, failing_handlers(keys), None)
            for name, (text, keys, handler) in rows.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.count("\n") == 1  # exactly one JSON document
    return json.loads(out)


class TestExamples:
    def test_tangent(self, capsys):
        data = run_json(capsys, "tangent", "--columns", "1,1", "--a", "1", "--b", "-1")
        assert data["split"] == {"pos": 1, "neg": 0}
        assert data["couples"] == [
            {"c": [0, 1], "m": [1, 0], "halfdir": "positive", "significant": True}
        ]

    def test_minimal(self, capsys):
        data = run_json(
            capsys, "minimal", "--a", "1", "--b", "-1",
            "--hilbert", '{"0":1,"1":2,"2":2,"3":1}',
        )
        assert data == {"columns": [4, 2]}

    def test_groebner_colength_seven(self, capsys):
        data = run_json(
            capsys, "groebner", "--order", "grlex_xy",
            "--ideal", "x*y^2+y^3; x^2*y+x*y^2; x^3+x^2*y-x*y-y^2; y^4-y^3",
        )
        assert data["is_groebner"] is True
        assert data["colength"] == 7
        assert data["staircase"] == {"columns": [4, 2, 1]}

    def test_groebner_completes_once(self, capsys, monkeypatch):
        # "is_groebner" is read off the basis the command prints, so under a
        # global order one completion, under one step guard, answers both.
        guards = []

        class RecordingGuard(polynomials._StepGuard):
            def __init__(self, limit):
                super().__init__(limit)
                guards.append(self)

        monkeypatch.setattr(polynomials, "_StepGuard", RecordingGuard)
        for ideal, answer in ((ANCHOR_IDEAL, True), ("y^2+x; x*y; x^8", False)):
            guards.clear()
            data = run_json(capsys, "groebner", "--order", "grlex_xy", "--ideal", ideal)
            assert (data["is_groebner"], len(guards)) == (answer, 1), ideal


class TestSubcommands:
    def test_staircase(self, capsys):
        data = run_json(capsys, "staircase", "--columns", "3,1,1,1")
        assert data["cardinality"] == 6
        assert data["clefts"] == [[0, 3], [1, 1], [4, 0]]

    def test_clefts(self, capsys):
        data = run_json(capsys, "clefts", "--columns", "1,1")
        assert data["plus"] == [[0, 1], [2, 0]]
        assert data["minus"] == [[2, 0], [0, 1]]

    def test_hilbert(self, capsys):
        data = run_json(capsys, "hilbert", "--columns", "3,1,1,1", "--a", "1", "--b", "-1")
        assert data == {"a": 1, "b": -1, "values": {"0": 1, "1": 2, "2": 2, "3": 1}}

    def test_compatible(self, capsys):
        data = run_json(
            capsys, "compatible", "--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2,"2":1}'
        )
        assert data["staircases"] == [
            {"columns": [2, 1, 1]}, {"columns": [2, 2]}, {"columns": [3, 1]}
        ]

    def test_compatible_with_full_schema(self, capsys):
        data = run_json(
            capsys, "compatible",
            "--hilbert", '{"a":1,"b":-1,"values":{"0":1,"1":2,"2":1}}',
        )
        assert len(data["staircases"]) == 3

    def test_negative_degree_keys(self, capsys):
        # Weight (-1,-2) grades x^a*y^b by 2a - b, so degrees go negative.
        data = run_json(capsys, "hilbert", "--columns", "2,1", "--a", "-1", "--b", "-2")
        assert data["values"] == {"-1": 1, "0": 1, "2": 1}
        back = run_json(
            capsys, "compatible",
            "--hilbert", json.dumps(data),
        )
        assert back["staircases"] == [{"columns": [2, 1]}]

    def test_full_schema_weight_mismatch_is_two(self, capsys):
        code, out, err = run(
            capsys, "compatible", "--a", "2", "--b", "-1",
            "--hilbert", '{"a":1,"b":-1,"values":{"0":1}}',
        )
        assert code == 2

    def test_compare(self, capsys):
        data = run_json(
            capsys, "compare", "--columns", "1,1", "--other", "2", "--a", "1", "--b", "-1"
        )
        assert data == {"comparison": "greater"}

    def test_graph(self, capsys):
        data = run_json(capsys, "graph", "--columns", "3,1,1,1", "--a", "1", "--b", "-1")
        assert data["dimension"] == 3 and data["arrows"] == []

    def test_hom_oracle(self, capsys):
        data = run_json(capsys, "hom-oracle", "--columns", "1,1")
        assert data["dimension"] == 4
        assert data["characters"] == [[-2, 0], [-1, 0], [0, -1], [1, -1]]

    def test_hom_oracle_answers_past_ten_cells(self, capsys):
        # 15 cells, 60 cleft couples: a length bound of 10 used to refuse it.
        E = staircases.construct_staircase([5, 4, 3, 2, 1])
        data = run_json(capsys, "hom-oracle", "--columns", "5,4,3,2,1")
        assert data == {"dimension": 30,
                        "characters": [list(c) for c in sorted(tangent.arm_leg_characters(E))]}

    def test_cells(self, capsys):
        data = run_json(capsys, "cells", "--columns", "1,1", "--vector", "(-1,-3)")
        assert data["cell_dimension"] == 4

    def test_chart_and_specialize(self, capsys):
        data = run_json(
            capsys, "chart", "--columns", "1,1", "--mode", "invariant", "--a", "1", "--b", "-1"
        )
        assert data["variables"] == ["X[0,1;1,0]"]
        for text in data["generators"]:
            assert read_back(text).to_text() == text
        spec = run_json(
            capsys, "specialize", "--columns", "1,1", "--mode", "invariant",
            "--a", "1", "--b", "-1", "--point", '{"X[0,1;1,0]":"1"}',
        )
        assert spec["generators"] == ["+1/1·x^1*y^0 +1/1·x^0*y^1", "+1/1·x^2*y^0"]

    def test_specialize_without_a_point_gives_the_origin_fiber(self, capsys):
        data = run_json(capsys, "specialize", "--columns", "2,1", "--mode", "general",
                        "--point", "")
        assert data == {"generators": ["+1/1·x^0*y^2", "+1/1·x^1*y^1", "+1/1·x^2*y^0"]}

    def test_verify_flat(self, capsys):
        data = run_json(
            capsys, "verify-flat", "--columns", "3,1,1,1", "--mode", "general",
            "--samples", "2", "--seed", "5",
        )
        assert data["valid"] is True

    def test_verify_flat_rejects_negative_samples(self, capsys):
        code, out, err = run(capsys, "verify-flat", "--columns", "2,1", "--mode", "general",
                             "--samples", "-1")
        assert (code, out) == (1, "") and "--samples -1 outside 0 to bound 100" in err

    def test_degenerate(self, capsys):
        data = run_json(capsys, "degenerate", "--columns", "1,1", "--a", "1", "--b", "-1")
        assert data["target"] == {"columns": [2]}

    def test_descend(self, capsys):
        data = run_json(
            capsys, "descend", "--columns", "3,1,1,1", "--a", "1", "--b", "-1",
            "--policy", "random", "--seed", "11",
        )
        assert data["final"] == {"columns": [4, 2]}

    def test_components(self, capsys):
        data = run_json(capsys, "components", "--length", "2", "--a", "1", "--b", "-1")
        assert len(data["components"]) == 1
        assert data["components"][0]["dimension"] == 1

    def test_poincare(self, capsys):
        data = run_json(capsys, "poincare", "--length", "2", "--vector", "(-1,-3)")
        assert data["coefficients"] == {"3": 1, "4": 1}

    def test_groebner_of_infinite_colength_has_no_staircase(self, capsys):
        data = run_json(capsys, "groebner", "--ideal", "x")
        assert data == {"basis": ["+1/1·x^1*y^0"], "colength": None, "is_groebner": True,
                        "leading": [[1, 0]], "staircase": None}

    def test_initial(self, capsys):
        data = run_json(
            capsys, "initial", "--order", "cell", "--a", "1", "--b", "-1",
            "--ideal", "y+x; x^2",
        )
        assert data == {"columns": [1, 1]}

    def test_weight_initial(self, capsys):
        data = run_json(
            capsys, "weight-initial", "--ideal", "y+x; x^2",
            "--vector", "1,0", "--extremum", "max",
        )
        assert data["staircase"] == {"columns": [2]}

    def test_run_suite_verify_all(self, capsys):
        data = run_json(capsys, "run-suite", "verify-all", "--max-length", "3", "--seed", "7")
        assert data["all_ok"] is True
        names = {item["name"] for item in data["items"]}
        assert "tangent-oracle-equivalence" in names
        assert "descent-convergence" in names

    def test_run_suite_components(self, capsys):
        data = run_json(
            capsys, "run-suite", "components", "--length", "6", "--a", "1", "--b", "-1"
        )
        assert data["all_ok"] is True
        assert all(item["constancy"] for item in data["items"])

    def test_run_suite_poincare(self, capsys):
        data = run_json(
            capsys, "run-suite", "poincare", "--max-length", "3",
            "--weights", "(-1,-3);(-2,-5)",
        )
        assert data["all_ok"] is True

    def test_run_suite_poincare_reports_genericity_failures(self, capsys):
        data = run_json(
            capsys, "run-suite", "poincare", "--max-length", "4",
            "--weights", "(-1,-3);(-2,-5)",
        )
        assert data["all_ok"] is False
        failed = [item for item in data["items"] if not item["ok"]]
        assert failed and "orthogonal" in failed[0]["witness"]

    def test_verify_all_groups_each_class_once(self, capsys, monkeypatch):
        # (3,-2) is read only by the class items and (-2,-3) only by the
        # collapse item: each staircase gets one basis per weight, and the
        # agreement item never re-enumerates through the public oracle.
        # The graph item, the invariant chart families and the descents read
        # the same groups, and the general chart families the oracle item's
        # unfiltered bases, so no (staircase, direction) pair gets a second
        # basis.  The descents of one class share their steps, so each
        # (source, couple) is degenerated once, and the S-profiles the class
        # check laid out, so each (staircase, weight) is laid out once.
        calls, steps, layouts = Counter(), Counter(), Counter()
        original = tangent.tangent_basis
        original_degenerate = strata._degenerate
        original_profile = staircases.s_profile

        def counted(E, direction=None):
            calls[E, direction] += 1
            return original(E, direction)

        def counted_degenerate(basis, couple, *args):
            steps[basis.staircase, couple] += 1
            return original_degenerate(basis, couple, *args)

        def counted_profile(E, w):
            layouts[E, w] += 1
            return original_profile(E, w)

        def no_oracle(*args, **kwargs):
            raise AssertionError("minimal_staircase_oracle called")

        for module in (tangent, strata, charts):
            monkeypatch.setattr(module, "tangent_basis", counted)
        for module in (staircases, strata):
            monkeypatch.setattr(module, "s_profile", counted_profile)
        monkeypatch.setattr(strata, "_degenerate", counted_degenerate)
        monkeypatch.setattr(strata, "minimal_staircase_oracle", no_oracle)
        data = run_json(capsys, "run-suite", "verify-all", "--max-length", "8")
        assert data["all_ok"] is True
        for w in (Weight(3, -2), Weight(-2, -3)):
            for l in range(1, 9):
                assert all(calls[E, w] == 1 for E in enumerate_staircases(l))
        unfiltered = {pair: n for pair, n in calls.items() if pair[1] is None}
        assert len(unfiltered) == sum(len(enumerate_staircases(l)) for l in range(1, 9))
        assert set(calls.values()) == {1}
        assert set(steps.values()) == {1} and len(steps) == 64
        assert set(layouts.values()) == {1} and len(layouts) == 264

    def test_components_and_verify_all_run_one_class_check(self, capsys, monkeypatch):
        # A recursion that misses the least member of every class with more
        # than one member fails both callers with the same text: verify-all's
        # first such class, (2) and (1,1) at length 2, is the one
        # ``components --length 2`` refuses.
        original = strata.minimal_staircase

        def wrong(H):
            least = original(H)
            return next((E for E in strata.compatible_staircases(H) if E != least), least)

        monkeypatch.setattr(strata, "minimal_staircase", wrong)
        text = re.compile(r"recursion gives \([\d, ]+\) but enumeration gives \([\d, ]+\)")
        code, out, err = run(capsys, "components", "--length", "4", "--a", "1", "--b", "-1")
        assert code == 1 and out == "" and text.fullmatch(err.removeprefix("error: ").rstrip())
        code, _, err = run(capsys, "components", "--length", "2", "--a", "1", "--b", "-1")
        data = run_json(capsys, "run-suite", "verify-all", "--max-length", "4")
        item = {i["name"]: i for i in data["items"]}["minimal-staircase-agreement"]
        assert code == 1 and item["ok"] is False and not data["all_ok"]
        assert text.fullmatch(item["witness"]) and err == f"error: {item['witness']}\n"

    def test_dimension_constancy_is_the_class_check(self, capsys, monkeypatch):
        # One more negative couple at (1, 1) makes the tangent dimension vary
        # over its class at (1,-1), which it shares with (2): verify-all's
        # dimension-constancy item reports the error ``components`` gives.
        original = strata.tangent_basis

        def varying(E, direction=None):
            tb = original(E, direction)
            if E.columns == (1, 1) and direction == Weight(1, -1):
                return tb._replace(negative=tb.negative + tb.couples[:1])
            return tb

        monkeypatch.setattr(strata, "tangent_basis", varying)
        code, out, err = run(capsys, "components", "--length", "2", "--a", "1", "--b", "-1")
        assert code == 1 and out == "" and "tangent dimension varies over" in err
        data = run_json(capsys, "run-suite", "verify-all", "--max-length", "2")
        item = {i["name"]: i for i in data["items"]}["dimension-constancy"]
        assert item["ok"] is False and err == f"error: {item['witness']}\n"

    def test_verify_all_enumerates_graph_couples_once(self, capsys, monkeypatch):
        # At the four directions only the graph item reads, each staircase's
        # couples are enumerated once, for the basis the graph is built from.
        calls = Counter()
        original = tangent.cleft_couples

        def counted(E, direction=None):
            calls[E, direction] += 1
            return original(E, direction)

        monkeypatch.setattr(tangent, "cleft_couples", counted)
        data = run_json(capsys, "run-suite", "verify-all", "--max-length", "6")
        assert data["all_ok"] is True
        for w in (Weight(2, -1), Weight(1, -3), Weight(0, -1), Weight(-1, -2)):
            for l in range(1, 7):
                assert all(calls[E, w] == 1 for E in enumerate_staircases(l)), w

    def test_verify_flat_budget_trades_a_colength_only_for_minus_one(self, capsys):
        # A step budget may fail a sample (colength -1) or an S-pair, but
        # never changes a colength it reaches, nor makes an invalid family valid.
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                cs = ",".join(map(str, E.columns))
                for mode in (("--mode", "invariant", "--a", "1", "--b", "-1"),
                             ("--mode", "general")):
                    argv = ("verify-flat", "--columns", cs) + mode
                    full = run_json(capsys, *argv)
                    for budget in (1, 2, 3, 5, 8, 13, 21, 34):
                        cert = run_json(capsys, *argv, "--max-steps", str(budget))
                        for got, want in zip(cert["samples"], full["samples"]):
                            assert got["point"] == want["point"]
                            assert got["colength"] in (-1, want["colength"]), (argv, budget)
                        assert full["valid"] or not cert["valid"], (argv, budget)

    # The census for every vector with first entry -2 is replaced by {0: 1},
    # so at length 1 it differs from the other vector's.
    WRONG_CENSUS = (
        "import sys\n"
        "from hilbcells import cli, strata\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "right = strata.poincare_polynomial\n"
        "strata.poincare_polynomial = lambda l, v: {0: 1} if v[0] == -2 else right(l, v)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("argv, witness", [
        (("run-suite", "poincare", "--max-length", "3", "--weights", "(-1,-3);(-2,-5)"),
         "census differs at length 1"),
        (("run-suite", "verify-all", "--max-length", "2"), "census differs at length 1"),
    ])
    def test_suite_checks_hold_under_python_O(self, argv, witness):
        # python -O strips assert statements; the suites must still fail.
        done = subprocess.run(
            [sys.executable, "-O", "-c", self.WRONG_CENSUS, *argv],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert done.returncode == 0, done.stderr
        assert '"all_ok":false' in done.stdout
        assert witness in done.stdout


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run(capsys, "staircase", "--columns", "2,3")
        assert code == 1 and not out and "weakly decreasing" in err

    def test_malformed_json_is_two(self, capsys):
        code, out, err = run(capsys, "compatible", "--a", "1", "--b", "-1",
                             "--hilbert", "not json")
        assert code == 2 and not out

    def test_malformed_columns_is_two(self, capsys):
        code, out, err = run(capsys, "staircase", "--columns", "a,b")
        assert code == 2

    # Every comma-separated entry is an integer, as in --vector.  These exited
    # 0, each read as another staircase once its empty entries were dropped.
    @pytest.mark.parametrize("flags, value", [
        (("staircase", "--columns"), "3,,1"),
        (("staircase", "--columns"), ",3"),
        (("staircase", "--columns"), "3,1,"),
        (("compare", "--a", "1", "--b", "-1", "--columns", "2,1", "--other"), "1,,1,1"),
        (("compare", "--a", "1", "--b", "-1", "--columns", "2,1", "--other"), ",1"),
    ])
    def test_empty_column_entries_are_two(self, capsys, flags, value):
        code, out, err = run(capsys, *flags, value)
        assert (code, out, err) == (2, "", f"error: cannot parse columns {value!r}\n")

    @pytest.mark.parametrize("value, columns",
                             [(" 3 , 1 ", [3, 1]), ("3,0", [3]), ("3,1", [3, 1])])
    def test_blanks_around_column_entries_read(self, capsys, value, columns):
        assert run_json(capsys, "staircase", "--columns", value)["columns"] == columns
        data = run_json(capsys, "compare", "--a", "1", "--b", "-1", "--columns", value,
                        "--other", value)
        assert data == {"comparison": "equal"}

    @pytest.mark.parametrize("value", ["", " "])
    def test_a_blank_value_is_the_empty_staircase(self, capsys, value):
        code, out, err = run(capsys, "staircase", "--columns", value)
        assert (code, out) == (1, "") and "empty staircase" in err

    def test_missing_flags_is_two(self, capsys):
        code, out, err = run(capsys, "staircase")
        assert (code, out, err) == (2, "", "error: hilbcells staircase needs --columns\n")

    def test_regime_error_is_one(self, capsys):
        code, out, err = run(capsys, "degenerate", "--columns", "1,1", "--a", "-1", "--b", "-2")
        assert code == 1

    def test_unrealizable_is_one(self, capsys):
        code, out, err = run(capsys, "minimal", "--a", "1", "--b", "-1",
                             "--hilbert", '{"0":2}')
        assert code == 1

    def test_long_descent_does_not_list_partitions(self, capsys):
        # One column is the least of its class: the descent takes no step
        # and does no work that grows with the number of cells.
        start = time.perf_counter()
        code, out, err = run(capsys, "descend", "--columns", "80", "--a", "1", "--b", "-1")
        assert code == 0 and json.loads(out)["chain"] == []
        assert time.perf_counter() - start < 1

    # Each holds x^4 and y^4, or x^5 and y^5, and passes the nilpotence check.
    # Under these local orders they ran to the step limit or past 90 s; the
    # powers of the variables below 1 now end every division, and the
    # staircases are those of fglm_staircase.
    @pytest.mark.parametrize("ideal, vector, columns", [
        ("x - 3*y^3; -x^2*y^3 - x*y + 3*y^3; x^5; y^5", "(-1,3)", [3]),
        ("-2*x^3 - x^2 - y^3 + 3*y; 2*x^3 + x^2*y^2 - 3*x^2 - 2*x*y^2; x^4; y^4", "(1,-1)",
         [1, 1]),
        ("-2*x^3 - x^2 - y^3 + 3*y; 2*x^3 + x^2*y^2 - 3*x^2 - 2*x*y^2; x^4; y^4", "(-1,-2)",
         [1, 1]),
    ], ids=["(-1,3)", "(1,-1)", "(-1,-2)"])
    def test_local_order_answers_within_a_second(self, ideal, vector, columns):
        done = subprocess.run(
            [sys.executable, "-m", "hilbcells.cli", "weight-initial", "--ideal", ideal,
             "--vector", vector],
            capture_output=True, text=True, timeout=1, env=child_env(),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["staircase"] == {"columns": columns}

    @pytest.mark.parametrize("flags, message", [
        (("--columns", "2,x", "--a", "1", "--b", "-1"), "cannot parse columns '2,x'"),
        (("--columns", "2,1"), "this subcommand needs --a and --b"),
    ])
    def test_unknown_descent_policy_is_two(self, capsys, flags, message):
        # The reader refuses the policy before the handler reads the columns
        # and the weight, which give their own refusal under a known policy.
        assert run(capsys, "descend", *flags, "--policy", "best") == (
            2, "", "error: --policy needs one of first, last, random, got 'best'\n")
        assert run(capsys, "descend", *flags, "--policy", "last") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("specialize", "--columns", "2,1", "--mode", "general", "--point", "[1,2]"),
        ("specialize", "--columns", "2,1", "--mode", "general", "--point", "5"),
        ("minimal", "--hilbert", '{"a":1,"b":-1,"values":{"0":"x"}}'),
        ("minimal", "--hilbert", '{"a":1,"b":-1,"values":5}'),
        ("minimal", "--hilbert", '{"values":{"0":1}}'),
        ("minimal", "--a", "1", "--b", "-1", "--hilbert", '{"0":[1]}'),
        ("specialize", "--columns", "2,1", "--mode", "general", "--point", '{"X[a,2;0,0]":"1"}'),
    ])
    def test_ill_typed_payload_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, message", [
        (("specialize", "--columns", "2,1", "--mode", "general", "--point", '{"Y[0,2;0,0]":"1"}'),
         2, "bad chart variable name 'Y[0,2;0,0]'"),
        (("groebner", "--order", "foo", "--ideal", "x"), 2,
         "--order needs one of lex_xy, lex_yx, grlex_xy, cell, got 'foo'"),
        (("groebner", "--ideal", ";"), 1, "empty ideal description"),
        # The empty value exited 2 as a missing --ideal.
        (("groebner", "--ideal", ""), 1, "empty ideal description"),
        (("groebner", "--ideal", " "), 1, "empty ideal description"),
    ])
    def test_refusals_name_what_they_refuse(self, capsys, argv, code, message):
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", DEEP_1000 + DEEP_100000,
                             ids=[f"{kind}-{depth}" for depth in (1000, 100_000) for kind in (
                                 "hilbert-array", "hilbert-object", "values-entry", "point")])
    def test_deep_json_is_two(self, capsys, argv):
        # Past the recursion limit json.loads raises RecursionError, not ValueError.
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.count("\n") == 1
        assert err.startswith(f"error: {argv[-2]} is not valid JSON: ")

    def test_deep_json_is_two_as_a_program(self):
        # Linux caps one argument at 128 KiB, so only depth 1,000 fits in an argv.
        done = subprocess.run(
            [sys.executable, "-m", "hilbcells.cli", *DEEP_1000[0]],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: --hilbert is not valid JSON: ")
        assert done.stderr.count("\n") == 1

    def test_groebner_step_limit_past_a_nonzero_remainder_is_one(self, capsys):
        # The first S-pair leaves a remainder; a later one trips the limit.
        code, out, err = run(capsys, "groebner", "--ideal", "y^2+x; x*y; x^8",
                             "--order", "lex_xy", "--max-steps", "1")
        assert (code, out, err) == (1, "", "error: step limit 1 exceeded; "
                                           "raise step_limit to continue\n")

    @pytest.mark.parametrize("weights", EMPTY_WEIGHTS)
    def test_empty_weight_lists_are_two(self, capsys, weights):
        # Every chunk is blank, so the list holds no pair.
        code, out, err = run(capsys, "run-suite", "poincare", "--max-length", "2",
                             "--weights", weights)
        assert code == 2 and not out
        assert err == f"error: --weights needs at least one integer pair, got {weights!r}\n"

    @pytest.mark.parametrize("flags, code, message", [
        (("--columns", "2,x", "--mode", "general"), 2, "cannot parse columns"),
        (("--columns", "2,1", "--mode", "invariant"), 2, "needs --a and --b"),
        (("--columns", "2,1", "--mode", "invariant", "--a", "0", "--b", "0"), 1,
         "is not a direction"),
        (("--columns", "2,1", "--mode", "sideways"), 2,
         "--mode needs one of invariant, general, got 'sideways'"),
        # Exit 1 (the RegimeError of a <= 0) before the point was checked first.
        (("--columns", "2,1", "--mode", "invariant", "--a", "-1", "--b", "-1"), 2,
         "--point must be a JSON object"),
        (("--columns", "2,1", "--mode", "general"), 2, "--point must be a JSON object"),
    ])
    def test_specialize_checks_the_point_before_building(self, capsys, monkeypatch,
                                                         flags, code, message):
        # Columns, then mode and weight, then the point; no family is built.
        def build(*args):
            raise AssertionError("the chart family was built")

        monkeypatch.setattr(hilbcells.charts, "build_chart_family", build)
        got, out, err = run(capsys, "specialize", *flags, "--point", "[1,2]")
        assert (got, out) == (code, "") and message in err, err

    # A value outside a flag's set, and a missing required flag, each refused
    # by the reader from the flag table.  The handlers refused them by hand,
    # after the values they read first: the first five exited 1 on such a
    # value, and run-suite components read --length 6.
    @pytest.mark.parametrize("argv, message", [
        (("descend", "--columns", "1,2", "--a", "1", "--b", "-1", "--policy", "best"),
         "--policy needs one of first, last, random, got 'best'"),
        (("descend", "--columns", "2,1", "--a", "2", "--b", "-2", "--policy", "best"),
         "--policy needs one of first, last, random, got 'best'"),
        (("chart", "--columns", "1,2", "--mode", "sideways"),
         "--mode needs one of invariant, general, got 'sideways'"),
        (("verify-flat", "--columns", "2,1", "--mode", "sideways", "--samples", "200"),
         "--mode needs one of invariant, general, got 'sideways'"),
        (("groebner", "--ideal", "x+", "--order", "foo"),
         "--order needs one of lex_xy, lex_yx, grlex_xy, cell, got 'foo'"),
        (("descend", "--columns", "2,1", "--a", "1", "--b", "-1", "--policy", "best"),
         "--policy needs one of first, last, random, got 'best'"),
        (("initial", "--ideal", "x; y", "--order", "revlex"),
         "--order needs one of lex_xy, lex_yx, grlex_xy, cell, got 'revlex'"),
        (("compatible", "--a", "1", "--b", "-1"), "hilbcells compatible needs --hilbert"),
        (("minimal", "--a", "1", "--b", "-1"), "hilbcells minimal needs --hilbert"),
        (("groebner", "--order", "lex_xy"), "hilbcells groebner needs --ideal"),
        (("initial",), "hilbcells initial needs --ideal"),
        (("weight-initial", "--vector", "1,0"), "hilbcells weight-initial needs --ideal"),
        (("run-suite", "poincare", "--max-length", "2"),
         "hilbcells run-suite poincare needs --weights"),
        (("run-suite", "components", "--a", "1", "--b", "-1"),
         "hilbcells run-suite components needs --length"),
    ])
    def test_the_flag_table_refuses_before_any_handler(self, capsys, monkeypatch, argv, message):
        with pytest.raises(cli.MalformedInput, match=re.escape(message)):
            cli._parse_args(list(argv))
        monkeypatch.setattr(cli, "_COMMANDS", failing_handlers(cli._COMMANDS))
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_the_flag_table_has_one_row_per_option_string(self):
        options = [option for option, _ in cli._FLAGS.values()]
        assert len(options) == len(set(options))

    # Every spelling of a couple that --couple reads names the same chart
    # variable; the parenthesized ones exited 2 as bad variable names.
    SPELLINGS = ("X[0,2;1,0]", "X[(0,2);(1,0)]", "X[(0,2;1,0)]", " X[ ( 0 , 2 ) ; ( 1 , 0 ) ] ",
                 "X[+0,2;1,0]")

    def test_chart_variables_read_in_every_couple_spelling(self, capsys):
        family = ("specialize", "--columns", "2,1", "--mode", "general")
        outputs = {run(capsys, *family, "--point", json.dumps({name: "3/2"}))
                   for name in self.SPELLINGS}
        assert len(outputs) == 1
        (code, out, err), = outputs
        assert (code, err) == (0, "") and out != run(capsys, *family)[1]

    @pytest.mark.parametrize("other", SPELLINGS[1:])
    def test_a_point_naming_one_variable_twice_is_two(self, capsys, other):
        # Two spellings of X[0,2;1,0]: the later value was kept.
        point = '{"X[0,2;1,0]":"1",%s:"2"}' % json.dumps(other)
        assert run(capsys, "specialize", "--columns", "2,1", "--mode", "general",
                   "--point", point) == (2, "", "error: --point names X[0,2;1,0] twice\n")

    def test_specialize_regime_error_with_a_good_point_is_one(self, capsys):
        code, out, err = run(capsys, "specialize", "--columns", "2,1", "--mode", "invariant",
                             "--a", "-1", "--b", "-1", "--point", "{}")
        assert code == 1 and not out and "invariant mode needs a > 0" in err

    @pytest.mark.parametrize("flags", [
        ("--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2.9}'),
        ("--a", "1", "--b", "-1", "--hilbert", '{"0":true,"1":2}'),
        ("--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2.0}'),
        ("--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":1e0}'),
        ("--hilbert", '{"a":1,"b":-1,"values":{"0":1,"1":2.7}}'),
        ("--hilbert", '{"a":1.9,"b":-1,"values":{"0":1,"1":2}}'),
        ("--hilbert", '{"a":1,"b":-1e0,"values":{"0":1,"1":2}}'),
        ("--hilbert", '{"a":true,"b":-1,"values":{"0":1,"1":2}}'),
        ("--hilbert", '{"a":1,"b":-1.5,"values":{"0":1,"1":2}}'),
        ("--hilbert", '{"a":1,"b":-1,"values":{"0":1,"1":true}}'),
        ("--hilbert", '{"a":1,"b":-1,"values":{"0":1,"1":"x"}}'),
    ])
    def test_non_integer_hilbert_numbers_are_two(self, capsys, flags):
        # Booleans and numbers written with a fraction or exponent were
        # truncated to integers; 2.9 read as 2 and exited 0.
        for command in ("minimal", "compatible"):
            code, out, err = run(capsys, command, *flags)
            assert (code, out) == (2, "") and "integer counts" in err, (command, err)

    @pytest.mark.parametrize("flags", [
        ("--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":"2"}'),
        ("--hilbert", '{"a":"1","b":"-1","values":{"0":"1","1":2}}'),
    ])
    def test_decimal_string_hilbert_numbers_are_read(self, capsys, flags):
        assert run_json(capsys, "minimal", *flags) == {"columns": [2, 1]}

    @pytest.mark.parametrize("ideal", [
        "1" * 5000 + "*x + y; y^2",            # a coefficient
        "x^" + "1" * 5000 + " + y; y^2",       # an exponent
        "1/" + "1" * 5000 + "*x + y; y^2",     # a denominator
        "1/0*x + y; y^2",
    ])
    def test_unreadable_ideal_numbers_are_one(self, capsys, ideal):
        # Numbers past the interpreter's digit limit escaped as a ValueError
        # traceback, and a zero denominator as ZeroDivisionError.
        for command in ("groebner", "initial"):
            code, out, err = run(capsys, command, "--ideal", ideal)
            assert (code, out) == (1, "") and err.startswith("error: "), (command, err[:200])
            assert err.count("\n") == 1 and len(err) < 200

    def test_computed_numbers_past_the_digit_limit_are_one(self, capsys):
        # An S-pair remainder with a 5,000-digit coefficient escaped as a
        # ValueError traceback when its text was rendered.
        ideal = "3" * 2500 + "*x^2 + y; " + "7" * 2500 + "*x*y + 1"
        start = time.perf_counter()
        code, out, err = run(capsys, "groebner", "--ideal", ideal)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err == "error: coefficient bound 10**4300 exceeded by a numerator or denominator\n"
        assert time.perf_counter() - start < 1

    def test_specialized_numbers_past_the_digit_limit_are_one(self, capsys):
        # Products of 4,000-digit point values escaped as a ValueError
        # traceback when the generators were rendered.
        columns = ("--columns", "3,1,1", "--mode", "general")
        names = run_json(capsys, "chart", *columns)["variables"]
        assert len(names) == 5
        point = json.dumps({name: "3" * 4000 for name in names})
        code, out, err = run(capsys, "specialize", *columns, "--point", point)
        assert (code, out) == (1, "")
        assert err == "error: coefficient bound 10**4300 exceeded by a numerator or denominator\n"

    @pytest.mark.parametrize("value", ['"1e4400"', '"1e999999999"', '"1e-4400"',
                                       '"%se100"' % ("3" * 4250), "1" * 5000])
    def test_unprintable_point_values_are_two(self, capsys, value):
        # "1e4400" parsed, then failed while printing; "1e999999999" would
        # build a billion-digit integer first.
        start = time.perf_counter()
        code, out, err = run(capsys, "specialize", "--columns", "2,1", "--mode", "general",
                             "--point", '{"X[0,2;1,0]":%s}' % value)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert time.perf_counter() - start < 1

    def test_point_values_with_exponents_are_read(self, capsys):
        data = run_json(capsys, "specialize", "--columns", "2,1", "--mode", "general",
                        "--point", '{"X[0,2;1,0]":"1.5e2"}')
        assert data == {"generators": ["+1/1·x^0*y^2 +150/1·x^1*y^0", "+1/1·x^1*y^1",
                                       "+1/1·x^2*y^0"]}

    @pytest.mark.parametrize("argv", [
        ("initial", "--ideal", "x^" + "9" * 40 + "; y"),
        ("groebner", "--ideal", "x^" + "9" * 40 + "; y"),
        ("weight-initial", "--ideal", "x^" + "9" * 40 + "; y", "--vector", "1,0"),
        ("initial", "--ideal", "x^1000000000; y"),
        ("initial", "--ideal", "x^100001; y"),
    ])
    def test_standard_monomials_past_the_layout_bound_are_one(self, capsys, argv):
        # A 40-digit exponent escaped as OverflowError; x^1000000000 needed
        # gigabytes.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "standard monomial bound 100000 exceeded" in err
        assert time.perf_counter() - start < 1

    def test_standard_monomials_at_the_layout_bound_are_laid_out(self, capsys):
        data = run_json(capsys, "initial", "--ideal", "x^100000; y")
        assert data == {"columns": [1] * 100000}

    @pytest.mark.parametrize("argv", [
        ("cells", "--columns", "10000000", "--vector", "(-1,-3)"),
        ("hilbert", "--columns", "100000000", "--a", "1", "--b", "-1"),
        ("hilbert", "--columns", "10000000", "--a", "1", "--b", "-1"),
        ("staircase", "--columns", "9" * 4300 + ",1"),
        ("staircase", "--columns", ",".join(["1"] * (cli.CELLS_BOUND + 1))),
        ("compare", "--columns", "1", "--other", f"{cli.CELLS_BOUND},1", "--a", "1", "--b", "-1"),
    ])
    def test_columns_past_the_cell_bound_are_one(self, capsys, argv):
        # The first two escaped as MemoryError, the third printed 116 MB
        # after about 22 s, and the fourth raised OverflowError from len().
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(
            f"error: cell bound {cli.CELLS_BOUND} exceeded by a staircase ")
        assert err.count("\n") == 1 and time.perf_counter() - start < 1

    def test_columns_at_the_cell_bound_are_laid_out(self, capsys):
        data = run_json(capsys, "clefts", "--columns", str(cli.CELLS_BOUND))
        assert data["clefts"] == [[0, cli.CELLS_BOUND], [1, 0]]
        data = run_json(capsys, "hilbert", "--columns", f"{cli.CELLS_BOUND - 1},1",
                        "--a", "1", "--b", "-1")
        assert sum(data["values"].values()) == cli.CELLS_BOUND

    @pytest.mark.parametrize("bound", ["6", "13"])
    def test_hom_oracle_bound_flag_is_two(self, capsys, bound):
        # --bound N exited 0 up to 12, and 1 above; the oracle has the couple bound alone.
        code, out, err = run(capsys, "hom-oracle", "--columns", "2,1", "--bound", bound)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("tangent", "--columns", STEPS_200),
        ("tangent", "--columns", STEPS_80),
        ("chart", "--columns", STEPS_200, "--mode", "general"),
        ("specialize", "--columns", STEPS_200, "--mode", "general", "--point", "[1,2]"),
        ("verify-flat", "--columns", STEPS_200, "--mode", "general", "--samples", "0"),
        ("hom-oracle", "--columns", STEPS_80),
    ])
    def test_couples_past_the_couple_bound_are_one(self, capsys, argv):
        # Unfiltered tangent on 200,...,1 printed 275 MB after about 33 s, and
        # specialize took 16 s; 80,...,1, 31 % past the bound, about 2 s.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        columns = [int(c) for c in argv[2].split(",")]
        couples = (len(columns) + 1) * sum(columns)
        assert (code, out, err) == (1, "", f"error: couple bound {cli.COUPLES_BOUND} exceeded "
                                           f"by {couples} cleft couples\n")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("columns", [str(cli.CELLS_BOUND),
                                         ",".join([str(cli.CELLS_BOUND // 2)] * 2)])
    def test_two_clefts_within_the_cell_bound_meet_the_couple_bound(self, capsys, monkeypatch,
                                                                    columns):
        # At the bound itself; the basis is stubbed, since printing it takes about 1.5 s.
        monkeypatch.setattr(tangent, "tangent_basis",
                            lambda E, w: argparse.Namespace(to_json=lambda: {"cells": len(E)}))
        assert run_json(capsys, "tangent", "--columns", columns) == {"cells": cli.CELLS_BOUND}

    def test_weights_are_printed_up_to_the_weight_bound(self, capsys):
        a = cli.WEIGHT_BOUND - 1
        data = run_json(capsys, "hilbert", "--columns", "3", "--a", str(a), "--b", "-1")
        assert data["a"] == a and len(data["values"]) == 3
        got = run(capsys, "hilbert", "--columns", "3", "--a", str(a + 1), "--b", "-1")
        assert got == (1, "", "error: weight bound 10**4290 exceeded by an entry of the weight\n")

    def test_minimal_mass_at_its_bound_is_answered(self, capsys):
        E = staircases.construct_staircase([60] * (strata.MINIMAL_BOUND // 60))
        hilbert = staircases.hilbert_function(E, Weight(1, -1)).to_json()
        data = run_json(capsys, "minimal", "--hilbert", json.dumps(hilbert))
        assert sum(data["columns"]) == strata.MINIMAL_BOUND

    def test_non_primitive_weight_payload_is_one(self, capsys):
        code, out, err = run(capsys, "minimal",
                             "--hilbert", '{"a":2,"b":-2,"values":{"0":1}}')
        assert code == 1 and not out and "not primitive" in err

    @pytest.mark.parametrize("argv", [
        ("components", "--length", str(strata.COMPONENT_BOUND + 1), "--a", "1", "--b", "-1"),
        ("run-suite", "components", "--length", str(strata.COMPONENT_BOUND + 1),
         "--a", "1", "--b", "-1"),
        ("poincare", "--length", str(strata.POINCARE_BOUND + 1), "--vector", POINCARE_ABOVE),
        ("compatible", "--a", "1", "--b", "-1", "--hilbert", '{"0":%d}' % (COMPATIBLE_BOUND + 1)),
        ("run-suite", "poincare", "--max-length", str(strata.POINCARE_BOUND + 1),
         "--weights", POINCARE_ABOVE),
        ("run-suite", "verify-all", "--max-length", str(cli.VERIFY_ALL_BOUND + 1)),
        ("hom-oracle", "--columns", STEPS_200),
        # These four escaped as a ValueError traceback: a degree, or the
        # S-profile bound's message, passed the digit limit when printed.
        ("hilbert", "--columns", "3", "--a", NINES, "--b", "-1"),
        ("compare", "--columns", "2", "--other", "1,1", "--a", NINES, "--b", "-1"),
        ("components", "--length", "2", "--a", NINES, "--b", "-1"),
        ("run-suite", "components", "--length", "2", "--a", NINES, "--b", "-1"),
        ("minimal", "--hilbert", '{"a":%s,"b":-1,"values":{"0":1}}' % NINES),
        # One column of mass 8,000 took about 7.5 s, a 3,000 x 3,000 square as long.
        ("minimal", "--a", "1", "--b", "-1", "--hilbert",
         json.dumps({str(d): 1 for d in range(8000)})),
        ("minimal", "--a", "1", "--b", "-1", "--hilbert",
         json.dumps({str(d): min(d + 1, 5999 - d) for d in range(5999)})),
        # The bound's message printed this 4,301-digit mass: a ValueError traceback.
        ("compatible", "--a", "1", "--b", "-1", "--hilbert", '{"0":%s,"1":%s}' % (NINES, NINES)),
    ])
    def test_components_size_bound_is_one(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "bound" in err and err.count("\n") == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ("components", "--length", "0", "--a", "1", "--b", "-1"),
        ("components", "--length", "-1", "--a", "1", "--b", "-1"),
        ("poincare", "--length", "0", "--vector", "(-1,-3)"),
        ("poincare", "--length", "-1", "--vector", "(-1,-3)"),
    ])
    def test_length_below_one_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error: length must be at least 1") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("tangent", "--columns", "2,1", "--max-steps", "5"),
        ("components", "--length", "3", "--a", "1", "--b", "-1", "--max-steps", "5"),
        ("run-suite", "components", "--length", "3", "--a", "1", "--b", "-1",
         "--max-steps", "5"),
    ])
    def test_max_steps_where_unread_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.endswith(" has no flag '--max-steps'\n")

    @pytest.mark.parametrize("argv", [
        ("verify-flat", "--columns", "2,1", "--mode", "general"),
        ("degenerate", "--columns", "1,1", "--a", "1", "--b", "-1"),
        ("descend", "--columns", "1,1", "--a", "1", "--b", "-1"),
        ("groebner", "--ideal", "x^2; y"),
        ("initial", "--ideal", "x^2; y"),
        ("weight-initial", "--ideal", "x^2; y", "--vector", "1,0"),
    ])
    def test_max_steps_where_read_is_accepted(self, capsys, argv):
        run_json(capsys, *argv, "--max-steps", "100000")

    @pytest.mark.parametrize("argv", [
        ("run-suite", "verify-all", "--max-length", "2", "--length", "99", "--weights", "junk",
         "--a", "5", "--b", "7"),
        ("run-suite", "verify-all", "--max-length", "2", "--a", "5"),
        ("run-suite", "components", "--length", "3", "--a", "1", "--b", "-1", "--seed", "3"),
        ("run-suite", "components", "--length", "3", "--a", "1", "--b", "-1",
         "--max-length", "3"),
        ("run-suite", "poincare", "--max-length", "2", "--weights", "(-1,-3)", "--seed", "3"),
        ("run-suite", "poincare", "--max-length", "2", "--weights", "(-1,-3)", "--length", "2"),
    ])
    def test_suite_flag_the_suite_does_not_read_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: hilbcells run-suite ")
        assert " has no flag '--" in err and err.count("\n") == 1

    # The argvs whose exit code the one reader changed, one or two per
    # decision class (see ``agreement``): argv, what the argparse reference
    # does with it ("reads" it, 0 prints help, 2 refuses; None: it depends on
    # the Python version, as 3.13.13 reads "-- tangent --columns 1" as if
    # without "--"), and ``main``'s exit code now.
    @pytest.mark.parametrize("argv, before, after", [
        (("cells", "--columns", "3,1", "--vector", "-1,-3"), 2, 0),  # the --vector help example
        (("poincare", "--length", "3", "--vector", "-1,-3"), 2, 0),
        (("poincare", "--length", "5", "--vector", "-1,-3"), 2, 1),  # not generic at length 5
        (("tangent", "--col", "2,1"), "reads", 2),
        (("tangent", "--columns", "2,1", "--h"), 0, 2),
        (("--", "tangent", "--columns", "1"), None, 2),
        (("tangent", "--zzz", "-h"), 0, 2),
    ])
    def test_decided_divergences_from_argparse(self, capsys, argv, before, after):
        theirs = reference(argv)[0]
        assert before in (None, "reads" if isinstance(theirs, dict) else theirs), theirs
        code, out, err = run(capsys, *argv)
        assert code == after
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert out.count("\n") == 1 and not err

    # One pair of parentheses is read, and only around the whole value, or
    # around each half of a couple.  The refused values exited 0 while every
    # parenthesis anywhere in the value was deleted.
    PAIR_FLAGS = {"--vector": ("cells", "--columns", "3,1"),
                  "--weights": ("run-suite", "poincare", "--max-length", "3"),
                  "--couple": ("degenerate", "--columns", "1,1", "--a", "1", "--b", "-1")}

    @pytest.mark.parametrize("flag, value", [
        ("--vector", "(-1,-3)"), ("--vector", "-1,-3"), ("--vector", " (-1,-3) "),
        ("--weights", "(-1,-3); (-2,-5);"), ("--weights", "-1,-3;(-2,-5)"),
        ("--couple", "0,1;1,0"), ("--couple", "(0,1;1,0)"), ("--couple", "(0,1);(1,0)"),
    ])
    def test_parentheses_around_the_whole_value_read(self, capsys, flag, value):
        run_json(capsys, *self.PAIR_FLAGS[flag], flag, value)

    @pytest.mark.parametrize("flag, value, pair", [
        ("--vector", ")-1,(-3((", ")-1,(-3(("), ("--vector", "(-1,-3", "(-1,-3"),
        ("--vector", "((-1,-3))", "((-1,-3))"), ("--weights", "(-1,-3);((-2,-5))", "((-2,-5))"),
        ("--couple", "((0,1;1,0))", "((0,1"), ("--couple", "(0,1));((1,0)", "(0,1))"),
    ])
    def test_stray_parentheses_are_two(self, capsys, flag, value, pair):
        code, out, err = run(capsys, *self.PAIR_FLAGS[flag], flag, value)
        assert (code, out, err) == (2, "", f"error: cannot parse integer pair {pair!r}\n")

    # Local orders under which x or y sorts below 1 but is not nilpotent
    # modulo the anchor ideal (it contains y^4 - y^3): the flat limit leaves
    # the plane, and the refusal comes before any division under the order.
    @pytest.mark.parametrize("vector, extremum, variable", [
        ("0,1", "min", "y"),
        ("1,1", "min", "x"),
        ("2,-1", "max", "y"),
        ("(-1,-1)", "max", "x"),
    ])
    def test_flat_limit_leaving_the_plane_is_one(self, capsys, vector, extremum, variable):
        start = time.perf_counter()
        code, out, err = run(capsys, "weight-initial", "--ideal", ANCHOR_IDEAL,
                             "--vector", vector, "--extremum", extremum)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and err.count("\n") == 1
        assert err.startswith(f"error: {variable} sorts below 1")

    def test_suites_below_length_one_exit_one(self, capsys):
        # A suite over no length used to report a vacuous "all_ok": true.
        for suite in (("verify-all",), ("poincare", "--weights", "(-1,-3)")):
            for length in ("0", "-2"):
                code, out, err = run(capsys, "run-suite", *suite, "--max-length", length)
                assert (code, out, err) == (1, "", "error: max length must be at least 1\n")


# The CI step's check: exit 0, or exit 1 naming what ``hilbcells.cli`` loaded.
IMPORT_CHECK = ("import sys, hilbcells.cli; sys.exit(sorted("
                "{'dataclasses', 'inspect', 'argparse'} & set(sys.modules)) or None)")


class TestStartUp:
    def test_import_generates_no_records(self):
        # Records are named tuples, so nothing loads dataclasses or inspect,
        # and the command line reads argv without argparse.  pytest imports
        # all three itself, hence the child interpreter.
        done = subprocess.run([sys.executable, "-c", IMPORT_CHECK], capture_output=True,
                              text=True, timeout=120, env=child_env())
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def outcome(capsys, argv):
    """Exit code and stdout of one call."""
    return main(list(argv)), capsys.readouterr().out


class TestRepeatedCalls:
    DESCEND = ("descend", "--columns", "2,2,2", "--a", "1", "--b", "-1", "--policy", "random")

    def test_calls_share_no_state(self, capsys):
        sequence = [
            ("staircase",),                       # refused by the reader, exit 2
            ("staircase", "--columns", "a,b"),    # refused by the handler, exit 2
            self.DESCEND + ("--seed", "3"),
            self.DESCEND,                         # default seed 7
            ("staircase", "--columns", "2,1"),
        ]
        forward = [outcome(capsys, argv) for argv in sequence]
        backward = [outcome(capsys, argv) for argv in reversed(sequence)][::-1]
        assert forward == backward
        assert [code for code, _ in forward] == [2, 2, 0, 0, 0]
        assert forward[2] != forward[3]  # the two seeds give different chains

    def test_each_flag_table_is_built_once(self, capsys):
        cli._command_flags.cache_clear()
        for _ in range(2):
            for argv in (self.DESCEND, ("staircase", "--columns", "2,1"), ("staircase",)):
                outcome(capsys, argv)
        built = cli._command_flags.cache_info()
        assert (built.misses, built.hits) == (2, 4)  # one table per subcommand read

class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        argv = ["verify-flat", "--columns", "2,1", "--mode", "general",
                "--samples", "3", "--seed", "13"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_round_trip_of_emitted_json(self, capsys):
        data = run_json(capsys, "chart", "--columns", "2,1", "--mode", "general")
        for text in data["generators"]:
            assert read_back(text).to_text() == text


def seeded_ideal(rng) -> str:
    """One or two polynomials of up to four terms of degree at most 3 in each
    variable, with x^N and y^N for some N <= 5: the ideal is zero-dimensional,
    and each variable nilpotent under a local order."""
    def poly():
        terms = rng.sample([(a, b) for a in range(4) for b in range(4)], rng.randint(1, 4))
        return "".join("%+d*x^%d*y^%d" % (rng.choice((-2, -1, 1, 2, 3)), a, b)
                       for a, b in terms)
    n = rng.randint(1, 5)
    return "; ".join([poly() for _ in range(rng.randint(1, 2))] + [f"x^{n}", f"y^{n}"])


def check_weight_initial_staircases(count, seed):
    """``weight-initial``'s staircase against ``initial_staircase`` of its limit.

    The command reads the staircase off the initial parts of the basis under
    the weight order, whose ties ``LEX_YX`` breaks; the reference completes
    the limit under ``LEX_YX`` once more.  Runs ``count`` seeded ideals of
    ``seeded_ideal`` at vectors with entries from -3 to 3, under ``"max"``
    and ``"min"``, with ``--max-steps`` 1000; were the limit to run out of
    steps, the command must exit 1 with the library's message.  Returns the
    number of ideals answered and how many of them under a local order.
    CI runs it beyond the Tier-1 count.
    """
    rng = random.Random(seed)
    answered = local = 0
    for _ in range(count):
        text, vector = seeded_ideal(rng), (rng.randint(-3, 3), rng.randint(-3, 3))
        extremum = rng.choice(("max", "min"))
        argv = ("weight-initial", "--ideal", text, "--vector", "(%d,%d)" % vector,
                "--extremum", extremum, "--max-steps", "1000")
        code, out, err = captured(main, argv)
        try:
            limit = weight_initial_ideal(parse_ideal(text), vector, extremum, step_limit=1000)
        except StepLimitExceeded as exc:
            assert (code, out, err) == (1, "", f"error: {exc}\n"), argv
            continue
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["staircase"] == initial_staircase(limit, LEX_YX).to_json(), argv
        answered += 1
        local += not weight_order(vector, extremum).is_global
    return answered, local


class TestWeightInitialStaircase:
    def test_equals_the_completed_limit_on_seeded_ideals(self):
        answered, local = check_weight_initial_staircases(60, 1)
        assert answered == 60 and local >= 25


def fglm_staircase(text, vector, extremum):
    """Standard monomials of an ideal holding x^5 and y^5 under a weight order, by FGLM.

    sympy's grevlex normal forms span the quotient.  Walking the 5 x 5 box
    upwards in the order, a monomial is standard exactly when its normal
    form is independent of those of the monomials below it; the monomials
    past the box lie in the ideal and have normal form zero.  The order's
    key is written here: extremal weight, then the y- and x-exponents.
    """
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    basis = sympy.groebner([sympy.sympify(chunk.replace("^", "**"))
                            for chunk in text.split(";")], x, y, order="grevlex")
    p, q = vector if extremum == "max" else (-vector[0], -vector[1])
    box = sorted(((a, b) for a in range(5) for b in range(5)),
                 key=lambda m: (p * m[0] + q * m[1], m[1], m[0]))
    rows, standard = [], set()  # rows: (pivot, normal form) in echelon form
    for a, b in box:
        row = {m: v for m, v in sympy.Poly(basis.reduce(x**a * y**b)[1], x, y).terms() if v}
        for pivot, other in rows:
            c = row.get(pivot, 0)
            for m, v in other.items():
                row[m] = row.get(m, 0) - c * v
            row = {m: v for m, v in row.items() if v}
        if row:
            pivot = next(iter(row))
            rows.append((pivot, {m: v / row[pivot] for m, v in row.items()}))
            standard.add((a, b))
    return standard


def check_local_orders(count, seed):
    """``initial_staircase``, ``weight-initial`` and ``is_groebner`` under local orders, by FGLM.

    Runs ``count`` seeded ideals of ``seeded_ideal``, each at a vector with
    entries from -3 to 3 and an extremum, drawn until x or y sorts below 1,
    under the default step limit.  The generators form a standard basis
    exactly when the box monomials outside the ideal their leading
    monomials generate, under the key of ``fglm_staircase``, are the
    standard ones.  Returns the number of cases by extremum and by that
    answer.  CI runs it beyond the Tier-1 count.
    """
    rng = random.Random(seed)
    cases = Counter()
    for _ in range(count):
        text = seeded_ideal(rng)
        vector, extremum = (0, 0), "max"
        while min(vector) >= 0 if extremum == "max" else max(vector) <= 0:
            vector = (rng.randint(-3, 3), rng.randint(-3, 3))
            extremum = rng.choice(("max", "min"))
        expected = fglm_staircase(text, vector, extremum)
        gens, order = parse_ideal(text), weight_order(vector, extremum)
        E = initial_staircase(gens, order)
        assert {(a, b) for a, h in enumerate(E.columns) for b in range(h)} == expected, \
            (text, vector, extremum)
        argv = ("weight-initial", "--ideal", text, "--vector", "(%d,%d)" % vector,
                "--extremum", extremum)
        code, out, err = captured(main, argv)
        assert (code, err) == (0, "") and json.loads(out)["staircase"] == E.to_json(), argv
        p, q = vector if extremum == "max" else (-vector[0], -vector[1])
        leads = [max(g.terms, key=lambda m: (p * m.alpha + q * m.beta, m.beta, m.alpha))
                 for g in gens]
        basis = expected == {(a, b) for a in range(5) for b in range(5)
                             if not any(u <= a and v <= b for u, v in leads)}
        assert is_groebner(gens, order) is basis, (text, vector, extremum)
        cases[extremum] += 1
        cases["basis" if basis else "not a basis"] += 1
    return dict(cases)


class TestLocalOrders:
    def test_initial_staircases_equal_the_fglm_oracle(self):
        cases = check_local_orders(40, 1)
        assert len(cases) == 4
        assert cases["max"] + cases["min"] == 40 == cases["basis"] + cases["not a basis"]


# One argv per subcommand and per run-suite suite, with valid flags.
VALID_ARGVS = [
    ("staircase", "--columns", "2,1"),
    ("clefts", "--columns", "3,1"),
    ("hilbert", "--columns", "2,1", "--a", "1", "--b", "-1"),
    ("compatible", "--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2}'),
    ("compare", "--columns", "2,1", "--other", "1,1,1", "--a", "1", "--b", "-1"),
    ("tangent", "--columns", "2,1", "--a", "1", "--b", "-1"),
    ("graph", "--columns", "2,1", "--a", "2", "--b", "-1"),
    ("hom-oracle", "--columns", "2,1"),
    ("cells", "--columns", "2,1", "--vector", "(-1,-4)"),
    ("chart", "--columns", "2,1", "--mode", "invariant", "--a", "1", "--b", "-1"),
    ("specialize", "--columns", "2,1", "--mode", "general", "--point", "{}"),
    ("verify-flat", "--columns", "2,1", "--mode", "general", "--samples", "2", "--seed", "3",
     "--max-steps", "1000"),
    ("degenerate", "--columns", "1,1", "--a", "1", "--b", "-1", "--couple", "0,1;1,0"),
    ("descend", "--columns", "2,2", "--a", "1", "--b", "-1", "--policy", "random",
     "--seed", "3"),
    ("minimal", "--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2}'),
    ("components", "--length", "3", "--a", "1", "--b", "-1"),
    ("poincare", "--length", "3", "--vector", "(-1,-4)"),
    ("groebner", "--order", "grlex_xy", "--ideal", ANCHOR_IDEAL, "--max-steps", "500"),
    ("initial", "--order", "cell", "--a", "1", "--b", "-1", "--ideal", "x^2; y"),
    ("weight-initial", "--ideal", "x^2; y", "--vector", "(-1,2)", "--extremum", "min"),
    ("run-suite", "verify-all", "--max-length", "2", "--seed", "3"),
    ("run-suite", "components", "--length", "3", "--a", "1", "--b", "-1"),
    ("run-suite", "poincare", "--max-length", "3", "--weights", "(-1,-4)"),
]

EDGE_ARGVS = [
    (), ("-h",), ("--help",), ("nope",), ("tan",), ("TANGENT",), ("--zzz",), ("-h", "tangent"),
    ("--", "tangent", "--columns", "1"),
    ("tangent",), ("tangent", "-h"), ("tangent", "--columns", "1", "1"),
    ("tangent", "--columns", "2,1", "extra"), ("tangent", "--columns", "2,1", "--zzz"),
    ("tangent", "--", "--columns", "1"), ("tangent", "--columns=2,1"),
    ("tangent", "--col", "2,1"), ("tangent", "--columns", "2,1", "--h"),
    ("tangent", "--columns", "2,1", "--a", "1", "--b", "-1"),
    ("tangent", "--columns", "2,1", "--a=1", "--b=-1"),
    ("cells", "--columns", "1", "--vector", "-1,-2"),
    ("cells", "--columns", "1", "--vector=-1,-2"),
    ("staircase", "-h", "--columns", "1"), ("hom-oracle", "--columns", "1", "--bound", "x"),
    ("weight-initial", "--ideal", "x", "--vector", "1,0", "--extremum", "mid"),
    ("run-suite",), ("run-suite", "nope"), ("run-suite", "--max-length", "4", "verify-all"),
    ("run-suite", "components", "-h"), ("run-suite", "verify-all", "extra", "--zzz"),
    ("groebner", "--ideal", "-x^2 + y; y^2"), ("tangent", "--columns", "2,1", "--b", "-1.5"),
    ("cells", "--columns", "1", "--vector", "-1"),
    ("tangent", "--columns", "1", "--a", "2", "--columns", "2,1"),
    ("hom-oracle", "--columns", "1", "--bound", "-3"),
    ("hom-oracle", "--columns", "2,1", "--bound", "6"),  # the flag is gone: refused by both
]


def captured(call, argv):
    """What one call returns, or its exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:  # the argparse reference exits itself
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestSubcommandParse:
    """The reader reads each valid argv as the reference does, and edge argvs
    as the reference does or as one of its recorded decisions says."""

    def test_corpus_names_every_subcommand_and_suite(self):
        named = {argv[:2] if argv[0] == "run-suite" else argv[:1] for argv in VALID_ARGVS}
        assert named == {prefix for prefix, _ in subcommand_parsers()}

    @pytest.mark.parametrize("argv", VALID_ARGVS + EDGE_ARGVS, ids=" ".join)
    def test_parse_equals_the_full_tree(self, argv):
        decision = agreement(argv)
        if argv in VALID_ARGVS:
            assert decision == "agree" and read(argv)["command"] == argv[0]

    def test_well_formed_argv_skips_argparse(self, monkeypatch):
        # The command line imports no argparse: every valid argv, run-suite
        # included, reads with argparse's parsing switched off.
        def refuse(self, *args, **kwargs):
            raise AssertionError("argparse parsed the argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert "argparse" not in vars(cli)
        for argv in VALID_ARGVS:
            assert vars(cli._parse_args(list(argv)))["command"] == argv[0]


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def pair(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda v: "(%d,%d)" % v)


def mostly(valid, *malformed):
    """A valid value three times in four, otherwise one of the malformed texts."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: valid if ok else st.sampled_from(malformed))


# Flag values by destination: small sizes, and malformed text for each.
FLAG_VALUES = {
    "columns": mostly(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda hs: ",".join(map(str, sorted(hs, reverse=True)))),
        "", "x", "1,2", "0", "2,,1", "-1"),
    "a": mostly(ints(-3, 3), "x"),
    "b": mostly(ints(-3, -1), "1", "0", "1.5"),
    "hilbert": mostly(
        st.one_of(
            st.sampled_from(('{"0":1,"1":2}', '{"0":1,"1":2,"2":1}', '{"0":1,"1":1,"2":1}',
                             '{"0":1,"1":2,"2":2,"3":1}', '{"0":1,"2":1,"3":1}',
                             '{"a":1,"b":-1,"values":{"0":1,"1":2}}')),
            st.dictionaries(ints(-3, 6), st.integers(-1, 4), max_size=4).map(json.dumps)),
        "{x", "[]", '{"0":[1]}', '{"a":1,"b":-1,"values":{"0":"x"}}'),
    "vector": mostly(pair(-2, 2), "1", "x,y", "1,2,3", "-1,-3"),
    "mode": st.sampled_from(("invariant", "general", "sideways")),
    "point": st.sampled_from(("{}", '{"X[0,1;1,0]":"1"}', '{"X[0,2;1,0]":"1/2"}', "[1,2]",
                              "{x", '{"bad":1}', '{"X[9,9;9,9]":"1"}')),
    "seed": ints(-5, 1000),
    "max_steps": mostly(st.one_of(ints(0, 40), ints(1000, 5000)), "-1", "x"),
    "samples": ints(-1, 2),
    "couple": mostly(st.tuples(*[st.integers(0, 3)] * 4).map(lambda v: "%d,%d;%d,%d" % v),
                     "0,1", "x;y", ""),
    "policy": st.sampled_from(("first", "last", "random", "best")),
    "length": ints(-1, 5),
    "max_length": ints(-1, 3),
    "order": st.sampled_from(("lex_xy", "lex_yx", "grlex_xy", "cell", "revlex")),
    "ideal": mostly(
        st.sampled_from((ANCHOR_IDEAL, "x^2; y", "x*y; x^2; y^2", "y+x^2; x^3", "x^2+y; y^2",
                         "x^2-y^2; x*y", "x^3-y; y^2+x*y", "y")),
        "x+1", "", "x^(2)", "0"),
    "extremum": st.sampled_from(("max", "min", "mid")),
    "weights": st.lists(pair(-3, 1), max_size=3).map(";".join),
}
FLAG_VALUES["other"] = FLAG_VALUES["columns"]


def _add_rows(parser, dest, rows):
    """Give ``parser`` a sub-parser per ``cli._COMMANDS`` row: its flags, or its own rows."""
    choices = parser.add_subparsers(dest=dest, required=True)
    for name, (text, keys, handler) in rows.items():
        sub = choices.add_parser(name, help=text)
        if handler is None:
            _add_rows(sub, "suite", keys)
            continue
        for option, kwargs in (cli._FLAGS[key] for key in keys.split()):
            sub.add_argument(option, **kwargs)
        sub.set_defaults(handler=handler)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``cli._COMMANDS`` and ``cli._FLAGS``: the reader's reference."""
    parser = argparse.ArgumentParser(prog="hilbcells")
    _add_rows(parser, "command", cli._COMMANDS)
    return parser


REFERENCE = reference_parser()


def subcommand_parsers():
    """(argv prefix, parser) of every subcommand and run-suite suite of the reference."""
    (commands,) = (a.choices for a in REFERENCE._actions if a.dest == "command")
    out = []
    for name, sub in commands.items():
        suites = [a.choices for a in sub._actions if a.dest == "suite"]
        if suites:
            out += [((name, suite), parser) for suite, parser in suites[0].items()]
        else:
            out.append(((name,), sub))
    return out


# The option strings of every subcommand and suite, by argv prefix.
OPTIONS = {prefix: {a.option_strings[0] for a in parser._actions
                    if a.option_strings and a.dest != "help"}
           for prefix, parser in subcommand_parsers()}


@st.composite
def any_argv(draw, prefix, parser):
    """The subcommand with each of its flags present or not, in any order.

    ``-h`` is not drawn: help exits 0 with text, not a JSON document.
    """
    flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    argv = list(prefix)
    for action in draw(st.permutations(flags)):
        if draw(st.sampled_from((True,) * 7 + (False,))):
            argv += [action.option_strings[0], draw(FLAG_VALUES[action.dest])]
    junk = draw(st.sampled_from((None,) * 9 + ("extra", "--zzz", "--columns")))
    return argv + ([junk] if junk else [])


# Values that argparse reads in different ways: negative numbers, other
# leading dashes, spaces, "=", the empty word, and words that some flag's
# type or choices refuse.
TRICKY_VALUES = ("1", "2,1", "0", "-1", "-3", "-1.5", "-.5", "-1e3", "- 1", "-x^2 + y", "-1,-2",
                 "(-1,-3)", "--", "-", "=", "", " 3", "1_0", "x", "max", "min", "general",
                 "{}", "x^2; y", "-h", "--columns")
# Words out of place: help, the end of options, unknown and abbreviated flags.
STRAY_WORDS = ("-h", "--help", "--", "--zzz", "extra", "-", "--col", "--columns=2,1", "--a=-1",
               "--max", "--length", "verify-all", "--h", "--col=1", "--max=9")


def random_argv(rng, prefix, parser):
    """The prefix and its flags in random order, each present or not, valued
    with a small integer or a ``TRICKY_VALUES`` word; sometimes one or two
    stray words are inserted or the last word dropped."""
    flags = [a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"]
    rng.shuffle(flags)
    argv = []
    for flag in flags:
        if rng.random() < 0.8:
            value = str(rng.randint(-3, 12)) if rng.random() < 0.7 else rng.choice(TRICKY_VALUES)
            argv += [flag, value]
    for _ in range(2):
        if rng.random() < 0.15:
            argv.insert(rng.randint(0, len(argv)), rng.choice(STRAY_WORDS))
    if argv and rng.random() < 0.1:
        argv.pop()
    return list(prefix) + argv


def read(argv):
    """What the reader makes of argv: its namespace as a dict, 0 for help, or 2 if refused."""
    try:
        args = cli._parse_args(list(argv))
    except cli.MalformedInput:
        return 2
    return 0 if isinstance(args, str) else vars(args)


def reference(argv):
    """What the argparse reference makes of argv: its namespace as a dict, or its exit code,
    with its stdout and stderr."""
    return captured(lambda a: vars(REFERENCE.parse_args(a)), argv)


def subcommand_prefix(argv) -> tuple:
    """The words of argv that name its subcommand or suite; () if none does."""
    return next((p for p in OPTIONS if tuple(argv[:len(p)]) == p), ())


def joined(argv):
    """argv with each option string of its subcommand joined by "=" to the next word.

    That is how the reader pairs a flag with its value, and how argparse
    takes any next word, one starting with "-" too, as the value.
    """
    prefix = subcommand_prefix(argv)
    words, out = list(argv[len(prefix):]), list(prefix)
    while words:
        word = words.pop(0)
        out.append(f"{word}={words.pop(0)}" if word in OPTIONS.get(prefix, ()) and words else word)
    return out


def agreement(argv) -> str:
    """Compare the reader with the argparse reference on argv, outcome by outcome.

    An accepted argv is compared by its namespace, help by exit code 0, a
    refused argv by exit code 2 alone.  Where the two differ, the argv must
    lie in a decision class recorded in ``cli``'s docstring, and the reader
    must give that class's decided result:

    - "dash value": a flag's value starts with "-"; the reader reads it as
      argparse reads the argv with every flag joined to its value by "=";
    - "abbreviation": a flag argparse reads as an abbreviation (``--col``,
      ``--h`` for ``--help``); the reader refuses;
    - "bare --": the reader refuses the word "--";
    - "help after a refused word": argparse defers an unknown word and
      prints help for a later ``-h``; the reader refuses at the first.

    Returns "agree" or the class.
    """
    mine, theirs = read(argv), reference(argv)[0]
    if mine == theirs:
        return "agree"
    words = joined(argv)
    decided = reference(words)[0]
    if isinstance(decided, dict):  # argparse before 3.13 reads "--flag=--" as an empty list
        decided = {dest: "--" if value == [] else value for dest, value in decided.items()}
    if mine == decided:
        assert any(w.partition("=")[2][:1] == "-" for w in words if w not in argv), argv
        return "dash value"
    assert mine == 2, argv
    prefix = subcommand_prefix(argv)
    options = OPTIONS.get(prefix, set()) | {"--help"}
    for word in words[len(prefix):]:
        head = word.partition("=")[0]
        if head[2:] and head.startswith("--") and head not in options and any(
                option.startswith(head) for option in options):
            return "abbreviation"
    if "--" in words:
        return "bare --"
    assert theirs == 0 and {"-h", "--help"} & set(words), argv
    return "help after a refused word"


# One fixed argv of each decision class that ``check_parse_agreement`` must
# meet.  The seeded draws read the flag tables, so a class met only by
# chance comes and goes with any flag added or removed.
DECIDED_ARGVS = {
    "dash value": ("groebner", "--ideal", "-x^2+y;y^2"),
    "abbreviation": ("tangent", "--col", "2,1"),
    "help after a refused word": ("tangent", "--columns", "1", "extra", "-h"),
}


def check_parse_agreement(count, seed):
    """The reader against the argparse reference on seeded argvs.

    Checks each of the ``DECIDED_ARGVS`` with ``agreement``, which must
    give its class, then the same argvs and ``count`` argvs drawn with
    ``random_argv`` over every subcommand and run-suite suite, and a few
    with no subcommand.  Every argv the reader refuses must also exit 2 from
    ``main`` with an empty stdout and one ``error:`` line, and every help
    argv exit 0 with the help on stdout alone; neither runs a handler,
    since the reader answers first.  Standard library only.  Returns a
    ``Counter`` of the ``agreement`` classes.  CI runs it beyond the
    Tier-1 count.
    """
    rng = random.Random(seed)
    prefixes = subcommand_parsers()
    prefixes += [((), REFERENCE), (("run-suite",), REFERENCE), (("nope",), REFERENCE)]
    classes = Counter()
    for decided, argv in DECIDED_ARGVS.items():
        assert agreement(argv) == decided, argv
    for argv in [*DECIDED_ARGVS.values(),
                 *(random_argv(rng, *rng.choice(prefixes)) for _ in range(count))]:
        classes[agreement(argv)] += 1
        outcome = read(argv)
        if outcome == 2:
            code, out, err = captured(main, argv)
            assert (code, out) == (2, "") and err.startswith("error: "), argv
            assert err.count("\n") == 1 and err.endswith("\n"), argv
        elif outcome == 0:
            code, out, err = captured(main, argv)
            assert (code, err) == (0, "") and out.startswith("usage: hilbcells"), argv
    return classes


class TestParseAgreement:
    """The reader equals the argparse reference on generated argvs, or differs
    only in a recorded decision class."""

    @pytest.mark.parametrize("prefix, parser", subcommand_parsers(),
                             ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_argv_parses_as_the_full_tree(self, prefix, parser, data):
        agreement(data.draw(any_argv(prefix, parser)))

    def test_seeded_argvs_agree(self):
        classes = check_parse_agreement(2000, 17)
        assert classes["agree"] > 0.9 * 2000
        # "bare --" is refused by argparse too, before Python 3.13.13, on these argvs.
        assert {"agree", "dash value", "abbreviation", "help after a refused word"} <= set(
            classes) <= {"agree", "dash value", "abbreviation", "bare --",
                         "help after a refused word"}, classes


# (argv before the size, size flag, bound); sizes above the bound exit 1.
BOUNDED = [
    (("components", "--a", "1", "--b", "-1"), "--length", strata.COMPONENT_BOUND),
    (("run-suite", "components", "--a", "2", "--b", "-1"), "--length", strata.COMPONENT_BOUND),
    (("poincare", "--vector", "(-1,-3)"), "--length", strata.POINCARE_BOUND),
    (("run-suite", "poincare", "--weights", "(-1,-3)"), "--max-length",
     strata.POINCARE_BOUND),
    (("run-suite", "verify-all"), "--max-length", cli.VERIFY_ALL_BOUND),
    (("verify-flat", "--columns", "2,1", "--mode", "general"), "--samples",
     cli.SAMPLES_BOUND),
    (("compare", "--columns", "2,1", "--a", "1", "--b", "-1"), "--other", cli.CELLS_BOUND),
] + [(prefix, "--columns", cli.CELLS_BOUND) for prefix in (  # every reader of --columns
    ("staircase",), ("clefts",), ("hilbert", "--a", "1", "--b", "-1"),
    ("compare", "--other", "1", "--a", "1", "--b", "-1"), ("tangent",),
    ("graph", "--a", "1", "--b", "-1"), ("hom-oracle",), ("cells", "--vector", "(-1,-3)"),
    ("chart", "--mode", "general"), ("specialize", "--mode", "general"),
    ("verify-flat", "--mode", "general"), ("degenerate", "--a", "1", "--b", "-1"),
    ("descend", "--a", "1", "--b", "-1"),
)] + [(prefix + other, flag, cli.WEIGHT_BOUND)  # every reader of --a and --b, either flag
      for prefix in (
    ("hilbert", "--columns", "2,1"), ("compare", "--columns", "2,1", "--other", "1,1,1"),
    ("tangent", "--columns", "2,1"), ("graph", "--columns", "2,1"),
    ("chart", "--columns", "2,1", "--mode", "invariant"),
    ("specialize", "--columns", "2,1", "--mode", "invariant"),
    ("verify-flat", "--columns", "2,1", "--mode", "invariant"),
    ("degenerate", "--columns", "2,1"), ("descend", "--columns", "2,1"),
    ("components", "--length", "3"), ("run-suite", "components", "--length", "3"),
    ("minimal", "--hilbert", '{"0":1,"1":2}'), ("compatible", "--hilbert", '{"0":1,"1":2}'),
    ("groebner", "--order", "cell", "--ideal", "x; y"),
    ("initial", "--order", "cell", "--ideal", "x; y"),
) for flag, other in (("--a", ("--b", "-1")), ("--b", ("--a", "1")))]


# The subcommands that can reach an S-profile at a weight, each with small sizes.
WEIGHTED = (
    ("compare", "--columns", "2,1", "--other", "1,1,1"),
    ("components", "--length", "3"),
    ("degenerate", "--columns", "3,2,1"),
    ("descend", "--columns", "3,2,1"),
)
LARGE = st.integers(10**6, 10**9)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


@functools.lru_cache(maxsize=None)
def chart_variables(argv):
    """The chart variable names that ``chart`` prints for a family argv."""
    return tuple(json.loads(captured(main, ("chart",) + argv)[1])["variables"])


def digit_strings():
    """1 to 4,300 digits: a drawn pattern repeated, so long strings are common.

    One length in four lies at the weight bound or the digit limit.
    """
    lengths = st.one_of(st.integers(1, 4300), st.integers(1, 4300), st.integers(1, 4300),
                        st.sampled_from((4300, 4299, 4291, 4290)))
    return st.tuples(lengths, st.text("9876543210", min_size=1, max_size=6)).map(
        lambda v: (v[1] * v[0])[:v[0]])


def spellings(name):
    """The spellings of a chart variable that the couple grammar reads: as
    printed, parenthesized by pair or whole, and with blanks around the entries."""
    cx, cy, mx, my = re.fullmatch(r"X\[(-?\d+),(-?\d+);(-?\d+),(-?\d+)\]", name).groups()
    return (name, f"X[({cx},{cy});({mx},{my})]", f"X[({cx},{cy};{mx},{my})]",
            f"X[ {cx} , {cy} ; {mx} , {my} ]")


@st.composite
def point_argvs(draw):
    """A ``specialize`` argv on at most 6 cells, its point valued with long or odd numbers.

    Values are integers and fractions of 1 to 4,300 digits, and decimals
    with exponents up to ``cli.POINT_EXPONENT_BOUND`` either way.  Each
    variable is named in one of its ``spellings``.
    """
    E = draw(st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_staircases(n))))
    family = ("--columns", ",".join(map(str, E.columns))) + draw(st.sampled_from(
        [("--mode", "general"), ("--mode", "invariant", "--a", "1", "--b", "-1")]))
    sign, digits = st.sampled_from(["", "-"]), digit_strings()
    bound = cli.POINT_EXPONENT_BOUND
    value = st.one_of(
        st.tuples(sign, digits).map("".join),
        st.tuples(sign, digits, digits).map("{0[0]}{0[1]}/{0[2]}".format),
        st.tuples(sign, digits, digits, st.integers(-bound, bound)).map(
            "{0[0]}{0[1]}.{0[2]}e{0[3]}".format),
    )
    names = chart_variables(family)
    point = draw(st.dictionaries(st.sampled_from(names), value)) if names else {}
    point = {draw(st.sampled_from(spellings(name))): v for name, v in point.items()}
    return ("specialize",) + family + ("--point", json.dumps(point))


@st.composite
def weight_argvs(draw):
    """An argv of a subcommand that reads a weight, on at most 6 cells, with long or odd entries.

    Each entry is 1 to 4,300 digits or 1 to 3, of either sign; b is -1 in
    half the draws, so that a pair is often a direction.  ``minimal`` and
    ``compatible`` read the entries as ``--hilbert``'s "a" and "b", JSON
    numbers or strings, the others as ``--a`` and ``--b``.
    """
    staircase = st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_staircases(n)))
    E, F = draw(staircase), draw(staircase)
    entry = st.tuples(st.sampled_from(["", "-"]), digit_strings() | st.sampled_from("123"))
    a, b = draw(entry.map("".join)), draw(entry.map("".join) | st.just("-1"))
    name = draw(st.sampled_from((
        "hilbert", "compare", "tangent", "graph", "chart", "specialize", "verify-flat",
        "degenerate", "descend", "components", "run-suite", "minimal", "compatible")))
    if name in ("minimal", "compatible"):
        number = draw(st.booleans())
        values = {str(d): c for d, c in staircases.hilbert_function(E, Weight(1, -1)).values}
        hilbert = {"a": int(a) if number else a, "b": int(b) if number else b, "values": values}
        return (name, "--hilbert", json.dumps(hilbert))
    argv = (name, "--a", a, "--b", b)
    if name == "run-suite":
        return argv[:1] + ("components", "--length", str(len(E))) + argv[1:]
    if name == "components":
        return argv + ("--length", str(len(E)))
    argv += ("--columns", ",".join(map(str, E.columns)))
    if name == "compare":
        return argv + ("--other", ",".join(map(str, F.columns)))
    if name in ("chart", "specialize", "verify-flat"):
        return argv + ("--mode", "invariant")
    return argv


@st.composite
def vector_argvs(draw):
    """An argv that reads integer pairs, with long or odd entries.

    ``cells``, ``poincare`` and ``weight-initial`` read one pair from
    ``--vector``; ``run-suite poincare`` reads 0 to 3 pairs from
    ``--weights``, among empty and blank chunks.  Each entry is 1 to 4,300
    digits or 0 to 3, of either sign; a pair whose text would start with a
    dash is written in parentheses.  Lengths stay at most 6, and at most 4
    for the suite.
    """
    entry = st.tuples(st.sampled_from(["", "-"]), digit_strings() | st.sampled_from("0123"))
    pair = st.tuples(entry.map("".join), entry.map("".join), st.booleans()).map(
        lambda v: f"({v[0]},{v[1]})" if v[2] or v[0].startswith("-") else f"{v[0]},{v[1]}")
    name = draw(st.sampled_from(("cells", "poincare", "weight-initial", "run-suite")))
    if name == "run-suite":
        chunks = draw(st.lists(pair, max_size=3)) + draw(st.lists(st.sampled_from(("", " "))))
        weights = ";".join(draw(st.permutations(chunks)))
        return ("run-suite", "poincare", "--max-length", str(draw(st.integers(1, 4))),
                "--weights", weights)
    argv = (name, "--vector", draw(pair))
    if name == "cells":
        E = draw(st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_staircases(n))))
        return argv + ("--columns", ",".join(map(str, E.columns)))
    if name == "poincare":
        return argv + ("--length", str(draw(st.integers(1, 6))))
    return argv + ("--ideal", draw(st.sampled_from((ANCHOR_IDEAL, "x^2; y", "y+x; x^2"))),
                   "--extremum", draw(st.sampled_from(("max", "min"))))


@st.composite
def couple_argvs(draw):
    """A ``degenerate`` argv on at most 6 cells whose ``--couple`` value is long or odd.

    The direction is one of four.  Half the draws take the four entries of
    a couple of that direction, so that some argvs succeed; the others draw
    each entry as 1 to 4,300 digits or 0 to 3, of either sign.  The
    separators are ',' and ';' three times in four, otherwise a wrong one;
    a value whose text would start with a dash is written in parentheses.
    """
    E = draw(st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_staircases(n))))
    a, b = draw(st.sampled_from(((1, -1), (2, -1), (1, -2), (3, -2))))
    entry = st.tuples(st.sampled_from(["", "-"]), digit_strings() | st.sampled_from("0123")).map(
        "".join)
    couples = tangent.cleft_couples(E, Weight(a, b))
    if couples and draw(st.booleans()):
        (cx, cy), (mx, my) = draw(st.sampled_from(couples))
        entries = map(str, (cx, cy, mx, my))
    else:
        entries = (draw(entry) for _ in range(4))
    comma, semicolon = mostly(st.just(","), ";", " ", ",,", ""), mostly(st.just(";"), ",", ";;", "")
    cx, cy, mx, my = entries
    value = cx + draw(comma) + cy + draw(semicolon) + mx + draw(comma) + my
    if value.startswith("-") or draw(st.booleans()):
        value = f"({value})"
    return ("degenerate", "--columns", ",".join(map(str, E.columns)),
            "--a", str(a), "--b", str(b), "--couple", value)


@st.composite
def hilbert_argvs(draw):
    """A ``minimal`` or ``compatible`` argv whose ``--hilbert`` document is long, odd or deep.

    The document is the Hilbert function at (1,-1) of a staircase on at
    most 6 cells, in the full {"a", "b", "values"} form or the compact form
    of degrees to counts.  Up to three entries are then set or added: a
    degree that is small, of 1 to 4,300 digits, or negative, with a count
    that is an integer of 1 to 4,300 digits (a JSON number or string), a
    float, a boolean, null or any of these nested up to past the
    recursion limit.  "a" and "b" are drawn the same way, and the whole
    document may be nested too.  ``--a`` and ``--b`` are absent, (1,-1), or
    entries of 1 to 4,300 digits that may disagree with the document.
    """
    E = draw(st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_staircases(n))))
    entries = {str(d): str(c)
               for d, c in staircases.hilbert_function(E, Weight(1, -1)).values}
    integer = st.tuples(st.sampled_from(["", "-"]), digit_strings() | st.sampled_from("0123")).map(
        "".join)
    scalar = st.one_of(integer, integer.map(json.dumps), st.sampled_from("0123"),
                       st.floats().map(json.dumps), st.booleans().map(json.dumps), st.just("null"))
    depth = st.integers(1, 1100) | st.sampled_from((990, 1000, 100_000))
    value = st.one_of(scalar, scalar, st.tuples(depth, scalar, st.booleans()).map(
        lambda v: nested(*v)))
    degree = st.sampled_from(sorted(entries)) | st.integers(-3, 9).map(str) | integer
    entries.update(draw(st.lists(st.tuples(degree, value), max_size=3)))
    document = "{%s}" % ",".join(f"{json.dumps(k)}:{v}" for k, v in entries.items())
    if draw(st.booleans()):
        a, b = draw(st.just("1") | value), draw(st.just("-1") | value)
        document = '{"a":%s,"b":%s,"values":%s}' % (a, b, document)
    if draw(st.booleans()) and draw(st.booleans()):
        document = nested(draw(depth), document, draw(st.booleans()))
    name = draw(st.sampled_from(("minimal", "compatible")))
    flags = draw(st.sampled_from(((), ("--a", "1", "--b", "-1"), None)))
    if flags is None:
        flags = ("--a", draw(integer), "--b", draw(integer | st.just("-1")))
    return (name,) + flags + ("--hilbert", document)


def cli_contract(argv) -> int:
    """The exit code of ``argv``, which must exit 0, 1 or 2 within 2 s.

    On 0 it prints one JSON document and nothing on stderr; otherwise one
    ``error:`` line and nothing on stdout.
    """
    start = time.perf_counter()
    code, out, err = captured(main, argv)
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    if code == 0:
        assert out.count("\n") == 1 and not err, argv
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    return code


def contract_exits(argvs, count) -> tuple[int, int, int]:
    """Run ``cli_contract`` on ``count`` argvs drawn from the strategy ``argvs``.

    The draw is derandomized, so a run repeats under one Hypothesis version.
    Returns how many argvs exited 0, 1 and 2.
    """
    exits = [0, 0, 0]

    @settings(max_examples=count, deadline=None, derandomize=True, database=None)
    @given(argv=argvs)
    def contract(argv):
        exits[cli_contract(argv)] += 1

    contract()
    return tuple(exits)


def check_point_values(count) -> tuple[int, int, int]:
    """``contract_exits`` over ``point_argvs``; Tier-1 runs it at 30 examples, CI at 600."""
    return contract_exits(point_argvs(), count)


def check_weight_values(count) -> tuple[int, int, int]:
    """``contract_exits`` over ``weight_argvs``; Tier-1 runs it at 40 examples, CI at 600."""
    return contract_exits(weight_argvs(), count)


def check_hilbert_values(count) -> tuple[int, int, int]:
    """``contract_exits`` over ``hilbert_argvs``; Tier-1 runs it at 40 examples, CI at 600."""
    return contract_exits(hilbert_argvs(), count)


def check_vector_values(count) -> tuple[int, int, int]:
    """``contract_exits`` over ``vector_argvs``; Tier-1 runs it at 40 examples, CI at 600."""
    return contract_exits(vector_argvs(), count)


def check_couple_values(count) -> tuple[int, int, int]:
    """``contract_exits`` over ``couple_argvs``; Tier-1 runs it at 40 examples, CI at 600."""
    return contract_exits(couple_argvs(), count)


class TestArgvFuzz:
    """The CLI contract on any argv: exit 0, 1 or 2, one JSON document on 0."""

    @pytest.mark.parametrize("prefix, parser", subcommand_parsers(),
                             ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_argv_keeps_the_contract(self, prefix, parser, data):
        cli_contract(data.draw(any_argv(prefix, parser)))

    @settings(max_examples=30, deadline=None)
    @given(argv=point_argvs())
    def test_any_point_value_keeps_the_contract(self, argv):
        cli_contract(argv)

    @settings(max_examples=40, deadline=None)
    @given(argv=weight_argvs())
    @example(argv=("hilbert", "--columns", "3", "--a", NINES, "--b", "-1"))
    @example(argv=("compare", "--columns", "2", "--other", "1,1", "--a", NINES, "--b", "-1"))
    @example(argv=("components", "--length", "2", "--a", NINES, "--b", "-1"))
    @example(argv=("run-suite", "components", "--length", "2", "--a", NINES, "--b", "-1"))
    def test_any_weight_keeps_the_contract(self, argv):
        cli_contract(argv)

    @settings(max_examples=40, deadline=None)
    @given(argv=vector_argvs())
    @example(argv=("run-suite", "poincare", "--max-length", "2", "--weights", EMPTY_WEIGHTS[0]))
    @example(argv=("run-suite", "poincare", "--max-length", "2", "--weights", EMPTY_WEIGHTS[1]))
    @example(argv=("run-suite", "poincare", "--max-length", "2", "--weights", EMPTY_WEIGHTS[2]))
    def test_any_vector_keeps_the_contract(self, argv):
        cli_contract(argv)

    @settings(max_examples=40, deadline=None)
    @given(argv=couple_argvs())
    def test_any_couple_keeps_the_contract(self, argv):
        cli_contract(argv)

    @settings(max_examples=40, deadline=None)
    @given(argv=hilbert_argvs())
    @example(argv=DEEP_1000[0])
    @example(argv=DEEP_1000[1])
    @example(argv=DEEP_1000[2])
    @example(argv=DEEP_100000[0])
    @example(argv=DEEP_100000[1])
    @example(argv=DEEP_100000[2])
    def test_any_hilbert_document_keeps_the_contract(self, argv):
        cli_contract(argv)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(BOUNDED), excess=st.integers(1, 10**9))
    def test_sizes_above_each_bound_exit_one_at_once(self, case, excess):
        prefix, flag, bound = case
        start = time.perf_counter()
        code, out, err = captured(main, prefix + (flag, str(bound + excess)))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and "bound" in err

    @settings(max_examples=60, deadline=None)
    @given(prefix=st.sampled_from(WEIGHTED), data=st.data())
    def test_large_weights_keep_the_contract_at_once(self, prefix, data):
        # Entries up to 10**9 in size, at least one of them past 10**6.  No
        # couple of such a direction fits these staircases, so degenerate
        # and descend stop before any S-profile; compare and components
        # answer or hit the S-profile bound.
        small = signed(st.integers(1, 5))
        a, b = data.draw(st.one_of(st.tuples(signed(LARGE), small),
                                   st.tuples(small, signed(LARGE)),
                                   st.tuples(signed(LARGE), signed(LARGE))))
        start = time.perf_counter()
        code, out, _ = captured(main, prefix + ("--a", str(a), "--b", str(b)))
        assert time.perf_counter() - start < 1.0
        assert code in (0, 1)
        if code == 0:
            json.loads(out)

    @settings(max_examples=40, deadline=None)
    @given(prefix=st.sampled_from(WEIGHTED[:2]), steep=st.booleans(),
           sizes=st.tuples(st.integers(10**7, 10**9), st.integers(1, 3)).filter(
               lambda v: math.gcd(*v) == 1))
    def test_profile_horizon_above_its_bound_exits_one_at_once(self, prefix, steep, sizes):
        # (large, -small) gives (2, 1) the top degree large and (3) the top
        # degree 2*large, with at least 2*large/small grid positions below
        # it; (small, -large) the transpose.  No call walks them.
        large, small = sizes
        a, b = (small, -large) if steep else (large, -small)
        start = time.perf_counter()
        code, out, err = captured(main, prefix + ("--a", str(a), "--b", str(b)))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and "S-profile bound" in err

    @settings(max_examples=20, deadline=None)
    @given(excess=st.integers(1, 10**9))
    def test_compatible_mass_above_its_bound_exits_one_at_once(self, excess):
        mass = json.dumps({"0": 1, "1": COMPATIBLE_BOUND - 1 + excess})
        start = time.perf_counter()
        code, out, err = captured(main, ("compatible", "--a", "1", "--b", "-1", "--hilbert", mass))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and "bound" in err

    @settings(max_examples=20, deadline=None)
    @given(excess=st.integers(1, 10**9))
    def test_minimal_mass_above_its_bound_exits_one_at_once(self, excess):
        mass = json.dumps({"0": 1, "1": strata.MINIMAL_BOUND - 1 + excess})
        start = time.perf_counter()
        code, out, err = captured(main, ("minimal", "--a", "1", "--b", "-1", "--hilbert", mass))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out and "bound" in err
