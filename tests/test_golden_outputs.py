"""Byte-identity gate: SHA-256 digests of canonical outputs.

Reduced Groebner bases are unique and every serializer is canonical, so
each output below is fixed by the mathematics: a refactor of the
polynomial kernel, the charts or the CLI must leave every digest as it is.
A digest covers, for each call in order, the argv, the exit code and the
exact stdout bytes.  Only a deliberate change of output may re-record one;
the failure message prints the new value.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hilbcells
from hilbcells import Weight, enumerate_staircases, tangent_basis
from hilbcells.cli import main

ANCHOR_IDEAL = "x*y^2+y^3; x^2*y+x*y^2; x^3+x^2*y-x*y-y^2; y^4-y^3"

README_EXAMPLES = [
    ["tangent", "--columns", "1,1", "--a", "1", "--b", "-1"],
    ["minimal", "--a", "1", "--b", "-1", "--hilbert", '{"0":1,"1":2,"2":2,"3":1}'],
    ["groebner", "--order", "grlex_xy", "--ideal", ANCHOR_IDEAL],
    ["degenerate", "--columns", "1,1", "--a", "1", "--b", "-1"],
    ["verify-flat", "--columns", "3,1,1,1", "--mode", "general", "--seed", "7"],
    ["poincare", "--length", "6", "--vector", "(-2,-9)"],
    ["run-suite", "verify-all", "--max-length", "4", "--seed", "7"],
    ["run-suite", "components", "--length", "6", "--a", "1", "--b", "-1"],
    ["run-suite", "poincare", "--max-length", "3", "--weights", "(-1,-3);(-2,-5)"],
]

SWEEP_COLUMNS = [
    ",".join(map(str, E.columns)) for l in range(1, 7) for E in enumerate_staircases(l)
]
W = ["--a", "1", "--b", "-1"]

SWEEPS = {
    "chart-invariant": [["chart", "--columns", c, "--mode", "invariant"] + W
                        for c in SWEEP_COLUMNS],
    "chart-general": [["chart", "--columns", c, "--mode", "general"] for c in SWEEP_COLUMNS],
    "verify-flat-invariant": [["verify-flat", "--columns", c, "--mode", "invariant",
                               "--seed", "7"] + W for c in SWEEP_COLUMNS],
    "verify-flat-general": [["verify-flat", "--columns", c, "--mode", "general",
                             "--seed", "7"] for c in SWEEP_COLUMNS],
    "descend-random": [["descend", "--columns", c, "--policy", "random", "--seed", "11",
                        "--a", a, "--b", "-1"] for a in ("1", "2") for c in SWEEP_COLUMNS],
    "groebner-orders": [["groebner", "--order", order, "--ideal", ANCHOR_IDEAL] + W
                        for order in ("lex_xy", "lex_yx", "grlex_xy", "cell")]
    + [["weight-initial", "--ideal", ANCHOR_IDEAL, "--vector", v, "--extremum", e]
       for v, e in (("1,0", "max"), ("0,1", "max"), ("1,1", "max"), ("(-1,-1)", "min"))]
    + [["weight-initial", "--ideal", ANCHOR_IDEAL, "--vector", "0,1", "--extremum", "min",
        "--max-steps", "200"]],
}

REPORT_WEIGHTS = [("1", "-1"), ("2", "-1"), ("1", "-2"), ("-1", "-2")]
DESCENT_COLUMNS = [
    ",".join(map(str, E.columns)) for l in range(1, 8) for E in enumerate_staircases(l)
]

REPORT_SWEEPS = {
    "components": [["components", "--length", str(l), "--a", a, "--b", b]
                   for a, b in REPORT_WEIGHTS for l in range(1, 9)],
    "descend-first-last": [["descend", "--columns", c, "--policy", policy,
                            "--a", a, "--b", "-1"]
                           for policy in ("first", "last") for a in ("1", "2")
                           for c in DESCENT_COLUMNS],
}

# Degeneration steps past the length-6 sweep: a random-policy descent from
# every staircase of lengths 7-9, and one step at every positive couple.
DEEP_STAIRCASES = [E for l in range(7, 10) for E in enumerate_staircases(l)]


def _couple_arg(couple) -> str:
    return f"{couple.c.alpha},{couple.c.beta};{couple.m.alpha},{couple.m.beta}"


DEEP_SWEEPS = {
    "descend-random-7-9": [["descend", "--columns", ",".join(map(str, E.columns)),
                            "--policy", "random", "--seed", "11", "--a", a, "--b", "-1"]
                           for a in ("1", "2") for E in DEEP_STAIRCASES],
    "degenerate-7-9": [["degenerate", "--columns", ",".join(map(str, E.columns)),
                        "--couple", _couple_arg(couple), "--a", str(a), "--b", "-1"]
                       for a in (1, 2) for E in DEEP_STAIRCASES
                       for couple in tangent_basis(E, Weight(a, -1)).positive],
}

# Component reports and general flatness certificates at and past the sizes
# the benchmark's cli-mix workload runs.
LARGE_SWEEPS = {
    "components-9-12": [["components", "--length", str(l), "--a", a, "--b", b]
                        for a, b in REPORT_WEIGHTS[:3] for l in range(9, 13)],
    "verify-flat-general-7-9": [["verify-flat", "--columns", ",".join(map(str, E.columns)),
                                 "--mode", "general", "--seed", "7", "--samples", "2"]
                                for E in DEEP_STAIRCASES],
}

# Census outputs, each call's stderr included: the GenericityError and
# RegimeError lines are part of the contract.  (-2,-9) and (-1,-3) stop
# being generic inside these ranges, so exit 1 is pinned too.
CENSUS_SWEEPS = {
    "poincare-lengths": [["poincare", "--length", str(l), "--vector", v]
                         for l in range(1, 13)
                         for v in (f"(-1,-{l + 1})", "(-2,-9)", "(-3,-10)")],
    "poincare-suite-witnesses": [["run-suite", "poincare", "--max-length", "12",
                                  "--weights", "(-1,-3);(-2,-5)"]],
    "poincare-suite-24": [["run-suite", "poincare", "--max-length", "24",
                           "--weights", "(-1,-25);(-2,-49)"]],
    "poincare-errors": [["poincare", "--length", "5", "--vector", "(-1,-3)"],
                        ["poincare", "--length", "5", "--vector", "(1,-3)"],
                        ["run-suite", "poincare", "--max-length", "3", "--weights", "(-1,2)"]],
}

# Recorded before the polynomial kernel was given one coefficient protocol.
DIGESTS = {
    "readme":
        "7924aaaa654249e78e5c91e8ada7e5c67413c8bf2b443675d46f1f198c7946ab",
    "chart-invariant":
        "ce2220f7847798bb3c092f1d9bdf1b0d3b5cc18d60e5222a90bada4ec1117187",
    "chart-general":
        "c1e7eccd885562ca5de2bcf0e33f6e9ed2af5661c677cb6560310d0c357387f9",
    "verify-flat-invariant":
        "29a499371f3c597a8c2efdbf9b1049154421359786a7224f865bb8de81ee8a72",
    "verify-flat-general":
        "a6a4852f79a900d5a7de54025c1ae600c653900f7ab3f71d340d2e23332718a9",
    "descend-random":
        "e9f2838533ff31df4f1ed562f2977ad2801120d4eeb8de19ea61f983639338a7",
    "groebner-orders":
        "d926464a2dd55798e06f9c4285a3c4cf8acfaa254b3eb320208686391bc1b430",
    # Recorded at 9e55793, before component reports shared one tangent basis,
    # chart family, S-profile and degeneration step per staircase.
    "components":
        "660645239dfde4075025d777652bd1309f55c5b52f6694a87b797bab13db934d",
    "descend-first-last":
        "532bd6f49246016a664841e49309b5ecb5a4fe08041de80dc734aa8fd881a6d4",
    # Recorded at b68f25f, while the census still built a tangent basis per
    # staircase.
    "poincare-lengths":
        "17da7895fd9f938e5b3c15ef7bcd4aa13b741cd6e2c8c556732b1fbce7453ca9",
    "poincare-suite-witnesses":
        "1e66b7b06241468086fb59a25d45cae9b9acfcb754a326c34af862250af1ed82",
    "poincare-suite-24":
        "086e60f317010c869851d841d7e9a808b6d132a12944cfe1cdc5460753561a8e",
    "poincare-errors":
        "179a02d1335b02a13e14410ec092d3942ce5f4c22866d946ad813d976f2bfd5b",
    # Recorded at a4e3e73, while every degeneration step still built its
    # source's chart family over the chart ring.
    "descend-random-7-9":
        "5a21388d2c9f1dd7915660507d4c783cdc1a3cdaedc894278fb7d6b7fbcf941b",
    "degenerate-7-9":
        "d624c9b538eb43043272111873b018ede7b20ec9443b560cd0551db25e2eb562",
    # Recorded at e7d71ff, before reports took each class's Hilbert function
    # and S-profile grid once.
    "components-9-12":
        "9337a64d60761ccffa4d6b99e16a1232ebd56fcb2345702b76bb984c4f160165",
    "verify-flat-general-7-9":
        "2f727ba6f41128db6353c049eab617f15d0c4a170e89680ec636f203192949c8",
}

# Help and error text of the argv reader, on stdout and stderr: every
# subcommand and suite with help, no flags, an unknown flag, a flag without
# its value, an ill-typed value and a value outside a flag's choices.
PREFIXES = [[name] for name in (
    "staircase", "clefts", "hilbert", "compatible", "compare", "tangent", "graph",
    "hom-oracle", "cells", "chart", "specialize", "verify-flat", "degenerate", "descend",
    "minimal", "components", "poincare", "groebner", "initial", "weight-initial")]
PREFIXES += [["run-suite", suite] for suite in ("verify-all", "components", "poincare")]
HELP_AND_ERROR_ARGVS = [["-h"], [], ["bogus"], ["run-suite", "-h"], ["run-suite"],
                        ["run-suite", "bogus"]] + [
    prefix + rest for prefix in PREFIXES
    for rest in (["-h"], [], ["--zzz", "1"], ["--columns"], ["--a", "x"], ["--extremum", "mid"])]

# Recorded when the flag tables became the only argv reader; the text is
# not wrapped to the terminal, so it is the same under every Python and
# every COLUMNS (replayed under 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13).
# Re-recorded when ``hom-oracle`` lost ``--bound``: only its help changed.
HELP_AND_ERROR = "6f89a7690bd7a1ef47d84655e7115616d56e686dfdd38f0fd6931b2b5dd6aab5"
# SHA-256 of the stdout of each help argv; CI compares the console script's.
HELP_DIGESTS = {
    "-h": "a8ceab9b03d731ec89e6e7cfe06c59d03d406baba9e410a146265ee84ef67fc7",
    "tangent -h": "1d9c533217d16c03e4c9536172f2031e06fcdbcc40a5aef45cd434b404c8123b",
    "run-suite verify-all -h": "c69faa54001a984b2b64372bca41e4080080cd296abcab3630fbcf80018cec0d",
}


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, ensure_ascii=False).encode() + b"\n")
    return h.hexdigest()


def _transcript(capsys, argvs, stderr=False) -> str:
    records = []
    for argv in argvs:
        code = main(list(argv))
        out, err = capsys.readouterr()
        records.append([argv, code, out, err] if stderr else [argv, code, out])
    return _digest(records)


def _check(name, digest):
    assert digest == DIGESTS[name], f"{name}: output changed, digest now {digest}"


def test_readme_examples(capsys):
    _check("readme", _transcript(capsys, README_EXAMPLES))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_up_to_length_six(capsys, name):
    _check(name, _transcript(capsys, SWEEPS[name]))


@pytest.mark.parametrize("name", sorted(REPORT_SWEEPS))
def test_component_reports_and_descents(capsys, name):
    _check(name, _transcript(capsys, REPORT_SWEEPS[name]))


@pytest.mark.parametrize("name", sorted(DEEP_SWEEPS))
def test_degenerations_up_to_length_nine(capsys, name):
    _check(name, _transcript(capsys, DEEP_SWEEPS[name]))


@pytest.mark.parametrize("name", sorted(LARGE_SWEEPS))
def test_reports_and_certificates_past_length_eight(capsys, name):
    _check(name, _transcript(capsys, LARGE_SWEEPS[name]))


@pytest.mark.parametrize("name", sorted(CENSUS_SWEEPS))
def test_census_outputs_and_errors(capsys, name):
    _check(name, _transcript(capsys, CENSUS_SWEEPS[name], stderr=True))


# The stdout of ``run-suite verify-all --max-length 8``, recorded at
# 18a6321: its items print only a verdict, so every byte is pinned here.
VERIFY_ALL_8 = "94d526fd03e74d374f627d0c80a0634d323b5c21e19c726e04202f3c21b17726"


def test_verify_all_stdout_to_length_eight(capsys):
    assert main(["run-suite", "verify-all", "--max-length", "8"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_8


def _outcome(argv):
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_help_and_error_text():
    digest = _digest([[argv, *_outcome(argv)] for argv in HELP_AND_ERROR_ARGVS])
    assert digest == HELP_AND_ERROR, f"help changed, now {digest}"


def check_help_digests(command=("hilbcells",)):
    """The help text ``command`` prints against ``HELP_DIGESTS``.

    Runs ``command -h``, ``command tangent -h`` and ``command run-suite
    verify-all -h`` and asserts that each exits 0 with stdout of the
    recorded SHA-256.  Standard library only.  Returns the number of help
    texts checked.  CI runs it on the installed console script.
    """
    for words, digest in HELP_DIGESTS.items():
        done = subprocess.run([*command, *words.split()], capture_output=True, timeout=60,
                              check=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        assert got == digest, f"{words}: help changed, digest now {got}"
    return len(HELP_DIGESTS)


def _import_this_hilbcells_in_children(monkeypatch):
    src = str(Path(hilbcells.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    monkeypatch.setenv("PYTHONPATH", path)


def test_module_help_matches_the_recorded_digests(monkeypatch):
    _import_this_hilbcells_in_children(monkeypatch)
    assert check_help_digests((sys.executable, "-m", "hilbcells.cli")) == 3


# SHA-256 of each demo's stdout, recorded at 91bc9a3; equal under
# PYTHONHASHSEED 0, 1, 12345 and random.
DEMO_DIGESTS = {
    "01_staircases_and_tangent_spaces.py":
        "89cf5cc2bfa0f56bc3a524d4a0c4d74101b3d5ec5dc1b7935e3ade26728d384e",
    "02_chart_families_and_flatness.py":
        "9c8cda2bc469727a4e034980d705491a7ac930bf36e8b35cf1da58ecbb365342",
    "03_degenerations_and_components.py":
        "ebb65f633775997f4ff22b1b946b85c7b81e01ef9cde2fa0c8d5a2376de9c621",
}


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout(monkeypatch, name):
    _import_this_hilbcells_in_children(monkeypatch)
    demo = Path(__file__).resolve().parent.parent / "demos" / name
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120,
                          check=True)
    got = hashlib.sha256(done.stdout).hexdigest()
    assert got == DEMO_DIGESTS[name], f"{name}: stdout changed, digest now {got}"


# SHA-256 over repr((argv, exit code, stdout, stderr)) of each of the 1,960
# ``cli_inputs`` argvs of perfbench/workloads.py at seeds 1-5, in order: every
# cli-mix call of the benchmark, malformed ones included.  Re-recorded when
# the flag tables became the only argv reader, since the stderr of the
# refused ("tangent",) changed; it was 40dd2de7... under argparse.
CLI_MIX = "b8833694abba264fc5edc78ba3e3a815107d637963bf62e981b24c8d68e4bf41"
# The same over repr((argv, exit code, stdout)): equal before and after that
# change, as every exit code and stdout of the corpus stayed.
CLI_MIX_STDOUT = "2ded75e814cc8ac4ed458a7dee5d3fe76597b2fccba218d6205600d67c0b7438"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded as a module of its own; it imports no hilbcells."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_mix_corpus():
    cli_inputs = _perfbench_workloads().cli_inputs
    api = SimpleNamespace(hc=hilbcells, cli=hilbcells.cli)
    full, stdout = hashlib.sha256(), hashlib.sha256()
    for seed in range(1, 6):
        for case in cli_inputs(api, seed):
            code, out, err = _outcome(case.argv)
            full.update(repr((case.argv, code, out, err)).encode())
            stdout.update(repr((case.argv, code, out)).encode())
    assert stdout.hexdigest() == CLI_MIX_STDOUT, f"cli-mix stdout now {stdout.hexdigest()}"
    assert full.hexdigest() == CLI_MIX, f"cli-mix now {full.hexdigest()}"
