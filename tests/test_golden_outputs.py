"""Byte-identity gate: SHA-256 digests of canonical outputs.

Reduced Groebner bases are unique and every serializer is canonical, so
each output below is fixed by the mathematics: a refactor of the
polynomial kernel, the charts or the CLI must leave every digest as it is.
A digest covers, for each call in order, the argv, the exit code and the
exact stdout bytes.  Only a deliberate change of output may re-record one;
the failure message prints the new value.
"""

import argparse
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
    # and S-profile grid once and samples specialized unit points in one pass.
    "components-9-12":
        "9337a64d60761ccffa4d6b99e16a1232ebd56fcb2345702b76bb984c4f160165",
    "verify-flat-general-7-9":
        "2f727ba6f41128db6353c049eab617f15d0c4a170e89680ec636f203192949c8",
}

# Help and error text of the parser tree, stdout and stderr of argparse's
# own exits included: every subcommand and suite with help, no flags, an
# unknown flag, a flag without its value, an ill-typed value and a value
# outside a flag's choices.
PREFIXES = [[name] for name in (
    "staircase", "clefts", "hilbert", "compatible", "compare", "tangent", "graph",
    "hom-oracle", "cells", "chart", "specialize", "verify-flat", "degenerate", "descend",
    "minimal", "components", "poincare", "groebner", "initial", "weight-initial")]
PREFIXES += [["run-suite", suite] for suite in ("verify-all", "components", "poincare")]
HELP_AND_ERROR_ARGVS = [["-h"], [], ["bogus"], ["run-suite", "-h"], ["run-suite"],
                        ["run-suite", "bogus"]] + [
    prefix + rest for prefix in PREFIXES
    for rest in (["-h"], [], ["--zzz", "1"], ["--columns"], ["--a", "x"], ["--extremum", "mid"])]


def _argparse_layout() -> tuple[bool, bool]:
    """The two argparse behaviours the help and error text depends on.

    First, whether wrapped usage keeps a flag next to its value, as from
    Python 3.13 on.  Second, whether an invalid choice lists the choices
    quoted, as up to 3.13.0; 3.13.13 lists them bare.  A tiny probe parser
    reads both, so the digests are keyed by behaviour, not by version.
    """
    probe = argparse.ArgumentParser(
        prog="p", add_help=False, exit_on_error=False,
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=26))
    probe.add_argument("--aaaa", required=True)
    probe.add_argument("--bb", required=True)
    probe.add_argument("--c", choices=["d"])
    try:
        probe.parse_args(["--aaaa", "1", "--bb", "2", "--c", "e"])
    except argparse.ArgumentError as exc:
        quoted = "'d'" in str(exc)
    return "--bb BB" in probe.format_usage(), quoted


# Each layout has its own digest, at 80 columns.  (False, True) and (True,
# True) were recorded at 1c6ff51, while every flag was still declared by
# hand, under Python 3.10.13, 3.11.7 and 3.12.1, and under 3.13.0;
# (True, False) was recorded later, under 3.13.13.
ARGPARSE_LAYOUT = _argparse_layout()
NEW_HELP_LAYOUT = ARGPARSE_LAYOUT[0]
HELP_AND_ERROR_DIGESTS = {
    (False, True): "3e8910152aa6de20ac2fedb7a0ef777724fc58ceff94c239a3b84748d13226d3",
    (True, True): "d4751c6c4d06329534ec641b6b2dc70062327d7aea85ea016d61136d0a98f48d",
    (True, False): "273b68646508a1ccfaaf30ae9024dd8a2015aa7ebdd5dc5490d402139506b9a7",
}
# SHA-256 of the stdout of each help argv; CI compares the console script's.
TANGENT_HELP = "227273027669f2b355eb1cc7b87aba65d8b84f94401087a66bc8a752854e3dc3"
VERIFY_ALL_HELP = "297fc76ca1f5aa8ddffa1c78f73d53d3fc585fe8321c5d0d1d65934202d429fa"
HELP_DIGESTS = {
    False: {"-h": "b97b870a8d4a5f26af7416cd091b9d71ad93f650dcc088cf8ae4eff27c886369",
            "tangent -h": TANGENT_HELP, "run-suite verify-all -h": VERIFY_ALL_HELP},
    True: {"-h": "9289a6ff26fdd37e94cd76fbba29bc5e9dcf5733010428b64f539e6ee6fae965",
           "tangent -h": TANGENT_HELP, "run-suite verify-all -h": VERIFY_ALL_HELP},
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
    """Exit code, stdout and stderr of one ``main`` call, argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_help_and_error_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert ARGPARSE_LAYOUT in HELP_AND_ERROR_DIGESTS, f"no digest for {ARGPARSE_LAYOUT}"
    digest = _digest([[argv, *_outcome(argv)] for argv in HELP_AND_ERROR_ARGVS])
    assert digest == HELP_AND_ERROR_DIGESTS[ARGPARSE_LAYOUT], f"help changed, now {digest}"


def check_help_digests(command=("hilbcells",)):
    """The help text ``command`` prints against ``HELP_DIGESTS``.

    Runs ``command -h``, ``command tangent -h`` and ``command run-suite
    verify-all -h`` at 80 columns and asserts that each exits 0 with stdout
    of the recorded SHA-256.  Standard library only.  Returns the number of
    help texts checked.  CI runs it on the installed console script.
    """
    env = dict(os.environ, COLUMNS="80")
    for words, digest in HELP_DIGESTS[NEW_HELP_LAYOUT].items():
        done = subprocess.run([*command, *words.split()], capture_output=True, env=env,
                              timeout=60, check=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        assert got == digest, f"{words}: help changed, digest now {got}"
    return len(HELP_DIGESTS[NEW_HELP_LAYOUT])


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
# ``cli_inputs`` argvs of perfbench/workloads.py at seeds 1-5, in order, at
# 80 columns: every cli-mix call of the benchmark, malformed ones included.
# Recorded at f4fd8d7, equal under Python 3.10.13, 3.11.7 and 3.12.1, layout
# (False, True), and 3.13.0, (True, True).  (True, False) was not run; no
# argv of the corpus names an invalid choice, the only text it changes.
CLI_MIX = "40dd2de7b873d9ff329d39ce45cf4bf2eee61b5fcb4d700e3d6a11c849a6b65c"
CLI_MIX_DIGESTS = {(False, True): CLI_MIX, (True, True): CLI_MIX, (True, False): CLI_MIX}


def _perfbench_workloads():
    """perfbench/workloads.py, loaded as a module of its own; it imports no hilbcells."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_mix_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert ARGPARSE_LAYOUT in CLI_MIX_DIGESTS, f"no digest for {ARGPARSE_LAYOUT}"
    cli_inputs = _perfbench_workloads().cli_inputs
    api = SimpleNamespace(hc=hilbcells, cli=hilbcells.cli)
    h = hashlib.sha256()
    for seed in range(1, 6):
        for case in cli_inputs(api, seed):
            h.update(repr((case.argv, *_outcome(case.argv))).encode())
    assert h.hexdigest() == CLI_MIX_DIGESTS[ARGPARSE_LAYOUT], f"cli-mix now {h.hexdigest()}"
