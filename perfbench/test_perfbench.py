"""Tests of the benchmark's own pieces.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run.load_api()


# -- the percentile rule ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 201))
    assert run.percentile(samples, 0.95) == 190
    assert run.percentile(samples, 0.50) == 100
    with pytest.raises(ValueError):
        run.percentile(samples[:199], 0.95)
    assert run.percentile(list(range(20)), 0.50) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.50)


# -- self time on a synthetic span tree --------------------------------------------

def test_self_time_on_synthetic_tree():
    names = ["strata.a", "strata.b", "polynomials.c", "staircases.d"]
    # 0 strata.a [0, 100] -> 1 strata.b [10, 60] -> 2 polynomials.c [20, 50]
    #                                               -> 3 staircases.d [30, 35] (raised)
    #                     -> 4 polynomials.c [70, 90] (raised, caught by strata.a)
    # 5 staircases.d [120, 130] at the root, raised into the benchmark loop.
    spans = {
        "fn": array("i", [0, 1, 2, 3, 2, 3]),
        "parent": array("i", [-1, 0, 1, 2, 0, -1]),
        "start": array("q", [0, 10, 20, 30, 70, 120]),
        "end": array("q", [100, 60, 50, 35, 90, 130]),
        "raised": array("b", [0, 0, 0, 1, 1, 1]),
    }
    assert tracing.span_self_ns(spans["parent"], spans["start"], spans["end"]) == [
        30, 20, 25, 5, 20, 10]
    summary = tracing.summarize(names, spans)
    layers = summary["layers"]
    assert layers["strata"] == {"calls": 2, "self_ns": 50, "errors": 0}
    assert layers["polynomials"] == {"calls": 2, "self_ns": 45, "errors": 1}
    assert layers["staircases"] == {"calls": 2, "self_ns": 15, "errors": 2}
    assert layers["cli"] == {"calls": 0, "self_ns": 0, "errors": 0}
    assert summary["functions"]["polynomials.c"] == {"calls": 2, "self_ns": 45}
    assert summary["root_ns"] == 110
    assert sum(v["self_ns"] for v in layers.values()) == summary["root_ns"]


# -- wrappers ----------------------------------------------------------------------

def test_wrapper_passes_results_and_exceptions_through():
    tracer = tracing.Tracer()
    token, error = object(), KeyError("boom")

    def ok(x, *, y):
        return token if (x, y) == (1, 2) else None

    def bad():
        raise error

    wrapped_ok = tracer.wrap("strata.ok", ok)
    wrapped_bad = tracer.wrap("strata.bad", bad)
    assert wrapped_ok(1, y=2) is token
    with pytest.raises(KeyError) as info:
        wrapped_bad()
    assert info.value is error
    assert list(tracer.raised) == [0, 1]
    assert list(tracer.parent) == [-1, -1]
    assert wrapped_ok.__name__ == "ok" and wrapped_ok.__wrapped__ is ok


def test_install_wraps_every_binding_and_uninstall_restores(api):
    hc = api.hc
    originals = (hc.clefts, hc.staircases.clefts, hc.tangent.clefts, api.cli.clefts)
    E = hc.construct_staircase((3, 1))
    expected = hc.cell_dimension(E, (-1, -5))
    tracer = tracing.Tracer(run.OBSERVERS)
    with tracer:
        assert hc.clefts is hc.staircases.clefts is hc.tangent.clefts is api.cli.clefts
        assert hc.clefts is not originals[0]
        assert hc.cell_dimension(E, (-1, -5)) == expected
    assert (hc.clefts, hc.staircases.clefts, hc.tangent.clefts, api.cli.clefts) == originals
    names = [tracer.names[f] for f in tracer.fn]
    assert names[0] == "tangent.cell_dimension"
    assert "tangent.tangent_basis" in names and "staircases.clefts" in names
    assert tracer.counts["couples_significant"] == 2 * len(E)


def test_spans_round_trip_through_file(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap("cli.f", lambda: tracer.wrap("staircases.g", lambda: 1)())()
    tracer.write(tmp_path / "spans.bin")
    names, columns = tracing.read_spans(tmp_path / "spans.bin")
    assert names == tracer.names
    assert columns == tracer.columns()


# -- generators --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_deterministic_per_seed(api, name):
    generate = workloads.WORKLOADS[name].generate
    first, again, other = generate(api, 1), generate(api, 1), generate(api, 2)
    assert first == again
    assert other != first
    assert len(other) == len(first) >= 200


# -- the independent oracles the checks rely on ---------------------------------------

def test_census_closed_form_and_arm_leg_match_library(api):
    hc = api.hc
    for n in range(1, 9):
        for cols in workloads.partitions(n):
            E = hc.construct_staircase(cols)
            chars = sorted(c.char for c in hc.tangent_basis(E).significant)
            assert chars == workloads.arm_leg_characters(cols)
            for p in (1, 3):
                for transpose in (False, True):
                    v = workloads.census_vector(n, p, transpose)
                    assert hc.cell_dimension(E, v) == workloads.census_closed_form(cols, transpose)


def test_profile_order_matches_library(api):
    hc = api.hc
    for w in workloads.WEIGHTS:
        weight = hc.Weight(*w)
        for n in range(1, 7):
            parts = workloads.partitions(n)
            for e in parts:
                for f in parts:
                    expected = hc.compare_staircases(
                        hc.construct_staircase(e), hc.construct_staircase(f), weight).value
                    assert workloads.compare_profiles(e, f, w) == expected


def test_automorphic_ideal_has_the_staircase_colength(api):
    hc = api.hc
    for cols in ((1,), (2, 1), (3, 1, 1), (2, 2)):
        for c, k in ((1, 1), (-2, 2), (3, 1)):
            gb = hc.buchberger(hc.parse_ideal(workloads.automorphic_ideal(cols, c, k)), hc.LEX_YX)
            assert hc.colength(gb) == sum(cols)


# -- the metric names match BENCHMARK.json ----------------------------------------------

def _tiny_workload():
    def generate(api, seed):
        return [api.hc.construct_staircase(cols) for n in (11, 12, 13)
                for cols in workloads.partitions(n)][:210]

    def call(api, E):
        return api.hc.tangent_basis(E).dimension

    def check(api, E, answer):
        return workloads.Check(answer == 2 * len(E), str(answer))

    return workloads.Workload("tiny", generate, call, check)


def test_runs_print_exactly_the_declared_metrics(tmp_path, monkeypatch):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    plain = run.run_plain(_tiny_workload(), 0, 0)[0]
    traced, attempted, failures, digests, _ = run.run_traced(_tiny_workload(), 0)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, unit) for name, (_, unit) in plain.items()]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in traced.items()]
    assert attempted == 3 * 210 and not failures and len(digests) == 1
    assert traced["tangent.tangent_basis.calls"][0] == 210
    assert traced["tangent.couples_significant"][0] == 2 * (56 * 11 + 77 * 12 + 77 * 13)
    assert all(value > 0 for value, _ in plain.values())
