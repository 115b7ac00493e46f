#!/usr/bin/env python3
"""Benchmark of hilbcells: census, descent, flatness and cli-mix workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 45 --trace 0

One process, one thread.  The library is imported from ``src/`` of the
checkout; without it the program exits 1 and prints no result.

``--trace 0`` repeats set-up and the workload's fixed sweep while the time
budget lasts and reports the end-to-end metrics: sweep time, per-call
median and 95th percentile (each call timed as the fastest of its
repetitions), median set-up time, peak memory, and the share of calls
that did not fail.

``--trace 1`` runs the sweep untraced twice (the second with
garbage-collector callbacks; the faster is the reference) and once with
every public function of every layer wrapped, and reports the per-layer
metrics; it ignores ``--seconds``.  The spans are written to
``perfbench/out/spans-<workload>.bin``.

Every answer is checked (see ``workloads.py``).  A call fails when it
raises, breaks the CLI exit contract or fails its check; ``correct`` is
false when an answer that did come back is wrong, or when the answer
digest differs between sweeps or from ``digests.json`` for this seed.
The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
MIN_SWEEPS = 3

sys.path.insert(0, str(HERE))
from tracing import LAYERS, GcStats, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, partitions  # noqa: E402


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank q-quantile, defined only with >= ``beyond`` samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {beyond} beyond the {q:.0%} rank"
        )
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Set-up and sweeps
# ---------------------------------------------------------------------------

def load_api() -> SimpleNamespace:
    """Fresh import of hilbcells from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hilbcells" or m.startswith("hilbcells.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    hc = importlib.import_module("hilbcells")
    cli = importlib.import_module("hilbcells.cli")
    if not Path(hc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hilbcells imported from {hc.__file__}, not from {SRC}")
    return SimpleNamespace(hc=hc, cli=cli)


def setup(workload, seed: int):
    """Import plus input generation; returns the api, inputs and seconds taken."""
    t0 = time.perf_counter()
    partitions.cache_clear()  # every set-up pays for input generation in full
    api = load_api()
    inputs = workload.generate(api, seed)
    return api, inputs, time.perf_counter() - t0


class Raised:
    """Marker for a call that raised instead of answering."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__


def sweep(workload, api, inputs, tracer=None):
    """Run every input once; per-call times and the sweep's wall time in ns."""
    call, clock = workload.call, time.perf_counter_ns
    answers, times = [], []
    t_start = clock()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.call_id = i
        t0 = clock()
        try:
            answer = call(api, inp)
        except Exception as exc:  # a failed call is counted, never fatal
            answer = Raised(exc)
        times.append(clock() - t0)
        answers.append(answer)
    return answers, times, clock() - t_start


WRONG = "wrong answer"


def check_sweep(workload, api, inputs, answers):
    """Failed calls by cause, and the answer digest of one sweep.

    The cause is the exception's type for a call that raised, or WRONG for
    an answer that failed its check.  No call is skipped.
    """
    failures = Counter()
    digest = hashlib.sha256()
    for i, (inp, answer) in enumerate(zip(inputs, answers)):
        if isinstance(answer, Raised):
            failures[answer.kind] += 1
            continue
        ok, canonical = workload.check(api, inp, answer)
        if not ok:
            failures[WRONG] += 1
        if canonical is not None:
            digest.update(f"{i}\t{canonical}\n".encode())
    return failures, digest.hexdigest()


def reference_digest(workload: str, seed: int):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def run_plain(workload, seed: int, seconds: float):
    """Fresh set-up and sweep, repeated while the budget lasts (at least 3 times).

    Each sweep starts from a fresh import, so nothing cached by one sweep
    serves the next.  A call's time is the fastest of its repetitions: the
    work is deterministic and the host's slow periods only ever add time.
    """
    deadline = time.perf_counter() + seconds
    setups, walls, per_sweep, digests = [], [], [], set()
    failures = Counter()
    while True:
        t0 = time.perf_counter()
        api, inputs, spent = setup(workload, seed)
        answers, call_ns, wall_ns = sweep(workload, api, inputs)
        failed, digest = check_sweep(workload, api, inputs, answers)
        failures.update(failed)
        setups.append(spent)
        walls.append(wall_ns / 1e9)
        per_sweep.append(call_ns)
        digests.add(digest)
        del api, inputs, answers
        gc.collect()  # free the previous import, so peak memory is one sweep's
        now = time.perf_counter()
        if len(walls) >= MIN_SWEEPS and now + (now - t0) > deadline:
            break
    best = [min(reps) for reps in zip(*per_sweep)]
    attempted, failed = len(best) * len(per_sweep), sum(failures.values())
    metrics = {
        "wall_s": (sum(best) / 1e9, "s"),
        "call_p50_ms": (percentile(best, 0.50) / 1e6, "ms"),
        "call_p95_ms": (percentile(best, 0.95) / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"sweeps": len(walls), "calls_per_sweep": len(best),
             "sweep_wall_s": [round(w, 3) for w in walls]}
    return metrics, attempted, failures, digests, notes


def _observe_tangent(basis, counts):
    counts["couples_considered"] += len(basis.couples)
    counts["couples_significant"] += sum(basis.flags)


def _observe_chart(family, counts):
    counts["variables"] += len(family.variables)


def _observe_flatness(cert, counts):
    counts["spairs"] += len(cert.spairs)
    counts["samples"] += len(cert.samples)
    counts["samples_ok"] += sum(s.ok for s in cert.samples)


def _observe_descent(chain, counts):
    counts["chain_steps"] += len(chain)


# Counts taken from results at the layer boundary.
OBSERVERS = {
    "tangent.tangent_basis": _observe_tangent,
    "charts.build_chart_family": _observe_chart,
    "charts.verify_flatness": _observe_flatness,
    "strata.descend_to_minimal": _observe_descent,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def run_traced(workload, seed: int):
    """Two untraced sweeps (the faster is the reference), then a traced one."""
    failures, digests, attempted = Counter(), set(), 0

    def fresh_sweep(tracer=None):
        nonlocal attempted
        api, inputs, _ = setup(workload, seed)
        if tracer is None:
            answers, _, wall = sweep(workload, api, inputs)
        else:
            with tracer:
                answers, _, wall = sweep(workload, api, inputs, tracer)
        failed, digest = check_sweep(workload, api, inputs, answers)
        failures.update(failed)
        digests.add(digest)
        attempted += len(inputs)
        return answers, wall

    _, first_wall = fresh_sweep()
    with GcStats() as gc_stats:
        _, wall_ref = fresh_sweep()
    wall_ref = min(wall_ref, first_wall)
    tracer = Tracer(OBSERVERS)
    answers, wall = fresh_sweep(tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.bin")

    summary = summarize(tracer.names, tracer.columns())
    fns, counts = summary["functions"], tracer.counts

    def fn(name, field="calls"):
        value = fns.get(name, {}).get(field, 0)
        return value / 1e9 if field == "self_ns" else value

    metrics = {}
    for layer in LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_ns"] / 1e9, "s")
        metrics[f"{layer}.errors"] = (entry["errors"], "count")
    cli_answers = ([a for a in answers if not isinstance(a, Raised)]
                   if workload.name == "cli-mix" else [])
    codes = [code for code, _ in cli_answers]
    stdout_bytes = sum(len(stdout.encode()) for _, stdout in cli_answers)
    metrics.update({
        "staircases.clefts.calls": (fn("staircases.clefts"), "count"),
        "staircases.s_profile.calls": (fn("staircases.s_profile"), "count"),
        "staircases.compare.calls": (fn("staircases.compare_staircases"), "count"),
        "tangent.tangent_basis.calls": (fn("tangent.tangent_basis"), "count"),
        "tangent.couples_considered": (counts["couples_considered"], "count"),
        "tangent.couples_significant": (counts["couples_significant"], "count"),
        "tangent.significant_ratio": (
            _ratio(counts["couples_significant"], counts["couples_considered"]), "ratio"),
        "polynomials.weight_order.calls": (fn("polynomials.weight_order"), "count"),
        "polynomials.weight_order.self_s": (fn("polynomials.weight_order", "self_ns"), "s"),
        "polynomials.buchberger.calls": (fn("polynomials.buchberger"), "count"),
        "polynomials.buchberger.self_s": (fn("polynomials.buchberger", "self_ns"), "s"),
        "polynomials.divide.calls": (fn("polynomials.divide"), "count"),
        "polynomials.s_polynomial.calls": (fn("polynomials.s_polynomial"), "count"),
        "charts.build.self_s": (fn("charts.build_chart_family", "self_ns"), "s"),
        "charts.variables": (counts["variables"], "count"),
        "charts.specialize.calls": (fn("charts.specialize_family"), "count"),
        "charts.verify.spairs": (counts["spairs"], "count"),
        "charts.samples_ok_ratio": (_ratio(counts["samples_ok"], counts["samples"]), "ratio"),
        "strata.chain_steps": (counts["chain_steps"], "count"),
        "strata.degenerate.calls": (fn("strata.degenerate_once"), "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "cli.exit_1": (codes.count(1), "count"),
        "cli.exit_2": (codes.count(2), "count"),
        "runtime.gc.collections": (gc_stats.collections, "count"),
        "runtime.gc.pause_s": (gc_stats.pause_ns / 1e9, "s"),
        "loop.self_s": ((wall - summary["root_ns"]) / 1e9, "s"),
        "trace.wall_s": (wall / 1e9, "s"),
        "trace.spans": (len(tracer), "count"),
        "trace.overhead_frac": (wall / wall_ref - 1, "ratio"),
    })
    notes = {"untraced_wall_s": round(wall_ref / 1e9, 4), "calls_per_sweep": len(answers)}
    return metrics, attempted, failures, digests, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hilbcells" / "__init__.py").is_file():
        print(f"error: no hilbcells sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failures, digests, notes = run_traced(workload, args.seed)
    else:
        metrics, attempted, failures, digests, notes = run_plain(
            workload, args.seed, args.seconds)

    expected = reference_digest(args.workload, args.seed)
    digest_ok = len(digests) == 1 and (expected is None or expected in digests)
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# {json.dumps(notes)}")
    print(f"# digest {' '.join(sorted(digests))} (reference {expected or 'none recorded'})")
    print(f"# failed calls by cause {json.dumps(dict(sorted(failures.items())))}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failures[WRONG] == 0 and digest_ok,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
