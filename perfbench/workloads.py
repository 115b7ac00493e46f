"""The four workloads: seeded inputs, the timed top-level call, answer checks.

Each workload is a fixed sweep.  Its inputs come only from the seed and
from the benchmark's own partition generator; the program under test sees
nothing but those inputs.  Every answer is checked against an invariant
computed here without the library (closed forms, arm-leg characters,
Hilbert functions and S-profiles recomputed from column heights), and
``check`` returns the canonical text that goes into the answer digest.

Why these four (the layers are the modules of ``hilbcells``):
- census loads staircases and tangent only; it is where the tangent kernel
  shows, and it bypasses polynomials, charts, strata and cli.
- descent runs many tiny Buchberger runs under freshly built weighted
  orders, plus invariant charts and S-profile comparisons (strata,
  polynomials); it bypasses cli.
- flatness runs chart-ring division and larger rational Buchberger runs
  under the fixed LEX_YX order (charts, polynomials); no weight orders.
- cli-mix is the only workload through ``cli.main``: argument parsing, the
  parser built on every call, JSON output and the Hom oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from functools import lru_cache
from math import comb
from typing import NamedTuple

WEIGHTS = ((1, -1), (2, -1), (1, -2))
CENSUS_LENGTHS = (21,)
DESCENT_LENGTHS = (12, 13)
FLATNESS_LENGTHS = (9, 10, 11, 12)
CLI_LENGTHS = range(3, 10)
CLI_BLOCKS = 14


# ---------------------------------------------------------------------------
# Independent combinatorics on column heights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All weakly decreasing positive tuples summing to n, largest part first."""
    out = []

    def gen(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            gen(prefix, remaining - part, part)
            prefix.pop()

    gen([], n, n)
    return tuple(out)


def arm_leg_characters(cols) -> list[tuple[int, int]]:
    """Sorted tangent characters: (-(arm+1), leg) and (arm, -(leg+1)) per cell."""
    out = []
    for i, height in enumerate(cols):
        for j in range(height):
            arm = sum(1 for k in range(i + 1, len(cols)) if cols[k] > j)
            leg = height - j - 1
            out.append((-(arm + 1), leg))
            out.append((arm, -(leg + 1)))
    return sorted(out)


def _positive(f: int, g: int) -> bool:
    return f > 0 or (f == 0 and g < 0)


def direction_counts(cols, w) -> tuple[int, int]:
    """(all, positive) tangent characters parallel to the direction w."""
    a, b = w
    chars = [(f, g) for f, g in arm_leg_characters(cols) if f * b - g * a == 0]
    return len(chars), sum(1 for f, g in chars if _positive(f, g))


def cleft_exponents(cols) -> list[tuple[int, int]]:
    out = [(0, cols[0])]
    out += [(i, cols[i]) for i in range(1, len(cols)) if cols[i] < cols[i - 1]]
    out.append((len(cols), 0))
    return out


def hilbert_counts(cols, w) -> dict[int, int]:
    a, b = w
    counts: Counter = Counter()
    for i, height in enumerate(cols):
        for j in range(height):
            counts[-b * i + a * j] += 1
    return dict(counts)


def compare_profiles(e, f, w) -> str:
    """The S-profile order of two equal-size staircases, from scratch."""
    if e == f:
        return "equal"
    a, b = w
    cells_e = {(i, j) for i, h in enumerate(e) for j in range(h)}
    cells_f = {(i, j) for i, h in enumerate(f) for j in range(h)}
    top = max(-b * i + a * j for i, j in cells_e | cells_f)
    grid = [(i, j) for i in range(top // -b + 1) for j in range(top // a + 1)
            if -b * i + a * j <= top]
    grid.sort(key=lambda m: (-b * m[0] + a * m[1], m[1]))
    ge = le = True
    ce = cf = 0
    for m in grid:
        ce += m in cells_e
        cf += m in cells_f
        ge = ge and ce >= cf
        le = le and ce <= cf
    return "greater" if ge else "less" if le else "incomparable"


def census_closed_form(cols, transpose: bool) -> int:
    """Cell dimension at (-p, -(p*n+1)) is n + #columns; transposed, n + rows."""
    return sum(cols) + (cols[0] if transpose else len(cols))


def census_vector(n: int, p: int, transpose: bool) -> tuple[int, int]:
    v = (-p, -(p * n + 1))
    return v[::-1] if transpose else v


# ---------------------------------------------------------------------------
# Workload interface
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    ok: bool
    canonical: str | None   # None keeps the answer out of the digest


class Workload(NamedTuple):
    name: str
    generate: object   # (api, seed) -> list of inputs
    call: object       # (api, input) -> answer; the timed top-level call
    check: object      # (api, input, answer) -> Check


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# -- census -------------------------------------------------------------------

def census_inputs(api, seed):
    rng = random.Random(seed)
    out = []
    for n in CENSUS_LENGTHS:
        for cols in partitions(n):
            E = api.hc.construct_staircase(cols)
            p = rng.randint(1, 9)
            for transpose in (False, True):
                out.append((E, census_vector(n, p, transpose), transpose))
    return out


def census_call(api, inp):
    E, vector, _transpose = inp
    return api.hc.cell_dimension(E, vector)


def census_check(api, inp, answer):
    E, vector, transpose = inp
    ok = answer == census_closed_form(E.columns, transpose)
    return Check(ok, f"{E.columns}{vector}={answer}")


# -- descent --------------------------------------------------------------------

def descent_inputs(api, seed):
    rng = random.Random(seed)
    weights = [api.hc.Weight(a, b) for a, b in WEIGHTS]
    return [(api.hc.construct_staircase(cols), w, rng.randrange(2**32))
            for n in DESCENT_LENGTHS for cols in partitions(n) for w in weights]


def descent_call(api, inp):
    E, w, seed = inp
    return api.hc.descend_to_minimal(E, w, policy="random", seed=seed)


def descent_check(api, inp, chain):
    E, w, _seed = inp
    end = chain[-1].target if chain else E
    wt = (w.a, w.b)
    ok = (
        end == api.hc.minimal_staircase(api.hc.hilbert_function(E, w))
        and hilbert_counts(end.columns, wt) == hilbert_counts(E.columns, wt)
        and direction_counts(end.columns, wt)[1] == 0
        and all(s.source == prev for s, prev in zip(chain, (E,) + tuple(s.target for s in chain)))
    )
    return Check(ok, _dumps([s.to_json() for s in chain]) + str(end.columns))


# -- flatness -------------------------------------------------------------------

def flatness_inputs(api, seed):
    rng = random.Random(seed)
    return [(api.hc.construct_staircase(cols), rng.randrange(2**32))
            for n in FLATNESS_LENGTHS for cols in partitions(n)]


def flatness_call(api, inp):
    E, seed = inp
    fam = api.hc.build_chart_family(E, "general")
    return fam, api.hc.verify_flatness(fam, seed=seed)


def flatness_check(api, inp, answer):
    E, _seed = inp
    fam, cert = answer
    n = len(E)
    ok = (cert.valid and len(fam.variables) == n
          and all(s.colength == n for s in cert.samples))
    return Check(ok, _dumps([fam.to_json(), cert.to_json()]))


# -- cli-mix --------------------------------------------------------------------

class CliCase(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    data: tuple         # what the check needs, by kind
    codes: frozenset    # acceptable exit codes


_OK = frozenset({0})

# Inputs that escape ``cli.main`` as a traceback (AttributeError and
# ValueError) instead of exiting 2; they stay in every block, so the defect
# shows in the failed count until it is fixed.
KNOWN_TRACEBACKS = (
    ("specialize", "--columns", "2,1", "--mode", "general", "--point", "[1,2]"),
    ("minimal", "--hilbert", '{"a":1,"b":-1,"values":{"0":"x"}}'),
)


def _cols_arg(cols) -> str:
    return ",".join(map(str, cols))


def _poly_text(terms: dict[tuple[int, int], int]) -> str:
    chunks = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        body = "*".join(part for part in (f"x^{i}" if i else "", f"y^{j}" if j else "") if part)
        mag = abs(c)
        text = f"{mag}*{body}" if body and mag != 1 else (body or str(mag))
        chunks.append(("-" if c < 0 else "+") + text)
    return "".join(chunks).lstrip("+")


def automorphic_ideal(cols, c: int, k: int) -> str:
    """Image of the monomial ideal of cols under x -> x + c*y^k; colength n."""
    gens = []
    for alpha, beta in cleft_exponents(cols):
        terms = {(alpha - t, beta + k * t): comb(alpha, t) * c ** t for t in range(alpha + 1)}
        gens.append(_poly_text(terms))
    return "; ".join(gens)


def cli_inputs(api, seed):
    rng = random.Random(seed)
    cases = []
    for block in range(CLI_BLOCKS):
        n = CLI_LENGTHS[block % len(CLI_LENGTHS)]
        cols, other = rng.choice(partitions(n)), rng.choice(partitions(n))
        cs = _cols_arg(cols)
        w = rng.choice(WEIGHTS)
        wa = ("--a", str(w[0]), "--b", str(w[1]))
        p, transpose = rng.randint(1, 9), rng.random() < 0.5
        movable = [e for e in partitions(n) if direction_counts(e, w)[1]]
        hilbert = _dumps({str(d): c for d, c in sorted(hilbert_counts(cols, w).items())})
        small = min(n, 6)
        order = rng.choice(("lex_yx", "lex_xy", "grlex_xy"))
        ideal_cols = rng.choice(partitions(small))
        ideal = automorphic_ideal(ideal_cols, rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2)))
        dcols = rng.choice(movable)
        block_cases = [
            CliCase("tangent", ("tangent", "--columns", cs), (cols,), _OK),
            CliCase("tangent-dir", ("tangent", "--columns", cs) + wa, (cols, w), _OK),
            CliCase("graph", ("graph", "--columns", cs) + wa, (cols, w), _OK),
            CliCase("hom-oracle", ("hom-oracle", "--columns", cs), (cols,), _OK),
            CliCase("cells", ("cells", "--columns", cs, "--vector",
                              "(%d,%d)" % census_vector(n, p, transpose)), (cols, transpose), _OK),
            CliCase("chart", ("chart", "--columns", cs, "--mode", "general"), (cols,), _OK),
            CliCase("specialize", ("specialize", "--columns", cs, "--mode", "general",
                                   "--point", "{}"), (cols,), _OK),
            CliCase("verify-flat", ("verify-flat", "--columns", cs, "--mode", "general",
                                    "--seed", str(rng.randrange(1000)), "--samples", "2"),
                    (cols,), _OK),
            CliCase("degenerate", ("degenerate", "--columns", _cols_arg(dcols)) + wa,
                    (dcols, w), _OK),
            CliCase("descend", ("descend", "--columns", cs, "--policy", "random",
                                "--seed", str(rng.randrange(1000))) + wa, (cols, w), _OK),
            CliCase("minimal", ("minimal", "--hilbert", hilbert) + wa, (cols, w), _OK),
            CliCase("compatible", ("compatible", "--hilbert", hilbert) + wa, (cols, w), _OK),
            CliCase("compare", ("compare", "--columns", cs, "--other", _cols_arg(other)) + wa,
                    (cols, other, w), _OK),
            CliCase("components", ("components", "--length", str(small)) + wa, (small, w), _OK),
            CliCase("poincare", ("poincare", "--length", str(n), "--vector",
                                 "(%d,%d)" % census_vector(n, p, transpose)), (n, transpose), _OK),
            CliCase("groebner", ("groebner", "--order", order, "--ideal", ideal),
                    (ideal_cols,), _OK),
            CliCase("initial", ("initial", "--order", order, "--ideal", ideal),
                    (ideal_cols,), _OK),
            CliCase("weight-initial", ("weight-initial", "--vector", rng.choice(("1,0", "0,1")),
                                       "--extremum", "max", "--ideal", ideal),
                    (ideal_cols,), _OK),
            # Malformed or out-of-regime input: exit 2 (malformed) or 1 (domain).
            CliCase("bad", ("tangent", "--columns", f"{n},x"), (), frozenset({2})),
            CliCase("bad", ("cells", "--columns", cs, "--vector", "1"), (), frozenset({2})),
            CliCase("bad", ("degenerate", "--columns", cs, "--a", "-1", "--b", "-2"), (),
                    frozenset({1})),
            CliCase("bad", ("graph", "--columns", cs), (), frozenset({2})),
            CliCase("bad", ("minimal", "--a", "1", "--b", "-1", "--hilbert", "{x"), (),
                    frozenset({2})),
            CliCase("bad", ("tangent",), (), frozenset({2})),
            # Increasing heights: exit 1 or 2 is left open by the project.
            CliCase("bad", ("tangent", "--columns", "1,2"), (), frozenset({1, 2})),
            CliCase("bad", ("cells", "--columns", "1,1", "--vector", "(-1,-1)"), (),
                    frozenset({1})),
        ]
        block_cases += [CliCase("bad", argv, (), frozenset({2})) for argv in KNOWN_TRACEBACKS]
        rng.shuffle(block_cases)
        cases += block_cases
    return cases


def cli_call(api, case):
    """Exit code and stdout of one in-process ``cli.main`` call.

    Argparse's ``SystemExit`` is its exit code; any other exception escapes
    to the benchmark loop, which counts it as a failed call.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = api.cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _chars(couples) -> list[tuple[int, int]]:
    return sorted((m[0] - c[0], m[1] - c[1]) for c, m in
                  ((cp["c"], cp["m"]) for cp in couples))


def _check_doc(kind, data, doc) -> bool:
    if kind == "tangent":
        (cols,) = data
        n = sum(cols)
        sig = [cp for cp in doc["couples"] if cp["significant"]]
        return (doc["dimension"] == 2 * n and doc["split"] == {"pos": n, "neg": n}
                and _chars(sig) == arm_leg_characters(cols))
    if kind in ("tangent-dir", "graph"):
        cols, w = data
        return doc["dimension"] == direction_counts(cols, w)[0]
    if kind == "hom-oracle":
        (cols,) = data
        return (doc["dimension"] == 2 * sum(cols)
                and [tuple(c) for c in doc["characters"]] == arm_leg_characters(cols))
    if kind == "cells":
        cols, transpose = data
        return doc["cell_dimension"] == census_closed_form(cols, transpose)
    if kind == "chart":
        (cols,) = data
        return (len(doc["variables"]) == sum(cols)
                and len(doc["generators"]) == len(cleft_exponents(cols)))
    if kind == "specialize":
        (cols,) = data
        return doc["generators"] == [f"+1/1·x^{a}*y^{b}" for a, b in cleft_exponents(cols)]
    if kind == "verify-flat":
        (cols,) = data
        return doc["valid"] and all(s["colength"] == sum(cols) for s in doc["samples"])
    if kind == "degenerate":
        cols, w = data
        target = tuple(doc["target"]["columns"])
        return target != tuple(cols) and hilbert_counts(target, w) == hilbert_counts(cols, w)
    if kind in ("descend", "minimal"):
        cols, w = data
        end = tuple(doc["final"]["columns"] if kind == "descend" else doc["columns"])
        return (hilbert_counts(end, w) == hilbert_counts(cols, w)
                and direction_counts(end, w)[1] == 0)
    if kind == "compatible":
        cols, w = data
        h = hilbert_counts(cols, w)
        expected = [list(e) for e in partitions(sum(cols)) if hilbert_counts(e, w) == h]
        return sorted(s["columns"] for s in doc["staircases"]) == sorted(expected)
    if kind == "compare":
        cols, other, w = data
        return doc["comparison"] == compare_profiles(cols, other, w)
    if kind == "components":
        n, w = data
        strata = 0
        for comp in doc["components"]:
            h = {int(d): c for d, c in comp["H"].items()}
            strata += len(comp["strata"])
            minimal = tuple(comp["minimal"]["columns"])
            if (hilbert_counts(minimal, w) != h
                    or any(hilbert_counts(s["columns"], w) != h
                           or s["dim_ab"] != comp["dimension"] for s in comp["strata"])
                    or [tuple(s["columns"]) for s in comp["strata"] if s["dim_pos"] == 0]
                    != [minimal]
                    or any(chain[-1] != list(minimal) for chain in comp["chains"])):
                return False
        return strata == len(partitions(n))
    if kind == "poincare":
        n, transpose = data
        expected = Counter(census_closed_form(e, transpose) for e in partitions(n))
        return ({int(d): c for d, c in doc["coefficients"].items()} == expected
                and doc["total"] == len(partitions(n)))
    if kind in ("groebner", "initial", "weight-initial"):
        (cols,) = data
        staircase = doc if kind == "initial" else doc["staircase"]
        ok = sum(staircase["columns"]) == sum(cols)
        return ok and (kind != "groebner" or doc["colength"] == sum(cols))
    raise ValueError(f"no check for cli case kind {kind!r}")


def cli_check(api, case, answer):
    code, stdout = answer
    if code not in case.codes:
        return Check(False, None)
    if code != 0:
        return Check(True, None)
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return Check(False, None)
    return Check(_check_doc(case.kind, case.data, doc), stdout)


WORKLOADS = {
    "census": Workload("census", census_inputs, census_call, census_check),
    "descent": Workload("descent", descent_inputs, descent_call, descent_check),
    "flatness": Workload("flatness", flatness_inputs, flatness_call, flatness_check),
    "cli-mix": Workload("cli-mix", cli_inputs, cli_call, cli_check),
}
