"""JSON command-line front end.

Every subcommand writes exactly one JSON document to standard output and
diagnostics to standard error.  ``main`` returns the exit code and raises
nothing: 0 success (or the help text asked for), 1 domain errors (regime
mismatch, unrealizable Hilbert function, failed internal certificate), 2
malformed input.  On 1 and 2 it writes one ``error:`` line to standard
error and nothing to standard output.

One reader, ``_parse_args``, reads every argv from two tables: ``_FLAGS``,
each flag's option string and keywords, and ``_COMMANDS``, each
subcommand's help, flags and handler.  The tests build the standard
library's option parser from the same tables as a reference.  Like it, the
reader refuses a value outside a flag's ``choices`` and a missing
``required`` flag before any handler reads a value; it differs by design:

- a flag always takes the next word as its value, so ``--vector -1,-3``
  reads; the reference refuses a value starting with ``-`` unless it looks
  like a negative number;
- flags are spelled out in full: ``--col`` or ``--h`` is refused, not read
  as an abbreviation;
- a bare ``--`` is refused;
- the first word refused ends the read, so a later ``-h`` prints no help;
- a repeated flag keeps its last value, as in the reference.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import charts, polynomials, strata, tangent
from .errors import BoundExceededError, ConsistencyError, DomainError, NotZeroDimensionalError
from .polynomials import (
    GRLEX_XY,
    LEX_XY,
    LEX_YX,
    cell_order,
    parse_ideal,
)
from .staircases import (
    HilbertFunction,
    Monomial,
    Staircase,
    Weight,
    clefts,
    compare_staircases,
    compatible_staircases,
    construct_staircase,
    enumerate_staircases,
    hilbert_function,
)
from .tangent import CleftCouple


class MalformedInput(ValueError):
    """Unparseable flags or payloads; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

# Most cells a --columns or --other value may hold: past 10**7 the layouts
# run out of memory.  A basis without a direction has its own COUPLES_BOUND.
CELLS_BOUND = 10**5


def _parse_columns(text: str) -> Staircase:
    try:
        cols = [int(c) for c in text.split(",")] if text.strip() else []
    except ValueError as exc:
        raise MalformedInput(f"cannot parse columns {text!r}") from exc
    E = construct_staircase(cols)
    # The count can pass the digit limit, and len() the index size; width and height cannot.
    if sum(E.columns) > CELLS_BOUND:
        raise BoundExceededError(f"cell bound {CELLS_BOUND} exceeded by a staircase "
                                 f"{len(E.columns)} wide and {E.columns[0]} high")
    return E


# Most cleft couples a basis without a direction or the Hom oracle may
# consider, clefts times cells: their run time follows that count, not the
# cells'.  Near the bound, as child processes on a shared 2-vCPU VM,
# unfiltered ``tangent`` takes 1.3 to 1.6 s on one column of 10**5 cells or
# on 72,...,1, and ``hom-oracle`` 0.4 s (92 MB peak) on the column and 0.7
# to 0.9 s (178 MB peak) on 72,...,1.  Every staircase of two clefts within
# CELLS_BOUND stays within it.
COUPLES_BOUND = 2 * 10**5


def _require_couple_bound(E: Staircase) -> None:
    """Refuse E before an undirected basis or the Hom oracle pairs each cleft with each cell."""
    couples = (len(set(E.columns)) + 1) * sum(E.columns)
    if couples > COUPLES_BOUND:
        raise BoundExceededError(f"couple bound {COUPLES_BOUND} exceeded by {couples} "
                                 "cleft couples")


def _unwrap(text: str) -> str:
    """``text`` without one pair of parentheses around the whole of it, if it has one."""
    text = text.strip()
    inner = text[1:-1]
    if text[:1] == "(" and text[-1:] == ")" and "(" not in inner and ")" not in inner:
        return inner
    return text


def _parse_vector(text: str) -> tuple[int, int]:
    try:
        parts = [int(c) for c in _unwrap(text).split(",")]
    except ValueError as exc:
        raise MalformedInput(f"cannot parse integer pair {text!r}") from exc
    if len(parts) != 2:
        raise MalformedInput(f"expected two integers, got {text!r}")
    return (parts[0], parts[1])


def _parse_weights(text: str) -> list[tuple[int, int]]:
    vectors = [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]
    if not vectors:
        raise MalformedInput(f"--weights needs at least one integer pair, got {text!r}")
    return vectors


# Weight entries stay below 10**4290, so every degree of a staircase within
# CELLS_BOUND, below 2 * 10**5 * 10**4290, prints under the 4,300-digit limit.
WEIGHT_BOUND = 10**4290


def _require_weight_bound(a: int, b: int) -> None:
    """Refuse the weight (a, b) past ``WEIGHT_BOUND``, before ``Weight`` checks it."""
    if abs(a) >= WEIGHT_BOUND or abs(b) >= WEIGHT_BOUND:
        raise BoundExceededError("weight bound 10**4290 exceeded by an entry of the weight")


def _weight(args) -> Weight:
    if args.a is None or args.b is None:
        raise MalformedInput("this subcommand needs --a and --b")
    _require_weight_bound(args.a, args.b)
    return Weight(args.a, args.b)


def _maybe_weight(args) -> Weight | None:
    if args.a is None and args.b is None:
        return None
    return _weight(args)


def _read_json(text: str, flag: str, object_pairs_hook=None):
    """``json.loads(text)``, or ``MalformedInput`` naming the flag."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except (ValueError, RecursionError) as exc:  # not JSON, too long an integer, or too deep
        raise MalformedInput(f"{flag} is not valid JSON: {exc}") from exc


def _parse_hilbert(args) -> HilbertFunction:
    # A boolean, or a number with a fraction or exponent, stays its JSON
    # text, which int() below refuses instead of truncating.
    data = _read_json(args.hilbert, "--hilbert", object_pairs_hook=lambda pairs: {
        k: json.dumps(v) if isinstance(v, (bool, float)) else v for k, v in pairs})
    if not isinstance(data, dict):
        raise MalformedInput("--hilbert must be a JSON object")
    if "values" in data:
        needs = ('--hilbert needs integer "a" and "b" and "values" mapping decimal '
                 "degrees to integer counts")
        try:
            a, b = int(data["a"]), int(data["b"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(needs) from exc
        _require_weight_bound(a, b)
        weight = Weight(a, b)
        try:
            counts = {int(k): int(v) for k, v in data["values"].items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedInput(needs) from exc
        hf = HilbertFunction.from_counts(weight, counts)
        w = _maybe_weight(args)
        if w is not None and w != weight:
            raise MalformedInput("--a/--b disagree with the weight in --hilbert")
        return hf
    try:
        counts = {int(k): int(v) for k, v in data.items()}
    except (TypeError, ValueError) as exc:
        raise MalformedInput("--hilbert must map decimal degrees to integer counts") from exc
    return HilbertFunction.from_counts(_weight(args), counts)


def _parse_point(text: str | None) -> dict:
    if not text:
        return {}
    data = _read_json(text, "--point")
    if not isinstance(data, dict):
        raise MalformedInput("--point must be a JSON object")
    point = {}
    for name, value in data.items():
        key = _parse_variable_name(name)
        if key in point:
            raise MalformedInput(f"--point names {polynomials.variable_name(key)} twice")
        try:
            point[key] = _parse_rational(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad rational {value!r} for {name}") from exc
    return point


# Largest |exponent| of a --point value such as "1e3": Fraction expands it
# into that many digits before any other check could refuse it.
POINT_EXPONENT_BOUND = 4300


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``; ValueError also for a value that could not be printed."""
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > POINT_EXPONENT_BOUND:
        raise ValueError(f"exponent above {POINT_EXPONENT_BOUND}")
    q = Fraction(text)
    str(q)  # past the interpreter's digit limit this raises now, not while printing the answer
    return q


def _parse_variable_name(name: str) -> CleftCouple:
    """The couple of a chart variable ``X[...]``, its inside read as a ``--couple`` value."""
    body = name.strip()
    try:
        if body.startswith("X[") and body.endswith("]"):
            return _parse_couple(body[2:-1])
    except MalformedInput:
        pass
    raise MalformedInput(f"bad chart variable name {name!r}")


def _parse_couple(text: str) -> CleftCouple:
    try:
        c_part, m_part = _unwrap(text).split(";")
    except ValueError as exc:
        raise MalformedInput(f"--couple must look like 'cx,cy;mx,my', got {text!r}") from exc
    c = _parse_vector(c_part)
    m = _parse_vector(m_part)
    return CleftCouple(Monomial(*c), Monomial(*m))


_ORDERS = {"lex_xy": LEX_XY, "lex_yx": LEX_YX, "grlex_xy": GRLEX_XY}


def _parse_order(args):
    return cell_order(_weight(args)) if args.order == "cell" else _ORDERS[args.order]


def _chart_request(args) -> tuple[Staircase, str, Weight | None]:
    """Staircase, mode and weight of a chart family, the columns read before the weight."""
    E = _parse_columns(args.columns)
    if args.mode == charts.MODE_INVARIANT:
        return E, args.mode, _weight(args)
    _require_couple_bound(E)
    return E, args.mode, None


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_staircase(args):
    E = _parse_columns(args.columns)
    return {
        "columns": list(E.columns),
        "cardinality": len(E),
        "cells": [[m.alpha, m.beta] for m in E.cells()],
        "clefts": [[m.alpha, m.beta] for m in clefts(E)],
    }


def _cmd_clefts(args):
    E = _parse_columns(args.columns)
    plus = clefts(E)
    return {
        "clefts": [[m.alpha, m.beta] for m in plus],
        "plus": [[m.alpha, m.beta] for m in plus],
        "minus": [[m.alpha, m.beta] for m in reversed(plus)],
    }


def _cmd_hilbert(args):
    E = _parse_columns(args.columns)
    return hilbert_function(E, _weight(args)).to_json()


def _cmd_compatible(args):
    H = _parse_hilbert(args)
    return {"staircases": [E.to_json() for E in compatible_staircases(H)]}


def _cmd_compare(args):
    E = _parse_columns(args.columns)
    F = _parse_columns(args.other)
    result = compare_staircases(E, F, _weight(args))
    return {"comparison": result.value}


def _cmd_tangent(args):
    E = _parse_columns(args.columns)
    w = _maybe_weight(args)
    if w is None:
        _require_couple_bound(E)
    return tangent.tangent_basis(E, w).to_json()


def _cmd_graph(args):
    E = _parse_columns(args.columns)
    return tangent.significance_graph(E, _weight(args)).to_json()


def _cmd_hom_oracle(args):
    E = _parse_columns(args.columns)
    _require_couple_bound(E)
    chars = tangent.hom_tangent_oracle(E)
    return {"dimension": len(chars), "characters": [list(c) for c in chars]}


def _cmd_cells(args):
    E = _parse_columns(args.columns)
    vector = _parse_vector(args.vector)
    return {"vector": list(vector), "cell_dimension": strata._arm_leg_dimension(E, vector)}


def _cmd_chart(args):
    return charts.build_chart_family(*_chart_request(args)).to_json()


def _cmd_specialize(args):
    # The cleft plan over Q at the point equals specialize_family on the
    # family, which is not built.
    request = _chart_request(args)
    point = _parse_point(args.point)  # before the basis is built
    basis = charts._chart_basis(*request)
    plan = charts.cleft_plan(basis)
    values = charts._point_values(basis.positive, point)
    gens, _ = plan.evaluate(values)
    # Products of point values can pass the digit limit; refuse them before rendering.
    return {"generators": [polynomials._check_coefficients(p).to_text() for p in gens]}


SAMPLES_BOUND = 100  # largest verify-flat --samples: its points are laid out before any check


def _cmd_verify_flat(args):
    if not 0 <= args.samples <= SAMPLES_BOUND:
        raise BoundExceededError(f"--samples {args.samples} outside 0 to bound {SAMPLES_BOUND}")
    fam = charts.build_chart_family(*_chart_request(args))
    return charts.verify_flatness(fam, extra_samples=args.samples, seed=args.seed,
                                  step_limit=args.max_steps).to_json()


def _cmd_degenerate(args):
    E = _parse_columns(args.columns)
    couple = _parse_couple(args.couple) if args.couple else None
    step = strata.degenerate_once(E, _weight(args), couple, step_limit=args.max_steps)
    return step.to_json()


def _cmd_descend(args):
    E = _parse_columns(args.columns)
    steps = strata.descend_to_minimal(E, _weight(args), policy=args.policy,
                                      seed=args.seed, step_limit=args.max_steps)
    final = steps[-1].target if steps else E
    return {"chain": [s.to_json() for s in steps], "final": final.to_json()}


def _cmd_minimal(args):
    H = _parse_hilbert(args)
    return strata.minimal_staircase(H).to_json()


def _cmd_components(args):
    reports = strata.component_report(args.length, _weight(args))
    return {"components": [r.to_json() for r in reports]}


def _cmd_poincare(args):
    vector = _parse_vector(args.vector)
    counts = strata.poincare_polynomial(args.length, vector)
    return {
        "length": args.length,
        "vector": list(vector),
        "coefficients": {str(d): c for d, c in counts.items()},
        "total": sum(counts.values()),
    }


def _cmd_groebner(args):
    gens = parse_ideal(args.ideal)
    gb = polynomials.buchberger(gens, _parse_order(args), step_limit=args.max_steps)
    try:
        E = polynomials.standard_monomials(gb)
        staircase_json, col = E.to_json(), len(E)
    except NotZeroDimensionalError:
        staircase_json, col = None, None
    return {
        "is_groebner": polynomials._leads_generate(gens, gb),
        "colength": col,
        "staircase": staircase_json,
        "basis": [g.to_text() for g in gb.generators],
        "leading": [[m.alpha, m.beta] for m in gb.leading_monomials],
    }


def _cmd_initial(args):
    return polynomials.initial_staircase(parse_ideal(args.ideal), _parse_order(args),
                                         step_limit=args.max_steps).to_json()


def _cmd_weight_initial(args):
    limit = polynomials.weight_initial_ideal(parse_ideal(args.ideal), _parse_vector(args.vector),
                                             args.extremum, step_limit=args.max_steps)
    # The weight order breaks ties by LEX_YX, so the initial parts of its
    # basis are a LEX_YX basis of the limit: in_<(in_w I) = in_{<_w} I.
    E = polynomials.standard_monomials(polynomials.GroebnerBasis(tuple(limit), LEX_YX))
    return {
        "generators": [p.to_text() for p in limit],
        "staircase": E.to_json(),
    }


# ---------------------------------------------------------------------------
# Batch suites
# ---------------------------------------------------------------------------

def _census_agreement(l, vectors):
    """The census of length l, equal under every vector."""
    results = [strata.poincare_polynomial(l, v) for v in vectors]
    _require(all(r == results[0] for r in results), f"census differs at length {l}")
    return results[0]


def _require(ok: bool, witness: str) -> None:
    """A suite check; unlike ``assert`` it also runs under ``python -O``."""
    if not ok:
        raise ConsistencyError(witness)


def _suite_item(name, check):
    try:
        detail = check()
        return {"name": name, "ok": True, "detail": detail}
    except (DomainError, ConsistencyError) as exc:
        return {"name": name, "ok": False, "witness": str(exc)}


# Largest ``run-suite verify-all --max-length``: length 12 takes 0.7 to 1.2 s
# in process on a shared 2-vCPU VM, and each further length about 1.7 times as long.
VERIFY_ALL_BOUND = 12


def _require_max_length(max_length: int) -> None:
    """A suite over the lengths 1 to ``max_length`` must check at least one."""
    if max_length < 1:
        raise DomainError("max length must be at least 1")


def _suite_verify_all(args):
    max_length = args.max_length
    _require_max_length(max_length)
    if max_length > VERIFY_ALL_BOUND:
        raise BoundExceededError(
            f"verify-all bound {VERIFY_ALL_BOUND} exceeded by max length {max_length}"
        )
    seed = args.seed
    lengths = range(1, max_length + 1)

    unfiltered = functools.cache(tangent.tangent_basis)  # also read by the general families

    def oracle_equivalence():
        for l in lengths:
            for E in enumerate_staircases(l):
                basis = unfiltered(E)
                mine = tuple(sorted(c.char for c in basis.significant))
                oracle = tangent.hom_tangent_oracle(E)
                _require(mine == oracle, f"character mismatch at {E.columns}")
                _require(len(oracle) == 2 * l, f"dimension {len(oracle)} at {E.columns}")
        return f"all staircases up to length {max_length}"

    def graph_dimension():
        for w in (Weight(1, -1), Weight(2, -1), Weight(1, -3), Weight(0, -1), Weight(-1, -2)):
            for l in lengths:
                for bases in grouped(l, w).values():
                    for E, tb in bases.items():
                        g = tangent._graph(tb)
                        t = tb.dimension
                        _require(g.dimension == t,
                                 f"graph {g.dimension} vs tangent {t} at {E.columns}")
        return "graph dimension matches the tangent basis for five weights"

    grouped = functools.cache(strata._classes)  # each (l, w) grouped once for all items

    @functools.cache
    def checked(l, w):  # each class's least member found once, as ``components`` finds it
        profiles = {}
        return {H: strata._least_of_class(H, bases, profiles)
                for H, bases in grouped(l, w).items()}, profiles

    def statements(l, w):  # the class statements alone, apart from the least members
        for H, bases in grouped(l, w).items():
            strata._class_statement(H, bases)

    descent_weights = (Weight(1, -1), Weight(2, -1), Weight(3, -2), Weight(1, -3))

    def every_class(read, weights, detail):
        def check():
            for w in weights:
                for l in lengths:
                    read(l, w)
            return detail
        return check

    def descent():
        w, steps = Weight(1, -1), {}
        for l in lengths:
            least, profiles = checked(l, w)
            for H, bases in grouped(l, w).items():
                for E in bases:
                    for policy in ("first", "last", "random"):
                        strata._chain(E, least[H], policy, seed, H, bases, profiles, steps)
        return "all descent policies end at the minimal staircase"

    def flatness():
        def certify(fam):
            cert = charts.verify_flatness(fam, extra_samples=3, seed=seed)
            _require(cert.valid, f"{fam.mode} family of {fam.staircase.columns}: {cert.witness}")

        w = Weight(1, -1)
        for l in lengths:
            invariant = {E: tb for bases in grouped(l, w).values() for E, tb in bases.items()}
            for E in enumerate_staircases(l):
                certify(charts._family(invariant[E]))
                certify(charts._family(unfiltered(E)))
        return "flatness certificates valid in both modes"

    def poincare_census():
        v1 = (-1, -(max_length + 1))
        v2 = (-2, -(2 * max_length + 1))
        for l in lengths:
            _census_agreement(l, (v1, v2))
        return f"census invariant across {v1} and {v2}"

    items = [
        _suite_item("tangent-oracle-equivalence", oracle_equivalence),
        _suite_item("graph-dimension", graph_dimension),
        _suite_item("dimension-constancy", every_class(
            statements, descent_weights, "dimension constant on every Hilbert-function class")),
        _suite_item("minimal-staircase-agreement", every_class(
            checked, descent_weights, "recursion agrees with the enumeration oracle")),
        _suite_item("descent-convergence", descent),
        _suite_item("flatness-certificates", flatness),
        _suite_item("ab-positive-collapse", every_class(
            statements, (Weight(-1, -2), Weight(-2, -3)),
            "every class is a single point with zero invariant tangent space")),
        _suite_item("poincare-census", poincare_census),
    ]
    return {
        "suite": "verify-all",
        "max_length": max_length,
        "seed": seed,
        "items": items,
        "all_ok": all(item["ok"] for item in items),
    }


def _suite_components(args):
    w = _weight(args)
    reports = strata.component_report(args.length, w)
    items = [
        {
            "name": f"H={json.dumps({str(d): c for d, c in r.hilbert.values}, sort_keys=True)}",
            "ok": True,
            "constancy": True,
            "report": r.to_json(),
        }
        for r in reports
    ]
    return {
        "suite": "components",
        "length": args.length,
        "weight": w.to_json(),
        "items": items,
        "all_ok": True,
    }


def _suite_poincare(args):
    vectors = _parse_weights(args.weights)
    _require_max_length(args.max_length)
    if args.max_length > strata.POINCARE_BOUND:
        raise BoundExceededError(
            f"poincare bound {strata.POINCARE_BOUND} exceeded by max length {args.max_length}"
        )
    items = []
    for l in range(1, args.max_length + 1):
        def census(l=l):
            return {str(d): c for d, c in _census_agreement(l, vectors).items()}
        items.append(_suite_item(f"length-{l}", census))
    return {
        "suite": "poincare",
        "max_length": args.max_length,
        "weights": [list(v) for v in vectors],
        "items": items,
        "all_ok": all(item["ok"] for item in items),
    }


# ---------------------------------------------------------------------------
# Argv reader and entry point
# ---------------------------------------------------------------------------

# Every flag by key: its option string and keywords, read by ``_parse_args``
# and ``_flag_help``: ``type`` (``int``, or text if absent), ``default``,
# ``required``, ``choices`` and ``help``.  They are ``add_argument`` keywords
# of the standard library's option parser too, which the tests build from here.
_FLAGS = {
    "columns": ("--columns", dict(required=True, help="staircase column heights, e.g. 4,2")),
    "a": ("--a", dict(type=int)),
    "b": ("--b", dict(type=int)),
    "hilbert": ("--hilbert", dict(required=True,
                                  help='degree counts as JSON, e.g. \'{"0":1,"1":2}\'')),
    "order": ("--order", dict(default="lex_yx", choices=(*_ORDERS, "cell"),
                              help="monomial order (cell needs --a/--b)")),
    "ideal": ("--ideal", dict(required=True,
                              help="semicolon-separated generators, e.g. 'x*y^2+y^3; x^2'")),
    "mode": ("--mode", dict(required=True, choices=(charts.MODE_INVARIANT, charts.MODE_GENERAL),
                            help="tangent space the family spans (invariant needs --a/--b)")),
    "vector": ("--vector", dict(required=True, help="integer pair, e.g. '-1,-3'")),
    "seed": ("--seed", dict(type=int, default=7)),
    "max_steps": ("--max-steps", dict(type=int,
                                      help="resource guard for polynomial reductions")),
    "other": ("--other", dict(required=True, help="second staircase columns")),
    "point": ("--point", dict(help='JSON point, e.g. \'{"X[0,1;1,0]":"1"}\'; a name may '
                                   "also read X[(0,1);(1,0)] or X[(0,1;1,0)]")),
    "samples": ("--samples", dict(type=int, default=3, help="extra pseudo-random sample points")),
    "couple": ("--couple", dict(help="couple to specialize, e.g. '0,1;1,0'")),
    "policy": ("--policy", dict(default="first", choices=strata.POLICIES,
                                help="which couple each descent step takes")),
    "extremum": ("--extremum", dict(default="max", choices=("max", "min"))),
    "length": ("--length", dict(type=int, required=True)),
    "max_length": ("--max-length", dict(type=int, default=6)),
    "weights": ("--weights", dict(required=True,
                                  help="semicolon-separated pairs, e.g. '(-1,-3);(-2,-5)'")),
}

# Every subcommand by name: (help, flag keys in help order, handler).  A row
# without a handler holds its own rows in place of flags: ``run-suite``'s
# suites, chosen by the next word.
_COMMANDS = {
    "staircase": ("construct a staircase and list its data", "columns", _cmd_staircase),
    "clefts": ("minimal generators of the complement ideal", "columns", _cmd_clefts),
    "hilbert": ("Hilbert function of a staircase", "columns a b", _cmd_hilbert),
    "compatible": ("all staircases with a given Hilbert function", "a b hilbert",
                   _cmd_compatible),
    "compare": ("S-profile order between two staircases", "columns a b other", _cmd_compare),
    "tangent": ("significant cleft couples, optionally by direction", "columns a b",
                _cmd_tangent),
    "graph": ("significance graph in one direction", "columns a b", _cmd_graph),
    "hom-oracle": ("tangent space via exact linear algebra", "columns", _cmd_hom_oracle),
    "cells": ("attracting-cell dimension for a torus weight vector", "columns vector",
              _cmd_cells),
    "chart": ("chart family over the positive tangent space", "columns a b mode", _cmd_chart),
    "specialize": ("evaluate a chart family at a point", "columns a b mode point",
                   _cmd_specialize),
    "verify-flat": ("flatness certificate of a chart family",
                    "columns a b mode seed max_steps samples", _cmd_verify_flat),
    "degenerate": ("one flat degeneration to a smaller stratum", "columns a b max_steps couple",
                   _cmd_degenerate),
    "descend": ("degenerate until the positive tangent space vanishes",
                "columns a b seed max_steps policy", _cmd_descend),
    "minimal": ("minimal staircase of a Hilbert function", "a b hilbert", _cmd_minimal),
    "components": ("full report per Hilbert-function class", "a b length", _cmd_components),
    "poincare": ("cell-dimension census over one length", "vector length", _cmd_poincare),
    "groebner": ("Groebner check, reduced basis and colength", "a b order ideal max_steps",
                 _cmd_groebner),
    "initial": ("staircase of the initial ideal", "a b order ideal max_steps", _cmd_initial),
    "weight-initial": ("extremal-weight initial ideal (flat limit)",
                       "ideal vector max_steps extremum", _cmd_weight_initial),
    "run-suite": ("batch property suites with JSON summaries", {
        "verify-all": ("every acceptance check up to a length", "seed max_length",
                       _suite_verify_all),
        "components": ("component report of one length", "a b length", _suite_components),
        "poincare": ("census agreement across weight vectors", "max_length weights",
                     _suite_poincare),
    }, None),
}

_DESCRIPTION = ("Staircase invariants of equivariant punctual Hilbert schemes; "
                "one JSON document per invocation.")
_HELP = ("-h", "--help")


def _help(usage: str, text: str, rows) -> str:
    """Help text: the usage line, ``text``, then (name, about) ``rows`` in two columns."""
    rows = [*rows, ("-h, --help", "show this help")]
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([f"usage: {usage}", "", text, "",
                      *(f"  {name:<{width}}{about}".rstrip() for name, about in rows)]) + "\n"


def _flag_help(prog: str, text: str, keys: str) -> str:
    """Help text of one subcommand or suite: its flags, required ones unbracketed."""
    usage, rows = [prog], []
    for option, spec in (_FLAGS[key] for key in keys.split()):
        value = ("{%s}" % ",".join(spec["choices"]) if "choices" in spec
                 else option[2:].upper().replace("-", "_"))
        usage.append(f"{option} {value}" if spec.get("required") else f"[{option} {value}]")
        rows.append((f"{option} {value}", spec.get("help", "")))
    return _help(" ".join(usage), text, rows)


@functools.cache
def _command_flags(keys: str) -> tuple[dict, dict]:
    """The flags of ``keys``, each option's (dest, spec), and each dest's default; built once."""
    flags, defaults = {}, {}
    for option, spec in (_FLAGS[key] for key in keys.split()):
        dest = option[2:].replace("-", "_")
        flags[option] = dest, spec
        defaults[dest] = spec.get("default")
    return flags, defaults


def _parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The namespace ``argv`` names, or the help text it asks for.

    The first word names a subcommand, and after ``run-suite`` the next a
    suite; every later word is one of its flags, ``--flag value`` or
    ``--flag=value``.  ``-h`` or ``--help`` in place of any of these gives
    the help of what precedes it.  The namespace holds ``command`` (and
    ``suite``), ``handler`` and each flag's value or default.
    ``MalformedInput`` refuses the first word that does not fit, or at the
    end a missing required flag.
    """
    words, prog, text, rows, found = iter(argv), "hilbcells", _DESCRIPTION, _COMMANDS, {}
    for dest, kind in (("command", "subcommand"), ("suite", "suite")):
        word = next(words, None)
        if word in _HELP:
            return _help(f"{prog} {kind.upper()} [--flag VALUE ...]", text,
                         [(name, row[0]) for name, row in rows.items()])
        if word not in rows:
            got = "nothing" if word is None else repr(word)
            raise MalformedInput(f"{prog} needs a {kind} ({', '.join(rows)}), got {got}")
        found[dest], prog = word, f"{prog} {word}"
        text, keys, handler = rows[word]
        if handler is not None:
            break
        rows = keys
    flags, defaults = _command_flags(keys)
    values = dict(found, handler=handler, **defaults)
    for word in words:
        if word in _HELP:
            return _flag_help(prog, text, keys)
        option, eq, value = word.partition("=")
        if option not in flags:
            raise MalformedInput(f"{prog} has no flag {word!r}")
        if not eq:
            value = next(words, None)
            if value is None:
                raise MalformedInput(f"{option} needs a value")
        dest, spec = flags[option]
        try:
            value = spec.get("type", str)(value)
        except ValueError as exc:
            raise MalformedInput(f"{option} needs an integer, got {value!r}") from exc
        if value not in spec.get("choices", (value,)):
            raise MalformedInput(f"{option} needs one of {', '.join(spec['choices'])}, "
                                 f"got {value!r}")
        values[dest] = value
    missing = [option for option, (dest, spec) in flags.items()
               if spec.get("required") and values[dest] is None]  # no value read is None
    if missing:
        raise MalformedInput(f"{prog} needs {', '.join(missing)}")
    return SimpleNamespace(**values)


# One encoder for every answer; ``json.dumps`` with keywords builds one per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def main(argv: list[str] | None = None) -> int:
    """Run one argv and return its exit code; may be called any number of times in one process.

    0: one JSON document, or the help text asked for, on stdout.  1: a
    domain error, 2: malformed input, each as one ``error:`` line on stderr
    and nothing on stdout.  Calls share no state.
    """
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        payload = args.handler(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_encode(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
