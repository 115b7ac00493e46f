"""Explicit chart families over the positive tangent space of a staircase.

The generators deform each cleft by a universal polynomial in chart
variables, one variable per significant positive couple (all of them in
general mode, only those of a fixed direction in invariant mode).  At the
origin the family degenerates to the monomial ideal.  ``verify_flatness``,
not construction, certifies the leading terms and the origin fiber, and
flatness symbolically through S-pair reduction plus sampled
specializations of constant colength.  The rationals are the constants of
the chart ring, so a specialized generator is a rational polynomial and one
recursion, ``CleftPlan.evaluate``, runs over either ring.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError, RegimeError
from .polynomials import (
    LEX_YX,
    BivariatePolynomial,
    ChartCoefficient,
    PairStatus,
    VarKey,
    _Divisor,
    _s_pair_remainder,
    exact_rational,
    initial_staircase,
    variable_name,
)
from .staircases import Monomial, Staircase, Weight, clefts
from .tangent import CleftCouple, TangentBasis, tangent_basis

MODE_INVARIANT = "invariant"
MODE_GENERAL = "general"


class ChartFamily(NamedTuple):
    """Universal ideal generators over the chart variables of a staircase."""

    staircase: Staircase
    mode: str
    weight: Optional[Weight]
    variables: tuple[VarKey, ...]
    clefts: tuple[Monomial, ...]
    generators: tuple[BivariatePolynomial, ...]          # P, aligned with clefts
    q_polynomials: tuple[tuple[VarKey, BivariatePolynomial], ...]

    def to_json(self) -> dict:
        return {
            "staircase": self.staircase.to_json(),
            "mode": self.mode,
            "weight": self.weight.to_json() if self.weight else None,
            "variables": [variable_name(v) for v in self.variables],
            "generators": [p.to_text() for p in self.generators],
            "q": {variable_name(v): q.to_text() for v, q in self.q_polynomials},
        }


class CleftPlan(NamedTuple):
    """The cleft recursion of ``build_chart_family``, read from a tangent basis.

    Row i, from the second-to-last cleft down, holds the shift from cleft
    i+1 to cleft i and, per indexed couple (c_i, m), its variable, its
    landing cleft c_{i+k} and the shift from c_{i+k} to m.
    """

    clefts: tuple[Monomial, ...]
    rows: tuple[tuple[int, tuple[int, int], tuple[tuple[VarKey, int, tuple[int, int]], ...]], ...]

    def evaluate(
        self, values: Mapping[VarKey, object]
    ) -> tuple[list[BivariatePolynomial], list[tuple[VarKey, BivariatePolynomial]]]:
        """Generators P, and each couple's Q, with the variables set to ``values``.

        Values are rationals or chart coefficients, and 1 is the unit of
        either ring; an absent variable is zero and its term is skipped.
        Every step is ring arithmetic, so evaluating at a rational point
        equals substituting it into the chart-ring generators.
        """
        cs = self.clefts
        P: list[Optional[BivariatePolynomial]] = [None] * len(cs)
        P[-1] = BivariatePolynomial.of_monomial(cs[-1])
        q_polys: list[tuple[VarKey, BivariatePolynomial]] = []
        for i, shift, couples in self.rows:
            total = P[i + 1].mul_laurent(*shift)
            for key, target, (da, db) in couples:
                if key not in values:
                    continue
                q = P[target].mul_laurent(da, db)
                q_polys.append((key, q))
                total = total + q.scale(values[key])
            P[i] = total
        return P, q_polys


def cleft_plan(basis: TangentBasis) -> CleftPlan:
    """The recursion indexed by the positive couples of the basis.

    Each couple's moved monomial, its landing, goes to the largest cleft
    dividing it: clefts rise in alpha and fall in beta, so that is the last
    cleft whose alpha is at most the landing's.  A significant couple's
    landing lies outside E with alpha at least that of c_{i+1}, so that
    cleft divides it and lies past c_i.
    """
    E = basis.staircase
    cs = clefts(E)
    alphas = [c.alpha for c in cs]
    by_cleft: dict[int, list[CleftCouple]] = {}
    for couple in sorted(basis.positive):
        by_cleft.setdefault(cs.index(couple.c), []).append(couple)
    rows = []
    for i in range(len(cs) - 2, -1, -1):
        (ca, cb), (na, nb) = cs[i], cs[i + 1]
        couples = []
        for couple in by_cleft.get(i, ()):
            ma, mb = couple.m
            la = ma + na - ca  # the landing m * lcm(c_i, c_i+1) / c_i is (la, mb)
            target = bisect_right(alphas, la) - 1
            ta, tb = cs[target]
            couples.append((couple, target, (ma - ta, mb - tb)))
        rows.append((i, (ca - na, cb - nb), tuple(couples)))
    return CleftPlan(cs, tuple(rows))


def build_chart_family(
    E: Staircase, mode: str, weight: Optional[Weight] = None
) -> ChartFamily:
    """Run the decreasing cleft recursion for the chart generators.

    For each indexed couple (c_i, m) the monomial m*(lcm(c_i, c_{i+1})/c_i)
    escapes the staircase and lands in the sector of a later cleft c_{i+k};
    the couple contributes X[c_i;m] * P(c_{i+k}) * (m/c_{i+k}).  Products are
    formed in Laurent form and must come out polynomial.  The recursion is
    ``cleft_plan`` evaluated over the chart ring.
    """
    return _family(_chart_basis(E, mode, weight))


def _chart_basis(E: Staircase, mode: str, weight: Optional[Weight]) -> TangentBasis:
    """The tangent basis whose positive couples index the family of the mode."""
    if mode == MODE_INVARIANT:
        if weight is None:
            raise RegimeError("invariant mode needs a weight (a > 0, b < 0)")
        if weight.a <= 0:
            raise RegimeError(f"invariant mode needs a > 0, got ({weight.a}, {weight.b})")
        return tangent_basis(E, weight)
    if mode == MODE_GENERAL:
        if weight is not None:
            raise RegimeError("general mode takes no weight")
        return tangent_basis(E)
    raise DomainError(f"unknown chart mode {mode!r}")


def _family(basis: TangentBasis) -> ChartFamily:
    """The chart family of a tangent basis: invariant in its direction, general without one."""
    plan, w = cleft_plan(basis), basis.direction
    variables = tuple(sorted(basis.positive))
    P, q_polys = plan.evaluate({key: ChartCoefficient.variable(key) for key in variables})
    mode = MODE_GENERAL if w is None else MODE_INVARIANT
    return ChartFamily(basis.staircase, mode, w, variables, plan.clefts, tuple(P), tuple(q_polys))


def specialize_family(
    fam: ChartFamily, point: Mapping[VarKey, Fraction]
) -> list[BivariatePolynomial]:
    """Substitute rational values for the chart variables; absent means zero.

    Integral values are kept as ``int``, so a unit point specializes in
    integers.
    """
    values = _point_values(fam.variables, point)
    return [p.substitute_chart(values) for p in fam.generators]


def _point_values(variables, point: Mapping[VarKey, Fraction]) -> dict[VarKey, int | Fraction]:
    """The point's values as exact rationals; it must assign only the variables."""
    unknown = set(point).difference(variables)
    if unknown:
        names = ", ".join(sorted(variable_name(v) for v in unknown))
        raise DomainError(f"point assigns variables outside the family: {names}")
    return {k: exact_rational(v) for k, v in point.items()}


def default_sample_points(
    fam: ChartFamily, extra: int = 3, seed: int = 7
) -> list[dict[VarKey, int | Fraction]]:
    """All unit points, then seeded pseudo-random points with small rationals."""
    rng = random.Random(seed)
    return [{v: 1} for v in fam.variables] + [
        {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in fam.variables}
        for _ in range(extra)
    ]


class SampleCheck(NamedTuple):
    point: tuple[tuple[VarKey, str], ...]
    colength: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "point": {variable_name(k): v for k, v in self.point},
            "colength": self.colength,
            "ok": self.ok,
        }


class FlatnessCertificate(NamedTuple):
    """Witness record for the constant-colength property of a chart family."""

    valid: bool
    leading_ok: bool
    spairs: tuple[PairStatus, ...]
    origin_ok: bool
    samples: tuple[SampleCheck, ...]
    witness: Optional[str]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "leading_ok": self.leading_ok,
            "spairs": [p._asdict() for p in self.spairs],
            "origin_ok": self.origin_ok,
            "samples": [s.to_json() for s in self.samples],
            "witness": self.witness,
        }


def verify_flatness(
    fam: ChartFamily,
    extra_samples: int = 3,
    seed: int = 7,
    step_limit: Optional[int] = None,
) -> FlatnessCertificate:
    """Certify constant colength: symbolic S-pairs, origin fiber, samples.

    The symbolic part checks that every consecutive-cleft S-polynomial of the
    generators reduces to zero over the chart ring and that leading monomials
    are exactly the clefts (consecutive pairs suffice: the lcm of two distant
    clefts is divisible by every cleft in between).

    The colength of each of ``default_sample_points(fam, extra_samples,
    seed)`` is the size of the ``LEX_YX`` ``initial_staircase`` of its
    specialized generators.  The origin fiber and every sample come from
    ``specialize_family``, which substitutes into the generators being
    certified.  A zero generator, a tripped step limit or an infinite
    colength gives colength -1.
    """
    witness = None

    leading_ok = True
    for c, p in zip(fam.clefts, fam.generators):
        lm = p.leading_monomial(LEX_YX)
        if lm != c or p.terms[lm] != 1:
            leading_ok = False
            witness = f"generator for cleft {c} leads with {lm}"

    records: list = []
    for p in fam.generators:
        try:
            records.append(_Divisor(p, LEX_YX))
        except DomainError as exc:
            records.append(exc)
    first_failure = next((r for r in records if isinstance(r, DomainError)), None)
    spairs = []
    for i in range(len(records) - 1):
        # A pair fails on its own generators first, then on any divisor.
        failure = next((r for r in records[i:i + 2] if isinstance(r, DomainError)),
                       first_failure)
        if failure is None:
            try:
                rem = _s_pair_remainder(records, i, i + 1, LEX_YX, step_limit)
            except DomainError as exc:
                failure = exc
        if failure is not None:
            spairs.append(PairStatus(i, i + 1, False, f"reduction failed: {failure}"))
            if witness is None:
                witness = f"S-pair ({i}, {i + 1}) cannot be reduced: {failure}"
            continue
        spairs.append(PairStatus(i, i + 1, not rem, rem.to_text()))
        if rem and witness is None:
            witness = f"S-pair ({i}, {i + 1}) leaves remainder {rem.to_text()}"

    expected = [BivariatePolynomial.of_monomial(c, 1) for c in fam.clefts]
    origin_ok = specialize_family(fam, {}) == expected
    if not origin_ok and witness is None:
        witness = "origin fiber differs from the monomial ideal"

    checks = []
    target = len(fam.staircase)
    for point in default_sample_points(fam, extra=extra_samples, seed=seed):
        frozen = tuple(sorted((k, str(exact_rational(v))) for k, v in point.items()))
        try:
            col = len(initial_staircase(specialize_family(fam, point), LEX_YX, step_limit))
        except DomainError:
            col = -1
        ok = col == target
        checks.append(SampleCheck(frozen, col, ok))
        if not ok and witness is None:
            witness = f"specialization {dict(frozen)} has colength {col}, expected {target}"

    valid = (leading_ok and origin_ok and all(p.remainder_zero for p in spairs)
             and all(c.ok for c in checks))
    return FlatnessCertificate(valid, leading_ok, tuple(spairs), origin_ok, tuple(checks), witness)
