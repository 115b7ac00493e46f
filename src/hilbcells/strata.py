"""Degenerations between strata and the minimal staircase of a component.

One degeneration step specializes the invariant chart family of a staircase
at a nonzero point and takes the flat limit of the orbit under the torus
scaling x alone; the limit is a strictly smaller staircase with the same
Hilbert function.  Iterating lands on the unique compatible staircase with
trivial positive tangent space, which the bottom-row recursion constructs
directly and an exhaustive oracle double-checks.
"""

from __future__ import annotations

import random
from typing import Mapping, NamedTuple, Optional

from .charts import cleft_plan
from .errors import (
    BoundExceededError,
    ConsistencyError,
    DomainError,
    RegimeError,
    UnrealizableError,
)
from .polynomials import LEX_XY, BivariatePolynomial, initial_staircase, variable_name
from .staircases import (
    Comparison,
    HilbertFunction,
    Staircase,
    Weight,
    _compare_profiles,
    _require_mass,
    clefts,
    compatible_staircases,
    enumerate_staircases,
    hilbert_function,
    s_profile,
)
from .tangent import CleftCouple, TangentBasis, arm_leg_characters, cell_dimension, tangent_basis


def _require_descent_regime(w: Weight) -> None:
    if w.a <= 0:
        raise RegimeError(f"degenerations need a > 0, b < 0; got ({w.a}, {w.b})")


def _positive_couples(basis: TangentBasis) -> list[CleftCouple]:
    """The positive couples ordered by cleft under the y-lex order, then cell."""
    return sorted(basis.positive, key=lambda cp: (-cp.c.alpha, cp.m.alpha, cp.m.beta))


class DegenerationStep(NamedTuple):
    """One strict descent in the staircase order, with full evidence."""

    source: Staircase
    couple: CleftCouple
    specialized: tuple[BivariatePolynomial, ...]
    limit: tuple[BivariatePolynomial, ...]
    target: Staircase
    source_profile: tuple[int, ...]
    target_profile: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "couple": self.couple.to_json(),
            "point": {variable_name(self.couple): "1"},
            "specialized": [p.to_text() for p in self.specialized],
            "limit": [p.to_text() for p in self.limit],
            "target": self.target.to_json(),
            "profiles": {
                "source": list(self.source_profile),
                "target": list(self.target_profile),
            },
        }


def degenerate_once(
    E: Staircase,
    w: Weight,
    couple: Optional[CleftCouple] = None,
    step_limit: Optional[int] = None,
) -> DegenerationStep:
    """Flat limit of the unit-point member of the invariant family of E.

    The limit is the x-weight-maximal initial ideal of the specialized
    generators, a monomial ideal; the target is read off it and certified
    distinct from E, strictly below it in the S-profile order, and of equal
    Hilbert function.  One call builds one tangent basis and no chart family,
    reads one initial staircase, computes two Hilbert functions and two S-profiles.
    """
    _require_descent_regime(w)
    basis = tangent_basis(E, w)
    candidates = _positive_couples(basis)
    if not candidates:
        raise DomainError(f"positive tangent space of {E.columns} in direction "
                          f"({w.a}, {w.b}) is empty; nothing to degenerate")
    if couple is None:
        couple = candidates[0]
    elif couple not in candidates:
        raise DomainError(f"({couple.c}, {couple.m}) is not a significant positive "
                          f"couple of direction ({w.a}, {w.b})")
    return _degenerate(basis, couple, hilbert_function(E, w), {}, step_limit)


def _degenerate(basis: TangentBasis, couple: CleftCouple, H: HilbertFunction,
                profiles: dict[Staircase, tuple[int, ...]],
                step_limit: Optional[int]) -> DegenerationStep:
    """Degenerate the source of an invariant tangent basis at one of its couples.

    The specialized generators are the cleft recursion of the basis
    evaluated over Q with the couple's variable 1 and every other 0, equal
    to substituting that point into the invariant chart family, which is
    not built.  H is the source's Hilbert function; the target's must equal
    it.  The S-profiles are read from ``profiles``, or computed and added to
    it.  The step reads one initial staircase, under ``LEX_XY``, and computes
    the target's Hilbert function and at most two S-profiles.
    """
    E, w = basis.staircase, basis.direction
    gens, _ = cleft_plan(basis).evaluate({couple: 1})
    # Chart variables have (a, b)-degree 0, so the x-degree-maximal initial ideal is
    # homogeneous in x-degree and in (a, b)-degree; with a != 0 it is monomial, hence
    # the LEX_XY leading ideal, whose reduced basis is the clefts of F in order.
    F = initial_staircase(gens, LEX_XY, step_limit)
    limit = tuple(BivariatePolynomial.of_monomial(c) for c in clefts(F))

    def inconsistent(reason: str, *found: str) -> ConsistencyError:
        return ConsistencyError(", ".join((
            f"{reason}: source {E.columns}",
            f"couple ({couple.c}, {couple.m})",
            f"specialized [{'; '.join(p.to_text() for p in gens)}]",
            f"limit [{'; '.join(p.to_text() for p in limit)}]",
            *found,
        )))

    if hilbert_function(F, w) != H:
        raise inconsistent("degeneration changed the Hilbert function", f"target {F.columns}")
    for S in (E, F):
        if S not in profiles:
            profiles[S] = s_profile(S, w)
    if _compare_profiles(profiles[F], profiles[E]) != Comparison.LESS:
        raise inconsistent("limit staircase is not below the source", f"target {F.columns}")

    return DegenerationStep(E, couple, tuple(gens), limit, F, profiles[E], profiles[F])


# How a descent step picks its couple: first, last or seeded random.
POLICIES = ("first", "last", "random")


def descend_to_minimal(
    E: Staircase,
    w: Weight,
    policy: str = "first",
    seed: int = 0,
    step_limit: Optional[int] = None,
) -> tuple[DegenerationStep, ...]:
    """Degenerate until the positive tangent space vanishes.

    The couple picked at each step follows the policy (first, last, or
    seeded random); the endpoint does not depend on it.  A descent of k
    steps builds k+1 tangent bases and no chart family, reads k initial staircases
    and computes k+1 Hilbert functions and k+1 S-profiles (none if k = 0):
    each target is checked against E's and carries its profile onward.
    """
    _require_descent_regime(w)
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    return _descend(E, w, policy, seed, step_limit, {}, {}, {})


def _descend(E: Staircase, w: Weight, policy: str, seed: int, step_limit: Optional[int],
             bases: dict, profiles: dict, steps: dict,
             H: Optional[HilbertFunction] = None) -> tuple[DegenerationStep, ...]:
    """``descend_to_minimal`` over state it may share, building only what is missing.

    ``bases`` and ``profiles`` hold tangent bases and S-profiles at w, and
    ``steps`` the steps taken, keyed by (source, couple); H is E's Hilbert
    function.  The descents within one class may share all four.
    """
    rng = random.Random(seed) if policy == "random" else None
    chain: list[DegenerationStep] = []
    current = E
    while True:
        if current not in bases:
            bases[current] = tangent_basis(current, w)
        candidates = _positive_couples(bases[current])
        if not candidates:
            return tuple(chain)
        if policy == "first":
            chosen = candidates[0]
        elif policy == "last":
            chosen = candidates[-1]
        else:
            chosen = rng.choice(candidates)
        if (current, chosen) not in steps:
            H = H or hilbert_function(E, w)
            steps[current, chosen] = _degenerate(bases[current], chosen, H, profiles, step_limit)
        chain.append(steps[current, chosen])
        # Each step keeps H and lands strictly below its source, so the chain ends within E's class.
        current = chain[-1].target


def minimal_staircase(H: HilbertFunction) -> Staircase:
    """Bottom-row recursion for the least compatible staircase.

    The bottom row keeps the powers of x whose degree sees the count of H
    rise; the rest of the staircase is the shifted solution for the residual
    Hilbert function.  Each row takes one count off per cell, at its degree,
    and the rows use up every count: the result has Hilbert function H.
    Raises ``BoundExceededError`` first when the mass exceeds ``MINIMAL_BOUND``.
    """
    _require_mass(H, MINIMAL_BOUND, "minimal")
    w = H.weight
    if w.a <= 0:
        raise RegimeError(f"minimal staircase needs a > 0, b < 0; got ({w.a}, {w.b})")
    return Staircase._of(_minimal_columns(H.as_dict(), w))  # the rows are nonincreasing


def _minimal_columns(values: dict[int, int], w: Weight) -> tuple[int, ...]:
    """Columns of the least staircase with these degree counts, a row per pass.

    Each pass takes the bottom row x^0, ..., x^k, for the largest k whose
    degree k*(-b) sees the count rise over the degree a below it, and moves
    the rest down by a, the degree of y, in place: key d + shift holds
    residual degree d.  A pass reads each degree once, so neither the size
    of the degrees nor the number of rows limits it; the rows give the columns.
    """
    step, a = -w.b, w.a  # degrees of x and of y
    values = dict(values)
    widths = []
    shift, left = 0, sum(values.values())
    while left:
        k = -1
        for d, c in values.items():
            if values.get(d - a, 0) < c:
                q, r = divmod(d - shift, step)
                if q > k and not r:
                    k = q
        if k < 0:
            raise UnrealizableError("H not realizable: no admissible bottom row")
        for d in range(shift, shift + k * step + 1, step):
            if not values.get(d):
                raise UnrealizableError("H not realizable: bottom row exceeds a count")
            values[d] -= 1
        widths.append(k + 1)
        shift, left = shift + a, left - k - 1
    if any(upper > lower for lower, upper in zip(widths, widths[1:])):
        raise UnrealizableError("H not realizable: upper part wider than the bottom row")
    return tuple(sum(r > i for r in widths) for i in range(widths[0] if widths else 0))


def minimal_staircase_oracle(H: HilbertFunction) -> Staircase:
    """Exhaustive check of the minimal staircase: enumerate, filter, compare.

    Hard-errors if the compatible set does not contain exactly one staircase
    with empty positive part, or if that one is not below every other.
    A weight with a <= 0 raises ``RegimeError`` first; a mass past
    ``COMPATIBLE_BOUND``, the bound of the enumeration, ``BoundExceededError``.
    """
    w = H.weight
    if w.a <= 0:
        raise RegimeError(f"oracle needs a > 0, b < 0; got ({w.a}, {w.b})")
    compatible = compatible_staircases(H)
    if not compatible:
        raise UnrealizableError("no compatible staircase")
    bases = {E: tangent_basis(E, w) for E in compatible}
    profiles = {E: s_profile(E, w) for E in compatible}
    return _least_compatible(H, bases, profiles)


def _least_compatible(H: HilbertFunction, bases: Mapping[Staircase, TangentBasis],
                      profiles: Mapping[Staircase, tuple[int, ...]]) -> Staircase:
    """The oracle's check on a class given as its members' tangent bases and S-profiles."""
    empty_positive = [E for E, tb in bases.items() if not tb.positive]
    if len(empty_positive) != 1:
        raise ConsistencyError(
            f"{len(empty_positive)} compatible staircases with empty positive part "
            f"for {H.as_dict()}; expected exactly one"
        )
    least = empty_positive[0]
    for other in bases:
        if other == least:
            continue
        if _compare_profiles(profiles[least], profiles[other]) != Comparison.LESS:
            raise ConsistencyError(
                f"{least.columns} is not below {other.columns} in the staircase order"
            )
    return least


class StratumData(NamedTuple):
    staircase: Staircase
    dim_ab: int
    dim_pos: int
    dim_neg: int

    def to_json(self) -> dict:
        return {
            "columns": list(self.staircase.columns),
            "dim_ab": self.dim_ab,
            "dim_pos": self.dim_pos,
            "dim_neg": self.dim_neg,
        }


class ComponentReport(NamedTuple):
    """Everything the library knows about one Hilbert-function class."""

    hilbert: HilbertFunction
    strata: tuple[StratumData, ...]
    minimal: Staircase
    dimension: int
    chains: tuple[tuple[Staircase, ...], ...]

    def to_json(self) -> dict:
        return {
            "weight": self.hilbert.weight.to_json(),
            "H": {str(d): c for d, c in self.hilbert.values},
            "strata": [s.to_json() for s in self.strata],
            "minimal": self.minimal.to_json(),
            "dimension": self.dimension,
            "chains": [[list(E.columns) for E in chain] for chain in self.chains],
        }


def _require_length(length: int) -> None:
    if length < 1:
        raise DomainError(f"length must be at least 1, got {length}")


def _classes(length: int, w: Weight) -> dict[HilbertFunction, dict[Staircase, TangentBasis]]:
    """The staircases of one length grouped by Hilbert function under w.

    Each member maps to its tangent basis at w; classes and members keep
    the enumeration order.
    """
    groups: dict[HilbertFunction, dict[Staircase, TangentBasis]] = {}
    for E in enumerate_staircases(length):
        groups.setdefault(hilbert_function(E, w), {})[E] = tangent_basis(E, w)
    return groups


# Largest length ``component_report`` takes.  The 1575 staircases of length
# 24 take 0.3 to 0.4 s at (1, -1), (2, -1) and (1, -2) on a 2-vCPU VM.
COMPONENT_BOUND = 24

# Largest mass ``minimal_staircase`` takes: each row is one pass over the
# degrees, so one column, the slowest shape, of mass 3000 takes about 0.9 s
# on a 2-vCPU VM, and 8000 about 7.5 s.
MINIMAL_BOUND = 3000


def component_report(length: int, w: Weight) -> list[ComponentReport]:
    """Group the staircases of one length by Hilbert function and certify each class.

    Every class gets per-stratum tangent data and the checks of
    ``_least_of_class``: in the descent regime (a > 0) a dimension-constancy
    check, the minimal staircase computed both by recursion and by the
    enumeration oracle, and a descent chain from every stratum; otherwise a
    collapse to a single stratum.

    Each staircase gets one tangent basis, which gives its stratum data,
    feeds the oracle and indexes its degeneration step, one S-profile and at
    most one step (policy "first"): every target is a member of the same
    class.  p staircases in c classes cost p tangent bases, p S-profiles,
    2p - c Hilbert functions, p - c initial staircases and no chart family.
    """
    _require_length(length)
    if length > COMPONENT_BOUND:
        raise BoundExceededError(f"component bound {COMPONENT_BOUND} exceeded by length {length}")
    groups = _classes(length, w)
    reports = []
    for H in sorted(groups, key=lambda h: h.values):
        bases, profiles, steps = groups[H], {}, {}
        minimal = _least_of_class(H, bases, profiles)
        chains = tuple(_chain(E, minimal, "first", 0, H, bases, profiles, steps) if w.a > 0
                       else (E,) for E in bases)
        data = tuple(StratumData(E, tb.dimension, len(tb.positive), len(tb.negative))
                     for E, tb in bases.items())
        reports.append(ComponentReport(H, data, minimal, bases[minimal].dimension, chains))
    return reports


def _least_of_class(H: HilbertFunction, bases: Mapping[Staircase, TangentBasis],
                    profiles: dict[Staircase, tuple[int, ...]]) -> Staircase:
    """The least staircase of one Hilbert-function class, once the class is checked.

    ``bases`` maps the members to their tangent bases at H's weight.  With
    a <= 0 the class must be a single staircase, of zero invariant tangent
    space if a < 0.  With a > 0 its tangent dimension must be constant, and
    the bottom-row recursion must give the member ``_least_compatible``
    finds on S-profiles added to ``profiles``.
    """
    w = H.weight
    if w.a <= 0:
        (E, tb), *others = bases.items()
        if others:
            raise ConsistencyError(f"{len(bases)} staircases share H = {H.as_dict()} "
                                   "although a <= 0")
        if w.a < 0 and tb.dimension != 0:
            raise ConsistencyError(f"nonzero invariant tangent space at {E.columns} with a*b > 0")
        return E
    dims = {tb.dimension for tb in bases.values()}
    if len(dims) != 1:
        raise ConsistencyError(f"tangent dimension varies over {H.as_dict()}: {dims}")
    minimal = minimal_staircase(H)
    profiles.update((E, s_profile(E, w)) for E in bases)
    oracle = _least_compatible(H, bases, profiles)
    if minimal != oracle:
        raise ConsistencyError(f"recursion gives {minimal.columns} but enumeration gives "
                               f"{oracle.columns}")
    return minimal


def _chain(E: Staircase, least: Staircase, policy: str, seed: int, H: HilbertFunction,
           bases: dict, profiles: dict, steps: dict) -> tuple[Staircase, ...]:
    """E and the targets of its ``_descend`` under a policy, which must end at least."""
    walk = _descend(E, H.weight, policy, seed, None, bases, profiles, steps, H)
    chain = (E,) + tuple(step.target for step in walk)
    if chain[-1] != least:
        raise ConsistencyError(f"descent from {E.columns} ends at {chain[-1].columns}, "
                               f"not {least.columns}")
    return chain


def _arm_leg_dimension(E: Staircase, weight_vector: tuple[int, int]) -> int:
    """``cell_dimension(E, weight_vector)``, counted on ``arm_leg_characters(E)``.

    The empty staircase and a zero pairing are left to ``cell_dimension``, which raises.
    """
    if not E.columns:
        return cell_dimension(E, weight_vector)
    w1, w2 = weight_vector
    d = 0
    for f, g in arm_leg_characters(E):
        pairing = w1 * f + w2 * g
        if pairing > 0:
            d += 1
        elif pairing == 0:
            return cell_dimension(E, weight_vector)
    return d


# Largest length ``poincare_polynomial`` takes.  The 1575 staircases of
# length 24 take about 0.06 s; the bound stays because raising it would
# change the exit code of ``poincare --length 25``.
POINCARE_BOUND = 24


def poincare_polynomial(length: int, weight_vector: tuple[int, int]) -> dict[int, int]:
    """Cell-dimension census over all staircases of one length.

    Needs a covering torus action: both weight-vector entries negative and
    no orthogonal significant character anywhere at this length.  The
    length runs from 1 to ``POINCARE_BOUND``.

    The cell dimension of E is the number of its arm-leg characters
    (-(a+1), l) and (a, -(l+1)) that pair positively with the vector
    (Ellingsrud-Stromme, Invent. Math. 91, 1988; Haiman, Discrete Math.
    193, 1998); ``arm_leg_characters`` reads them without a tangent basis.
    At the first staircase with a character pairing to zero,
    ``cell_dimension`` raises the ``GenericityError`` that names its
    couple.
    """
    _require_length(length)
    if length > POINCARE_BOUND:
        raise BoundExceededError(f"poincare bound {POINCARE_BOUND} exceeded by length {length}")
    w1, w2 = weight_vector
    if w1 >= 0 or w2 >= 0:
        raise RegimeError(
            f"weight vector {weight_vector} must have both entries negative"
        )
    counts: dict[int, int] = {}
    for E in enumerate_staircases(length):
        d = _arm_leg_dimension(E, weight_vector)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))
